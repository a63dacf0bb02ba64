// Command pipefisher runs a pipeline schedule with PipeFisher's automatic
// K-FAC work assignment and renders the resulting timeline, reproducing the
// profiles of Figures 1, 3 and 4.
//
// Examples:
//
//	pipefisher -method gpipe -arch BERT-Base -stages 4 -blocks 3 -nmicro 4 -bmicro 32
//	pipefisher -method chimera -arch BERT-Large -stages 8 -blocks 3 -nmicro 8 -bmicro 32 -invparallel
//	pipefisher -method gpipe -stages 4 -nmicro 4 -bmicro 32 -dp 2 -invparallel -csv out.csv
//
// With -execute it additionally *runs* the schedule for real: a small BERT
// (one block per stage) trains through the schedule-driven engine with
// K-FAC work executing in the bubbles, and the executed timeline of the last
// round is rendered (and written as SVG next to -svg) beside the same round
// simulated with the op durations it measured — the sim/exec round trip the
// shared schedule form enables.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/autotune"
	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/hardware"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/schedule"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pipefisher: ")
	var (
		method       = flag.String("method", "gpipe", "pipeline schedule: gpipe, 1f1b, chimera")
		archName     = flag.String("arch", "BERT-Base", "architecture (Table 3 name)")
		gpuName      = flag.String("gpu", "P100", "GPU profile: P100, V100, RTX3090")
		stages       = flag.Int("stages", 4, "number of pipeline stages D")
		blocks       = flag.Int("blocks", 3, "transformer blocks per stage")
		nmicro       = flag.Int("nmicro", 4, "micro-batches per device per step")
		bmicro       = flag.Int("bmicro", 32, "micro-batch size")
		dp           = flag.Int("dp", 1, "data-parallel width W: replicas of every stage (of chimera's whole bidirectional pair)")
		invParallel  = flag.Bool("invparallel", false, "split inversion work across the stage's devices")
		recompute    = flag.Bool("recompute", false, "price activation recomputation in the simulated costs (the executor stashes)")
		width        = flag.Int("width", 120, "ASCII timeline width")
		csvPath      = flag.String("csv", "", "write the augmented timeline as CSV to this file")
		svgPath      = flag.String("svg", "", "write the augmented timeline as SVG to this file")
		vanilla      = flag.Bool("vanilla", false, "also render the vanilla (no K-FAC) timeline")
		execute      = flag.Bool("execute", false, "really train a small model under this schedule and render the executed timeline")
		execSteps    = flag.Int("execsteps", 5, "training steps to execute with -execute (rounded up to whole refresh rounds)")
		workers      = flag.Int("workers", 0, "intra-op kernel worker budget for real execution (0 = GOMAXPROCS); device goroutines share it")
		replicas     = flag.Int("replicas", 1, "data-parallel width W for real execution with -execute (replicated stage parameters, in-process sync-grad collectives)")
		refreshSteps = flag.Int("refresh-steps", 1, "round length K for real execution with -execute: one K-FAC refresh spreads over the bubbles of K consecutive steps (1 = classic skip cadence, 0 = adaptive: derive K from the measured refresh work at EnableKFAC time)")
		overlap      = flag.Bool("overlap", false, "overlap consecutive refresh windows with -execute: refresh work that spills out of its window carries into the next round's bubbles as generation-lagged ops")
		kernelName   = flag.String("kernel", "", "matmul kernel variant: scalar, tiled, or fma (default: best available)")
		f32          = flag.Bool("f32", false, "float32 compute mode: packed matmul panels and K-FAC statistics snapshots narrow to float32 (inverses and optimizer state stay float64)")
		faultSpec    = flag.String("faults", "", "deterministic fault plan for -execute, e.g. 'fail:step=2,op=curvature;stall:op=forward,delay=5ms,count=1' (kinds: fail, stall, drop, corrupt)")
		opTimeout    = flag.Duration("op-timeout", 0, "watchdog deadline per executed op with -execute; 0 disables the watchdog")
		opRetries    = flag.Int("op-retries", 0, "retry budget for failed side-path ops (curvature, inversion, sync-curvature) before degrading, with -execute")
		retryBackoff = flag.Duration("retry-backoff", 2*time.Millisecond, "base backoff between retries (doubles per attempt)")
		checkpoint   = flag.Bool("checkpoint", false, "round checkpoint/replay with -execute: snapshot state at every round start and replay aborted rounds (up to 3 attempts)")
		carryDepth   = flag.Int("carry-depth", 0, "overlap carry depth for real execution with -execute: refresh work may lag up to carry-depth-1 rounds behind its statistics (0 = the overlap default of 2; >2 needs -overlap)")
		autotuneOn   = flag.Bool("autotune", false, "closed-loop tuning with -execute: refit packing costs from the executed rounds, re-rank the schedule candidate space, and hot-swap the engine at round boundaries")
		tuneInterval = flag.Int("autotune-interval", 4, "rounds between tuner decisions with -autotune (observation continues every round)")
		tuneCSV      = flag.String("tune-csv", "", "write the tuner's per-round model-error and decision records as CSV to this file, with -autotune")
		transName    = flag.String("transport", "loopback", "collective transport: loopback (in-process) or ring (chunked socket chain) — prices the simulated collectives, and with -execute + -group really runs them")
		groupSpec    = flag.String("group", "", "ring membership: comma-separated listen addresses (unix:PATH or tcp:HOST:PORT, one per rank), or spawn:N to launch N local ranks over unix sockets")
		rankFlag     = flag.Int("rank", 0, "this process's rank within -group")
		chunkFl      = flag.Int("chunk", 0, "ring all-reduce chunk size in float64 elements (0 = transport default)")
		shardParams  = flag.Bool("shard-params", false, "ZeRO-style parameter sharding across the replica axis with -execute (needs -replicas >= 2)")
		heartbeat    = flag.Duration("heartbeat", 0, "ring heartbeat interval for liveness and straggler detection (0 = transport default, negative disables)")
		supervise    = flag.Bool("supervise", false, "with -group spawn:N: restart ranks killed by a fault plan and rejoin them at the next round boundary")
		rejoin       = flag.Bool("rejoin", false, "internal: this process is a restarted rank rejoining a running elastic group (set by the spawn supervisor)")
	)
	flag.Parse()
	if n, ok := spawnCount(*groupSpec); ok {
		os.Exit(spawnRanks(n, *supervise))
	}
	if *workers < 0 {
		*workers = 0 // negative means "default", like 0
	}
	if *replicas < 1 {
		*replicas = 1
	}
	if *refreshSteps < 0 {
		*refreshSteps = 0 // negative means "adaptive", like 0
	}
	tensor.SetParallelism(*workers)
	if *kernelName != "" {
		k, err := tensor.ParseKernel(*kernelName)
		if err != nil {
			log.Fatal(err)
		}
		if err := tensor.SetKernel(k); err != nil {
			log.Fatal(err)
		}
	}
	tensor.SetF32(*f32)
	kDesc := fmt.Sprint(*refreshSteps)
	if *refreshSteps == 0 {
		kDesc = "adaptive"
	}
	fmt.Printf("%s on %s: %d stages x %d micro-batches, simulated W=%d, executed replicas=%d, refresh round K=%s, overlap=%v, intra-op workers %d, kernel %s, f32=%v\n",
		*archName, *gpuName, *stages, *nmicro, *dp, *replicas, kDesc, *overlap, tensor.Parallelism(), tensor.KernelDetail(), tensor.F32())

	a, err := arch.ByName(*archName)
	if err != nil {
		log.Fatal(err)
	}
	g, err := hardware.ByName(*gpuName)
	if err != nil {
		log.Fatal(err)
	}
	costs, err := pipeline.CostsFor(pipeline.CostConfig{
		Arch: a, BlocksPerStage: *blocks, MicroBatch: *bmicro, GPU: g,
		DataParallelWidth: *dp, Recompute: *recompute, Transport: *transName,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := schedule.Assign(schedule.Config{
		Method: *method, Stages: *stages, MicroBatches: *nmicro, Costs: costs,
		DataParallelWidth: *dp, InversionParallel: *invParallel,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *vanilla {
		if err := trace.RenderASCII(os.Stdout, res.VanillaTimeline, *width); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if err := trace.RenderASCII(os.Stdout, res.Timeline, *width); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("GPU utilization:   %.1f%% -> %.1f%% with PipeFisher\n",
		100*res.VanillaUtilization, 100*res.Utilization)
	fmt.Printf("step time:         %.1f ms -> %.1f ms (+%.1f%% precondition overhead)\n",
		float64(res.VanillaStepTime)/1000, float64(res.StepTime)/1000,
		100*float64(res.StepTime-res.VanillaStepTime)/float64(res.VanillaStepTime))
	fmt.Printf("curvature+inverse refreshed every %d step(s); per-stage: %v\n",
		res.RefreshSteps, res.RefreshStepsPerStage)
	if res.Unassigned > 0 {
		fmt.Printf("WARNING: %d K-FAC work items did not fit in the simulated window\n", res.Unassigned)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := trace.WriteCSV(f, res.Timeline); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline CSV written to %s\n", *csvPath)
	}
	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := trace.RenderSVG(f, res.Timeline, 1200); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline SVG written to %s\n", *svgPath)
	}

	if *execute {
		var plan *faults.Plan
		if *faultSpec != "" {
			plan, err = faults.Parse(*faultSpec)
			if err != nil {
				log.Fatal(err)
			}
		}
		ft := faultConfig{
			plan: plan, opTimeout: *opTimeout, opRetries: *opRetries,
			retryBackoff: *retryBackoff, checkpoint: *checkpoint,
		}
		tn := tuneConfig{
			enabled: *autotuneOn, interval: *tuneInterval, csvPath: *tuneCSV,
		}
		tr := transportConfig{shard: *shardParams}
		switch *transName {
		case "loopback":
			if *groupSpec != "" {
				log.Fatal("-group needs -transport ring")
			}
		case "ring":
			addrs := strings.Split(*groupSpec, ",")
			if len(addrs) < 2 {
				log.Fatal("-transport ring needs a -group with at least 2 addresses (or spawn:N)")
			}
			tr.addrs, tr.self = addrs, *rankFlag
			tr.opts = transport.RingOptions{
				ChunkFloats: *chunkFl, DialTimeout: 30 * time.Second,
				HeartbeatInterval: *heartbeat,
			}
			if *rejoin {
				// A restarted rank builds its engine on the loopback first;
				// the ring forms during the rejoin handshake and Reconnect
				// initializes its state from the survivors.
				tr.rejoin = true
			} else {
				for i := range addrs {
					tr.alive = append(tr.alive, i)
				}
				g, err := transport.DialRing(addrs, *rankFlag, tr.opts)
				if err != nil {
					log.Fatal(err)
				}
				tr.group = g
			}
		default:
			log.Fatalf("unknown -transport %q (want loopback or ring)", *transName)
		}
		defer func() {
			if tr.group != nil {
				tr.group.Close()
			}
		}()
		executeSchedule(*method, *stages, *nmicro, *replicas, *invParallel, *execSteps, *refreshSteps, *carryDepth, *width, *workers, *overlap, *svgPath, ft, tn, &tr)
	}
}

// spawnCount parses a "spawn:N" -group spec.
func spawnCount(spec string) (int, bool) {
	rest, ok := strings.CutPrefix(spec, "spawn:")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 2 {
		log.Fatalf("-group %s: spawn needs an integer rank count >= 2", spec)
	}
	return n, true
}

// spawnRanks launches n copies of this binary as a local ring group over
// Unix-domain sockets in a temp directory, forwarding every flag except
// -group (replaced by the socket list) and -rank (assigned per child). Rank
// 0's stdout passes through — its step losses are the group's, so a spawned
// run's output is comparable line-for-line with a single-process run of the
// same global batch — while the other ranks' stdout is discarded and all
// stderr is shared.
//
// As supervisor, it watches for children that exit with killExitCode — a
// fault-plan kill, not a crash. Without -supervise the death is accepted:
// the survivors shrink the ring and finish at reduced width, and the run
// counts as a success. With -supervise the dead rank is relaunched with
// -rejoin so it re-enters the group at the next round boundary, restoring
// full width. Returns the exit code for the parent.
func spawnRanks(n int, supervise bool) int {
	exe, err := os.Executable()
	if err != nil {
		log.Print(err)
		return 1
	}
	dir, err := os.MkdirTemp("", "pipefisher-ring-")
	if err != nil {
		log.Print(err)
		return 1
	}
	defer os.RemoveAll(dir)
	specs := make([]string, n)
	for i := range specs {
		specs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("rank%d.sock", i))
	}
	base := stripFlags(os.Args[1:], "group", "rank", "supervise", "csv", "svg", "tune-csv")
	zero := stripFlags(os.Args[1:], "group", "rank", "supervise")
	start := func(i int, rejoin bool) (*exec.Cmd, error) {
		args := zero
		if i > 0 {
			args = base // secondary ranks must not race rank 0 on output files
		}
		args = append(append([]string{}, args...),
			"-transport", "ring", "-group", strings.Join(specs, ","), "-rank", strconv.Itoa(i))
		if rejoin {
			// The fault plan already did its job — it crashed the original
			// process. Its replacement runs clean, or a rank-targeted kill
			// would re-fire on every incarnation and the run would never end.
			args = append(stripFlags(args, "faults"), "-rejoin")
		}
		c := exec.Command(exe, args...)
		c.Stdout = io.Discard
		if i == 0 {
			c.Stdout = os.Stdout
		}
		c.Stderr = os.Stderr
		return c, c.Start()
	}
	cmds := make([]*exec.Cmd, n)
	for i := range cmds {
		c, err := start(i, false)
		if err != nil {
			log.Print(err)
			return 1
		}
		cmds[i] = c
	}
	var wg sync.WaitGroup
	var failed atomic.Bool
	for i := range cmds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cmds[i]
			for {
				err := c.Wait()
				if err == nil {
					return
				}
				var ee *exec.ExitError
				if errors.As(err, &ee) && ee.ExitCode() == killExitCode {
					if !supervise {
						log.Printf("rank %d killed by fault plan; survivors continue at reduced width", i)
						return
					}
					log.Printf("rank %d killed by fault plan; supervisor restarting it for rejoin", i)
					nc, serr := start(i, true)
					if serr != nil {
						log.Printf("rank %d restart: %v", i, serr)
						failed.Store(true)
						return
					}
					c = nc
					continue
				}
				log.Printf("rank %d: %v", i, err)
				failed.Store(true)
				return
			}
		}(i)
	}
	wg.Wait()
	if failed.Load() {
		return 1
	}
	return 0
}

// stripFlags removes the named flags (and their values) from an argument
// list, accepting the -name value, -name=value, and --name forms.
func stripFlags(args []string, names ...string) []string {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, hasValue := strings.TrimLeft(a, "-"), false
		if eq := strings.IndexByte(name, '='); eq >= 0 {
			name, hasValue = name[:eq], true
		}
		if strings.HasPrefix(a, "-") && drop[name] {
			if !hasValue && i+1 < len(args) && !strings.HasPrefix(args[i+1], "-") {
				i++ // skip the separate value
			}
			continue
		}
		out = append(out, a)
	}
	return out
}

// tuneConfig bundles the closed-loop tuning flags for real execution.
type tuneConfig struct {
	enabled  bool
	interval int
	csvPath  string
}

// faultConfig bundles the fault-tolerance flags for real execution.
type faultConfig struct {
	plan         *faults.Plan
	opTimeout    time.Duration
	opRetries    int
	retryBackoff time.Duration
	checkpoint   bool
}

// transportConfig bundles the collective-transport flags for real
// execution. A nil group means the in-process loopback transport (or, with
// rejoin set, a ring that forms during the rejoin handshake). For elastic
// multi-process rings, addrs/self/alive/view track the ORIGINAL membership
// so the group can be re-formed after rank failures and rejoins.
type transportConfig struct {
	group  transport.Group
	shard  bool
	addrs  []string // full original ring address list ("" transport: none)
	self   int      // this process's original rank within addrs
	alive  []int    // current members, as original ranks (ascending)
	view   int64    // membership view of the current group
	opts   transport.RingOptions
	rejoin bool // this process rejoins a running group instead of dialing
}

// executeSchedule trains a small BERT (one block per stage) for real under
// the selected schedule with K-FAC packed into the bubbles — replicated
// W-fold when -replicas is set, with the in-process gradient and curvature
// collectives, in K-step refresh rounds when -refresh-steps asks for
// multi-step windows (or sizes them adaptively with 0), and with
// overlapped windows when -overlap is set — then renders the executed
// timeline of the last round (step boundaries marked on the ruler) and its
// bubble-utilization summary. With -autotune the closed-loop tuner
// observes every executed round and may hot-swap the engine to a
// predicted-faster configuration at a round boundary; its decision log and
// final choice are printed after training.
func executeSchedule(method string, stages, nmicro, replicas int, invParallel bool, steps, refreshSteps, carryDepth, width, workers int, overlap bool, svgPath string, ft faultConfig, tc tuneConfig, tr *transportConfig) {
	cfg := bert.TinyConfig()
	cfg.Blocks = stages
	model, err := bert.New(cfg, 7)
	if err != nil {
		log.Fatal(err)
	}
	corpus, err := data.NewCorpus(cfg.VocabSize, 1.0, 11)
	if err != nil {
		log.Fatal(err)
	}
	// The ORIGINAL group width sizes the global batch, so a shrunken group
	// keeps consuming the same data stream (survivors re-shard the same
	// micro-batches) and losses stay comparable across membership changes.
	groupSize := 1
	if tr.elastic() {
		groupSize = len(tr.addrs)
	} else if tr.group != nil {
		groupSize = tr.group.Size()
	}
	adaptive := refreshSteps == 0
	if adaptive {
		refreshSteps = engine.AdaptiveRefreshSteps
	}
	eng, err := engine.NewWithConfig(model, engine.Config{
		Method: method, Stages: stages, MicroBatches: nmicro,
		Replicas: replicas, InversionParallel: invParallel, Workers: workers,
		RefreshSteps: refreshSteps, OverlapRounds: overlap, CarryDepth: carryDepth,
		FaultPlan: ft.plan, OpTimeout: ft.opTimeout,
		OpRetries: ft.opRetries, RetryBackoff: ft.retryBackoff,
		Checkpoint: ft.checkpoint,
		Transport:  tr.group, ShardParams: tr.shard,
	})
	if err != nil {
		log.Fatal(err)
	}
	if tr.elastic() {
		// A fault-plan kill must look like a real rank death to the peers:
		// exit the process so every survivor sees the wire drop. The exit
		// code tells the spawn supervisor this was deliberate.
		eng.SetKillHook(func() { os.Exit(killExitCode) })
	}
	// With explicit one-step rounds keep the classic every-2-steps skip
	// cadence; multi-step (or adaptively sized) windows ARE the cadence.
	every := 0
	if refreshSteps == 1 {
		every = 2
	}
	if err := eng.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.95, UsePiDamping: true}, every); err != nil {
		log.Fatal(err)
	}
	k := eng.RoundSteps()
	kDesc := fmt.Sprintf("K=%d", k)
	if adaptive {
		kDesc = fmt.Sprintf("K=%d (adaptive, from measured refresh work)", k)
	}
	params := model.Params()
	opt := optim.NewLAMB(params, 0.01)
	eng.SetOptimizer(func(step int) error {
		opt.Step(3e-3)
		return nil
	})
	if ft.checkpoint {
		eng.AttachOptimizerState(opt)
	}
	var tn *autotune.Tuner
	var startCand schedule.Candidate
	if tc.enabled {
		tn, err = autotune.New(eng, autotune.Config{Interval: tc.interval})
		if err != nil {
			log.Fatal(err)
		}
		startCand = tn.CurrentCandidate()
	}
	fmt.Printf("\n--- real execution: %s, %d stages, %d micro-batches, %d replica(s), refresh round %s, overlap=%v, %d intra-op workers ---\n",
		method, stages, nmicro, replicas, kDesc, overlap, tensor.Parallelism())
	if tr.group != nil {
		fmt.Printf("transport: ring rank %d of %d, global data-parallel width %d\n",
			tr.group.Rank(), tr.group.Size(), groupSize*replicas)
	} else if tr.rejoin {
		fmt.Printf("transport: ring rank %d rejoining a %d-wide group\n", tr.self, groupSize)
	}
	if tr.elastic() {
		hb := transport.DefaultHeartbeatInterval
		if h, ok := tr.group.(interface{ HeartbeatInterval() time.Duration }); ok {
			hb = h.HeartbeatInterval()
		} else if tr.opts.HeartbeatInterval != 0 {
			hb = tr.opts.HeartbeatInterval
		}
		if hb > 0 {
			fmt.Printf("elastic: heartbeat every %v, membership view %d, rank failures survive with -checkpoint\n",
				hb, tr.view)
		} else {
			fmt.Printf("elastic: heartbeats disabled, membership view %d\n", tr.view)
		}
	}
	if full, resident, ok := eng.ShardStats(); ok {
		fmt.Printf("shard-params: secondary replicas keep %d of %d parameter bytes resident (%.0f%%)\n",
			resident, full, 100*float64(resident)/float64(full))
	}
	if ft.plan != nil || ft.opTimeout > 0 || ft.opRetries > 0 || ft.checkpoint {
		fmt.Printf("fault tolerance: plan=%v op-timeout=%v op-retries=%d checkpoint=%v\n",
			ft.plan, ft.opTimeout, ft.opRetries, ft.checkpoint)
	}
	if tn != nil {
		fmt.Printf("autotune: on, starting from %s (decision every %d rounds)\n", startCand, tc.interval)
	}
	done := 0
	if tr.rejoin {
		step, err := rejoinHandshake(eng, tr)
		if err != nil {
			log.Fatal(err)
		}
		done = step
	}
	for done < steps {
		// Round boundaries are where membership changes land: a shrunken
		// group checks for (and admits) restarted ranks here, so every
		// member switches groups between the same two rounds.
		if err := memberSync(eng, tr); err != nil {
			log.Fatal("membership sync: ", err)
		}
		// A tuner swap can change the round length between rounds, so the
		// batch shape is re-derived from the engine every iteration.
		k = eng.RoundSteps()
		batches := make([]*data.Batch, k)
		for j := range batches {
			// Every rank materializes the full global batch from the shared
			// corpus seed and trains its own contiguous slice, so a W-rank run
			// and a single-process run of the same global width see identical
			// data — and print identical losses.
			batches[j] = corpus.MakeBatch(4*nmicro*replicas*groupSize, data.DefaultBatchConfig(cfg.SeqLen))
		}
		res, err := eng.TrainRound(batches)
		// Restore-and-replay: an aborted round rewinds to its start
		// checkpoint and re-runs the same batches. Count-limited faults
		// stay consumed across the rewind, so a transient fault's replay
		// goes through; a persistent one exhausts the attempts and dies.
		// A rank failure is different: local replay cannot outrun a dead
		// peer, so the survivors regroup onto a smaller ring instead.
		for attempt := 1; err != nil && ft.checkpoint && attempt <= 3; attempt++ {
			if _, isRF := transport.AsRankFailure(err); isRF {
				break
			}
			fmt.Printf("round aborted: %v\n  restoring checkpoint and replaying (attempt %d/3)\n", err, attempt)
			if _, rerr := eng.RestoreCheckpoint(); rerr != nil {
				log.Fatal(rerr)
			}
			res, err = eng.TrainRound(batches)
		}
		if err != nil {
			if rf, ok := transport.AsRankFailure(err); ok && tr.elastic() {
				if eng.StepsDone() >= steps {
					// Every step this run needed has committed — the "dead"
					// peer finished first and tore down while this rank was
					// draining its final round. Nothing is left to regroup
					// for; finish like everyone else.
					fmt.Printf("membership: peer closed after final commit (%v)\n", rf.Cause)
					break
				}
				step, serr := surviveFailure(eng, tr, ft, rf)
				if serr != nil {
					log.Fatal(serr)
				}
				done = step
				continue
			}
			log.Fatal(err)
		}
		for j, r := range res {
			deg := ""
			if r.Degraded && j == 0 {
				deg = fmt.Sprintf("  DEGRADED (%s)", r.DegradedReason)
			}
			fmt.Printf("step %d  loss %.4f  refreshed=%v%s\n", done+j, r.Loss.Total, r.Refreshed, deg)
		}
		done += k
		if tn != nil {
			d, derr := tn.Observe()
			if derr != nil {
				// A failed swap leaves the engine on its current schedule;
				// report it and train on.
				fmt.Printf("autotune: %v\n", derr)
			}
			if d != nil {
				fmt.Printf("autotune round %d: %s -> %s (predicted %d -> %d us/step): %s\n",
					d.Round, d.Current, d.Choice, d.CurrentStep, d.ChoiceStep, d.Reason)
			}
		}
	}
	if tn != nil {
		fmt.Println()
		if err := trace.RenderTuneLog(os.Stdout, tn.Records()); err != nil {
			log.Fatal(err)
		}
		final := tn.CurrentCandidate()
		if final == startCand {
			fmt.Printf("autotune: held starting configuration %s\n", startCand)
		} else {
			fmt.Printf("autotune: final choice %s beats starting configuration %s\n", final, startCand)
		}
		if tc.csvPath != "" {
			f, err := os.Create(tc.csvPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if err := trace.WriteTuneCSV(f, tn.Records()); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("tuner records CSV written to %s\n", tc.csvPath)
		}
	}
	if tr.group != nil {
		fmt.Printf("transport: rank %d sent %d bytes on the wire\n", tr.group.Rank(), tr.group.BytesOnWire())
	}
	fmt.Println()
	real := eng.LastTimeline()
	if err := trace.RenderASCII(os.Stdout, real, width); err != nil {
		log.Fatal(err)
	}
	if err := trace.RenderBubbleSummary(os.Stdout, real); err != nil {
		log.Fatal(err)
	}
	if svgPath != "" {
		execPath := svgPath + ".executed.svg"
		f, err := os.Create(execPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := trace.RenderSVG(f, real, 1200); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("executed-timeline SVG written to %s\n", execPath)
	}
	// Real vs simulated: the round just executed, rebuilt from the op
	// durations it measured and timed by the simulator — the comparison the
	// shared op-list form exists for. The simulated side mirrors the
	// engine's *final* configuration, which under -autotune can differ from
	// the flags the run started with.
	simSched, err := schedule.Executable(eng.ScheduleConfig(engine.MeasuredCosts(real, 2*len(eng.StageLayers(0)))))
	if err != nil {
		log.Fatal(err)
	}
	sim, err := pipeline.Run(simSched)
	if err != nil {
		log.Fatal(err)
	}
	sim.Name = simSched.Name + " (simulated, measured costs)"
	fmt.Println()
	if err := trace.RenderASCII(os.Stdout, sim, width); err != nil {
		log.Fatal(err)
	}
	if eng.Replicas() > 1 {
		rs, ss := trace.Summarize(real), trace.Summarize(sim)
		fmt.Printf("\ncollectives (total device-time): sync-grad %.2f ms executed vs %.2f ms simulated, sync-curvature %.2f ms vs %.2f ms\n",
			float64(rs.PerKind[pipeline.SyncGrad])/1000, float64(ss.PerKind[pipeline.SyncGrad])/1000,
			float64(rs.PerKind[pipeline.SyncCurvature])/1000, float64(ss.PerKind[pipeline.SyncCurvature])/1000)
	}
}
