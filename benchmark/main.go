// Command benchmark is the repository's paired vanilla/PipeFisher training
// benchmark. Every workload trains a real BERT through engine.TrainRound on
// fresh data.Corpus batches with two arms interleaved in short alternating
// blocks — vanilla (K-FAC off, LAMB) and pipefisher (K-FAC packed into the
// pipeline bubbles, LAMB on preconditioned gradients) — from the same model
// seed over the same data stream, so the paper's ratios are measured
// against a twin that saw the same machine noise. See README.md.
//
//	benchmark -workload tiny_1f1b -seed 1 -seconds 20 -trace 0   one run (what BENCHMARK.json's command does)
//	benchmark [-seeds n] [-quick] [-out results.json]            every workload, untraced then traced, one child process each
//	benchmark -compare a.json b.json                             two -out files, row by row
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/tensor"
)

// resultPrefix marks the full runResult a child prints for its parent, on
// the line before the contract's last-line JSON.
const resultPrefix = "result: "

// cli is the parsed command line.
type cli struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	out      string
	seeds    int
	compare  bool
	manifest bool
}

func main() {
	var c cli
	flag.StringVar(&c.workload, "workload", "", "run this one workload in this process (default: all four, one child process each)")
	flag.Uint64Var(&c.seed, "seed", 1, "derives the model and corpus seeds")
	flag.Float64Var(&c.seconds, "seconds", nominalSeconds, "run length the fixed step budgets are scaled to (budgets are step counts, never deadlines)")
	flag.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run (a third of the budget) and its per-layer metrics")
	flag.BoolVar(&c.quick, "quick", false, "~1% step budgets: a smoke run, not a measurement")
	flag.StringVar(&c.out, "out", "", "also write the results as JSON here (input of -compare)")
	flag.IntVar(&c.seeds, "seeds", 1, "all-workloads mode: run seeds -seed .. -seed+n-1")
	flag.BoolVar(&c.compare, "compare", false, "compare two -out files: benchmark -compare a.json b.json")
	flag.BoolVar(&c.manifest, "manifest", false, "print BENCHMARK.json as this package declares it, and exit")
	flag.Parse()
	if err := realMain(c); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(c cli) error {
	switch {
	case c.manifest:
		fmt.Println(manifest())
		return nil
	case c.compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	case c.seconds <= 0:
		return fmt.Errorf("-seconds %g must be positive", c.seconds)
	case c.trace != 0 && c.trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", c.trace)
	case c.workload == "":
		return runAll(c.seed, c.seeds, c.seconds, c.quick, c.out)
	}
	w, err := findWorkload(c.workload)
	if err != nil {
		return err
	}
	tensor.SetParallelism(runtime.NumCPU())
	o := runOpts{w: w, seed: c.seed, seconds: c.seconds, traced: c.trace == 1, quick: c.quick}
	printHeader(os.Stdout, o)
	res, runErr := run(o)
	report(os.Stdout, o, res)
	if c.out != "" {
		if err := writeResults(c.out, []*runResult{res}); err != nil {
			return err
		}
	}
	if runErr != nil {
		return runErr
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d steps failed the correctness gate", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// hostInfo is what the numbers rest on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	F32        bool   `json:"f32"`
}

func host() hostInfo {
	return hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		CPU: cpuModel(), Kernel: tensor.ActiveKernel().String(), F32: tensor.F32(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printHeader(w io.Writer, o runOpts) {
	h := host()
	budget := o.budget()
	fmt.Fprintf(w, "# workload %s  seed %d  trace %v  seconds %g  quick %v\n", o.w.name, o.seed, o.traced, o.seconds, o.quick)
	fmt.Fprintf(w, "# host: nproc %d  GOMAXPROCS %d  %s %s  cpu %q  kernel %s  f32 %v\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Platform, h.CPU, h.Kernel, h.F32)
	fmt.Fprintf(w, "# budget: %d steps/arm after %d warm-up steps, blocks of %d steps, order rotated every block\n",
		budget, warmSteps, o.w.blockSteps())
	fmt.Fprintf(w, "# convergence: held-out masked-LM loss on %d fixed tokens; target = the vanilla arm's after %d steps, which pipefisher has %d steps to reach\n",
		evalTokens, o.lossAt(), o.lossWindow())
	fmt.Fprintf(w, "# why: %s\n", o.w.why)
	if o.w.ranks > 1 {
		fmt.Fprintf(w, "# note: %d ranks x %d device goroutines share %d cores: seqs/s here prices the wire against tiny_1f1b, it is not a scaling number\n",
			o.w.ranks, stages, h.NProc)
	}
}

// report prints one run: the metrics table, the failed-share line, the
// full result for a parent process, and last the contract's JSON object.
func report(w io.Writer, o runOpts, res *runResult) {
	decls := endToEndMetrics
	if o.traced {
		decls = perLayerMetrics
	}
	fmt.Fprintf(w, "%-32s %16s  %-8s %s\n", "metric", "value", "unit", "samples")
	for _, d := range decls {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		var note string
		if s, ok := res.Samples[d.Name]; ok {
			note = fmt.Sprintf(" n=%d", s)
			if strings.HasSuffix(d.Name, "_p90") && tailPercentile(s) < 90 {
				note += " (fewer than 10 samples beyond p90)"
			}
		}
		fmt.Fprintf(w, "%-32s %16.6g  %-8s%s\n", d.Name, m.Value, m.Unit, note)
	}
	fmt.Fprintf(w, "steps_attempted %d  steps_failed %d", res.Attempted, res.Failed)
	if !o.traced {
		fmt.Fprintf(w, "  target_reached %v", res.TargetReached)
	}
	fmt.Fprintln(w)
	for i, n := range res.EvalSteps {
		fmt.Fprintf(w, "held-out loss after %5d steps: vanilla %.4f  pipefisher %.4f\n", n, res.EvalVanilla[i], res.EvalPipefisher[i])
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
	full, err := json.Marshal(res)
	if err != nil {
		panic(err) // runResult holds only marshalable fields
	}
	fmt.Fprintf(w, "%s%s\n", resultPrefix, full)
	fmt.Fprintln(w, contractLine(res, decls))
}

// contractLine is the last line of a run's standard output: exactly the
// keys correct, attempted, failed and metrics, the metrics exactly the
// declared ones of the run's kind.
func contractLine(res *runResult, decls []metricDecl) string {
	metrics := make(map[string]metricValue, len(decls))
	complete := true
	for _, d := range decls {
		m, ok := res.Metrics[d.Name]
		if !ok {
			complete = false
			continue
		}
		metrics[d.Name] = m
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{complete && res.Failed == 0, attempted, res.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// manifest renders BENCHMARK.json from the declarations in this package,
// so the file at the root of the repository cannot drift from the code
// (TestManifestMatchesBenchmarkJSON compares them).
func manifest() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: nominalSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEndMetrics {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerMetrics {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers
	}
	return string(b)
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

func writeResults(path string, runs []*runResult) error {
	b, err := json.MarshalIndent(resultsFile{Host: host(), Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload, untraced then traced, each as a fresh child
// process — its peak RSS, tensor pool and SetParallelism state are its own
// — then prints the summary.
func runAll(seed uint64, nSeeds int, seconds float64, quick bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var runs []*runResult
	var failures []string
	for s := seed; s < seed+uint64(nSeeds); s++ {
		for i := range workloads {
			for _, tr := range []int{0, 1} {
				args := []string{"-workload", workloads[i].name, "-seed", fmt.Sprint(s),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(tr)}
				if quick {
					args = append(args, "-quick")
				}
				res, err := runChild(exe, args)
				if err != nil {
					failures = append(failures, fmt.Sprintf("%s seed %d trace %d: %v", workloads[i].name, s, tr, err))
				}
				if res != nil {
					runs = append(runs, res)
				}
			}
		}
	}
	printSummary(os.Stdout, runs)
	if out != "" {
		if err := writeResults(out, runs); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}

// runChild runs one workload run as a child process, passes its output
// through, and returns the runResult it printed.
func runChild(exe string, args []string) (*runResult, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var res *runResult
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, resultPrefix); ok {
			res = new(runResult)
			if err := json.Unmarshal([]byte(rest), res); err != nil {
				res = nil
			}
			continue
		}
		if strings.HasPrefix(line, "{") {
			continue // the contract line: for the driver, not for a person
		}
		fmt.Println(line)
	}
	// Wait reaps the child on every path; a scan error is only worth
	// reporting when the child itself succeeded.
	waitErr := cmd.Wait()
	if waitErr != nil {
		return res, waitErr
	}
	if err := sc.Err(); err != nil {
		return res, err
	}
	if res == nil {
		return nil, errors.New("child printed no result")
	}
	return res, nil
}

// printSummary prints every metric once per workload (median over seeds).
func printSummary(w io.Writer, runs []*runResult) {
	if len(runs) == 0 {
		return
	}
	vals := map[string]map[string][]float64{} // metric -> workload -> values
	attempted, failed := map[string]int{}, map[string]int{}
	for _, r := range runs {
		attempted[r.Workload] += r.Attempted
		failed[r.Workload] += r.Failed
		for n, m := range r.Metrics {
			if vals[n] == nil {
				vals[n] = map[string][]float64{}
			}
			vals[n][r.Workload] = append(vals[n][r.Workload], m.Value)
		}
	}
	fmt.Fprintf(w, "\n# summary (median over seeds)\n%-32s %-8s", "metric", "unit")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %16s", wl.name)
	}
	fmt.Fprintln(w)
	for _, d := range append(append([]metricDecl(nil), endToEndMetrics...), perLayerMetrics...) {
		if vals[d.Name] == nil {
			continue
		}
		fmt.Fprintf(w, "%-32s %-8s", d.Name, d.Unit)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %16.6g", median(vals[d.Name][wl.name]))
		}
		fmt.Fprintln(w)
	}
	for _, row := range []struct {
		name string
		m    map[string]int
	}{{"steps_attempted", attempted}, {"steps_failed", failed}} {
		fmt.Fprintf(w, "%-32s %-8s", row.name, "steps")
		for _, wl := range workloads {
			fmt.Fprintf(w, " %16d", row.m[wl.name])
		}
		fmt.Fprintln(w)
	}
}
