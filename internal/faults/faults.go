// Package faults provides deterministic, reproducible fault plans for the
// schedule-driven executor. A Plan names a set of injection points — (step,
// device, op-kind, micro-batch) coordinates over the executable schedule —
// and what goes wrong there: an op failure, a device stall (delay
// injection), a dropped collective, or NaN/Inf corruption of the op's
// output. The engine consults the plan's Injector immediately before
// executing each op; everything the injector does is a pure function of the
// plan plus per-fault fire counters, so the same plan against the same
// schedule misbehaves identically on every run — including on a
// restore-and-replay pass, where counters consumed before an abort stay
// consumed.
//
// The package deliberately knows nothing about the engine: it matches on
// pipeline.WorkKind coordinates only, so the simulator, tests, and future
// transports can reuse the same plans.
package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
)

// Kind classifies what a fault does to the op it fires on.
type Kind int

const (
	// Fail makes the op return an injected error.
	Fail Kind = iota
	// Stall delays the op by Fault.Delay before it executes. The engine
	// treats long stalls like hung kernels: the watchdog attributes them
	// once they exceed the op deadline.
	Stall
	// Drop makes a collective op (sync-grad, sync-curvature) fail as if
	// the transport lost the message. On non-collective ops it behaves
	// like Fail.
	Drop
	// Corrupt poisons the op's numeric output with NaN after it runs.
	Corrupt
	// Kill terminates the whole rank at the matched op: the engine invokes
	// its registered kill hook (the CLI exits the process; tests sever the
	// rank's transport), simulating a machine loss the survivors must
	// regroup around. Usually combined with rank= so exactly one member of
	// a multi-process group dies.
	Kill
)

var kindNames = map[Kind]string{
	Fail:    "fail",
	Stall:   "stall",
	Drop:    "drop",
	Corrupt: "corrupt",
	Kill:    "kill",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Any matches every value of a coordinate in a Fault.
const Any = -1

// Fault is one injection point. Zero-valued coordinates are NOT wildcards —
// use Any (-1) to match every step/device/micro-batch/rank. Op uses OpAny
// to match every op kind.
type Fault struct {
	Kind   Kind
	Rank   int               // data-parallel rank to target, Any = every rank (Plan.ForRank filters)
	Step   int               // global training step, Any = every step
	Device int               // schedule device index, Any = every device
	Op     pipeline.WorkKind // op kind to match, OpAny = every kind
	Micro  int               // micro-batch index, Any = every micro-batch
	Count  int               // fire at most Count matches (0 = unlimited)
	Delay  time.Duration     // Stall only: injected delay
}

// OpAny matches every op kind in Fault.Op.
const OpAny pipeline.WorkKind = -1

// matches reports whether the fault applies at the given coordinates.
func (f *Fault) matches(step, device int, kind pipeline.WorkKind, micro int) bool {
	if f.Step != Any && f.Step != step {
		return false
	}
	if f.Device != Any && f.Device != device {
		return false
	}
	if f.Op != OpAny && f.Op != kind {
		return false
	}
	if f.Micro != Any && f.Micro != micro {
		return false
	}
	return true
}

// String renders the fault in the -faults CLI spec syntax.
func (f Fault) String() string {
	var b strings.Builder
	b.WriteString(f.Kind.String())
	sep := ":"
	field := func(name, val string) {
		b.WriteString(sep)
		sep = ","
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(val)
	}
	if f.Rank != Any {
		field("rank", strconv.Itoa(f.Rank))
	}
	if f.Step != Any {
		field("step", strconv.Itoa(f.Step))
	}
	if f.Device != Any {
		field("dev", strconv.Itoa(f.Device))
	}
	if f.Op != OpAny {
		field("op", f.Op.String())
	}
	if f.Micro != Any {
		field("micro", strconv.Itoa(f.Micro))
	}
	if f.Count != 0 {
		field("count", strconv.Itoa(f.Count))
	}
	if f.Delay != 0 {
		field("delay", f.Delay.String())
	}
	return b.String()
}

// Plan is a reproducible set of faults. Seed identifies randomly generated
// plans (Random) so failures can be reproduced from a log line; hand-written
// plans may leave it zero.
type Plan struct {
	Seed   int64
	Faults []Fault
}

// String renders the plan in the -faults CLI spec syntax (semicolon-joined).
func (p *Plan) String() string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// ForRank projects the plan onto one member of a multi-process group: the
// faults targeting that rank (or every rank) survive with their rank
// selector satisfied; faults aimed at other ranks drop out. Returns nil —
// a never-firing plan — when nothing applies, so a rank-targeted plan
// costs every other rank the usual zero (a nil Injector keeps the engine
// on its fault-free fast path). The engine applies this at construction
// with its transport rank.
func (p *Plan) ForRank(rank int) *Plan {
	if p == nil {
		return nil
	}
	out := &Plan{Seed: p.Seed}
	for _, f := range p.Faults {
		if f.Rank == Any || f.Rank == rank {
			out.Faults = append(out.Faults, f)
		}
	}
	if len(out.Faults) == 0 {
		return nil
	}
	return out
}

// Outcome is what the injector decided for one op execution. Zero value
// means "no fault here".
type Outcome struct {
	Err     error         // non-nil: the op fails with this error (Fail/Drop)
	Delay   time.Duration // non-zero: stall this long before executing
	Corrupt bool          // poison the op's output with NaN after it runs
	Kill    bool          // terminate the whole rank at this op (Kill faults)
}

// Injector evaluates a Plan at op coordinates. Safe for concurrent use by
// the engine's device goroutines; per-fault fire counters are atomic and
// persist for the injector's lifetime, so a Count-limited fault consumed
// before a round abort stays consumed on the replay pass.
type Injector struct {
	plan  Plan
	fired []atomic.Int64 // one counter per fault
}

// NewInjector builds an injector for the plan. A nil plan yields a nil
// injector, which never fires.
func NewInjector(plan *Plan) *Injector {
	if plan == nil {
		return nil
	}
	return &Injector{plan: *plan, fired: make([]atomic.Int64, len(plan.Faults))}
}

// Plan returns a copy of the injector's plan.
func (in *Injector) Plan() Plan {
	return Plan{Seed: in.plan.Seed, Faults: append([]Fault(nil), in.plan.Faults...)}
}

// At evaluates the plan at one op execution. Every matching fault fires
// (consuming one count each); their effects combine into a single Outcome,
// with the first matching Fail/Drop supplying Err and delays summing.
// A nil injector returns the zero Outcome.
func (in *Injector) At(step, device int, kind pipeline.WorkKind, micro int) Outcome {
	if in == nil {
		return Outcome{}
	}
	var out Outcome
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		if !f.matches(step, device, kind, micro) {
			continue
		}
		if f.Count > 0 {
			// Reserve one firing; back out if the budget is spent.
			if n := in.fired[i].Add(1); n > int64(f.Count) {
				in.fired[i].Add(-1)
				continue
			}
		} else {
			in.fired[i].Add(1)
		}
		switch f.Kind {
		case Fail:
			if out.Err == nil {
				out.Err = fmt.Errorf("faults: injected failure (fault %d: %s) at step %d device %d op %s micro %d",
					i, f.String(), step, device, kind, micro)
			}
		case Drop:
			if out.Err == nil {
				out.Err = fmt.Errorf("faults: injected collective drop (fault %d: %s) at step %d device %d op %s micro %d",
					i, f.String(), step, device, kind, micro)
			}
		case Stall:
			out.Delay += f.Delay
		case Corrupt:
			out.Corrupt = true
		case Kill:
			out.Kill = true
		}
	}
	return out
}

// Fired returns how many times fault i has fired so far.
func (in *Injector) Fired(i int) int64 {
	if in == nil || i < 0 || i >= len(in.fired) {
		return 0
	}
	return in.fired[i].Load()
}

// opKinds are the fault targets, in declaration order: exactly the kinds a
// schedule can emit (a fault naming a label-only kind could never fire).
// Specs name them by String; Random indexes this list, so its order fixes
// the plan a seed draws.
var opKinds = func() []pipeline.WorkKind {
	var ks []pipeline.WorkKind
	for _, k := range pipeline.Kinds() {
		if k.IsEmitted() {
			ks = append(ks, k)
		}
	}
	return ks
}()

// Parse decodes a CLI fault spec: semicolon-separated faults, each
// "kind:field=value,field=value". Kinds: fail, stall, drop, corrupt, kill.
// Fields: rank, step, dev, op, micro, count, delay (Go duration). Omitted
// rank/step/dev/micro match everything; omitted op matches every kind.
//
//	fail:step=2,dev=1,op=curvature
//	stall:op=forward,delay=5ms,count=2;drop:op=sync-grad,count=1
//	kill:rank=1,step=2
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("faults: empty spec")
	}
	plan := &Plan{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, rest, _ := strings.Cut(part, ":")
		var kind Kind
		found := false
		for k, name := range kindNames {
			if name == kindStr {
				kind, found = k, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("faults: unknown fault kind %q in %q (want fail, stall, drop, corrupt, or kill)", kindStr, part)
		}
		f := Fault{Kind: kind, Rank: Any, Step: Any, Device: Any, Op: OpAny, Micro: Any}
		if rest != "" {
			for _, kv := range strings.Split(rest, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("faults: malformed field %q in %q (want key=value)", kv, part)
				}
				switch key {
				case "rank", "step", "dev", "micro", "count":
					n, err := strconv.Atoi(val)
					if err != nil {
						return nil, fmt.Errorf("faults: bad %s value %q in %q: %v", key, val, part, err)
					}
					switch key {
					case "rank":
						if n < 0 {
							return nil, fmt.Errorf("faults: negative rank in %q", part)
						}
						f.Rank = n
					case "step":
						f.Step = n
					case "dev":
						f.Device = n
					case "micro":
						f.Micro = n
					case "count":
						if n < 0 {
							return nil, fmt.Errorf("faults: negative count in %q", part)
						}
						f.Count = n
					}
				case "op":
					i := slices.IndexFunc(opKinds, func(k pipeline.WorkKind) bool { return k.String() == val })
					if i < 0 {
						names := make([]string, len(opKinds))
						for j, k := range opKinds {
							names[j] = k.String()
						}
						sort.Strings(names)
						return nil, fmt.Errorf("faults: unknown op kind %q in %q (want one of %s)", val, part, strings.Join(names, ", "))
					}
					f.Op = opKinds[i]
				case "delay":
					d, err := time.ParseDuration(val)
					if err != nil {
						return nil, fmt.Errorf("faults: bad delay %q in %q: %v", val, part, err)
					}
					if d < 0 {
						return nil, fmt.Errorf("faults: negative delay in %q", part)
					}
					f.Delay = d
				default:
					return nil, fmt.Errorf("faults: unknown field %q in %q", key, part)
				}
			}
		}
		if f.Kind == Stall && f.Delay == 0 {
			return nil, fmt.Errorf("faults: stall fault %q needs delay=<duration>", part)
		}
		plan.Faults = append(plan.Faults, f)
	}
	if len(plan.Faults) == 0 {
		return nil, fmt.Errorf("faults: spec %q contains no faults", spec)
	}
	return plan, nil
}

// Random generates a reproducible plan of n faults over steps [0, maxStep)
// and devices [0, devices). The same (seed, n, maxStep, devices) always
// yields the same plan; the seed is recorded in the plan for reproduction.
// Faults are Count-limited (1–2 firings) so soak runs terminate, and stalls
// stay in the low-millisecond range.
func Random(seed int64, n, maxStep, devices int) *Plan {
	rng := rand.New(rand.NewSource(seed))
	plan := &Plan{Seed: seed}
	kinds := []Kind{Fail, Stall, Drop, Corrupt}
	for i := 0; i < n; i++ {
		// Kill is deliberately absent from the pool: a random rank death
		// ends the soak run instead of exercising recovery.
		f := Fault{
			Kind:   kinds[rng.Intn(len(kinds))],
			Rank:   Any,
			Step:   rng.Intn(maxStep),
			Device: Any,
			Op:     opKinds[rng.Intn(len(opKinds))],
			Micro:  Any,
			Count:  1 + rng.Intn(2),
		}
		if devices > 0 && rng.Intn(2) == 0 {
			f.Device = rng.Intn(devices)
		}
		if f.Kind == Stall {
			f.Delay = time.Duration(1+rng.Intn(4)) * time.Millisecond
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan
}
