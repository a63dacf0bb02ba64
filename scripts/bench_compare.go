// Command bench_compare reports benchstat-style deltas between two of the
// CI perf artifacts (BENCH_tensor.json / BENCH_engine.json, produced by
// scripts/bench_to_json.awk from `go test -bench` output) and fails when a
// gated metric regresses beyond a threshold — the guard that keeps the
// committed perf trajectory honest.
//
// Usage:
//
//	go run ./scripts -baseline BENCH_engine.json -current /tmp/new.json \
//	    [-threshold 10] [-gate seqs_per_s] [-gate-rows '^BenchmarkMatMul']
//
// Metrics are compared by direction: ns_per_op, bytes_per_op,
// allocs_per_op and the slot_bytes / scratch_bytes of the activation-slot
// rows regress when they grow; seqs_per_s, mb_per_s, gflops
// (throughput) and poolchunks_per_op (effective per-op worker fan-out)
// regress when they shrink. Only the metrics named by -gate (comma list, or
// "all") cause a non-zero exit, and only on rows whose benchmark name
// matches -gate-rows
// (a regexp; default every row); everything else is reported
// informationally. The default gate is seqs_per_s — steady-state executor
// throughput — because wall-clock nanoseconds on shared CI runners are too
// noisy to gate on by default.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// metric describes one comparable benchmark column.
type metric struct {
	key          string
	label        string
	higherBetter bool
}

var metrics = []metric{
	{"ns_per_op", "ns/op", false},
	{"bytes_per_op", "B/op", false},
	{"allocs_per_op", "allocs/op", false},
	{"mb_per_s", "MB/s", true},
	{"seqs_per_s", "seqs/s", true},
	{"poolchunks_per_op", "poolchunks/op", true},
	{"gflops", "GFLOP/s", true},
	{"slot_bytes", "slot-B", false},
	{"scratch_bytes", "scratch-B", false},
}

func loadBench(path string) (map[string]map[string]float64, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string]float64, len(rows))
	var order []string
	for _, row := range rows {
		name, _ := row["name"].(string)
		if name == "" {
			continue
		}
		vals := make(map[string]float64)
		for _, m := range metrics {
			if v, ok := row[m.key].(float64); ok {
				vals[m.key] = v
			}
		}
		out[name] = vals
		order = append(order, name)
	}
	return out, order, nil
}

func main() {
	baselinePath := flag.String("baseline", "", "committed baseline JSON (required)")
	currentPath := flag.String("current", "", "freshly measured JSON (required)")
	threshold := flag.Float64("threshold", 10, "regression threshold in percent on gated metrics")
	gate := flag.String("gate", "seqs_per_s", "comma-separated metrics that fail the run on regression, or \"all\"")
	gateRows := flag.String("gate-rows", "", "regexp restricting the gate to matching benchmark names (empty = every row)")
	goneOK := flag.String("gone-ok", "", "regexp of benchmark names whose absence from the current run is tolerated — for baseline rows committed ahead of a narrower -bench regex, or rows only some hosts produce")
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "bench_compare: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}
	base, _, err := loadBench(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_compare:", err)
		os.Exit(2)
	}
	cur, order, err := loadBench(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_compare:", err)
		os.Exit(2)
	}
	gated := make(map[string]bool)
	for _, g := range strings.Split(*gate, ",") {
		if g = strings.TrimSpace(g); g != "" {
			gated[g] = true
		}
	}
	rowRe := regexp.MustCompile("")
	if *gateRows != "" {
		rowRe, err = regexp.Compile(*gateRows)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench_compare: -gate-rows:", err)
			os.Exit(2)
		}
	}
	var goneRe *regexp.Regexp
	if *goneOK != "" {
		goneRe, err = regexp.Compile(*goneOK)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench_compare: -gone-ok:", err)
			os.Exit(2)
		}
	}

	fmt.Printf("%-55s %-10s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	var regressions []string
	for _, name := range order {
		old, ok := base[name]
		if !ok {
			fmt.Printf("%-55s %-10s %14s %14s %9s\n", name, "-", "(new)", "-", "-")
			continue
		}
		for _, m := range metrics {
			nv, haveNew := cur[name][m.key]
			ov, haveOld := old[m.key]
			if !haveNew || !haveOld {
				continue
			}
			if ov == 0 {
				// A percent delta from zero is undefined, but a zero
				// baseline on a lower-is-better metric is a guarantee
				// (alloc-free / byte-free steady state): any growth from
				// it is a gated regression, not a silent skip.
				if nv != 0 && !m.higherBetter {
					mark := ""
					if (gated["all"] || gated[m.key]) && rowRe.MatchString(name) {
						mark = "  REGRESSION"
						regressions = append(regressions, fmt.Sprintf("%s %s grew from a zero baseline to %.2f", name, m.label, nv))
					}
					fmt.Printf("%-55s %-10s %14.2f %14.2f %9s%s\n", name, m.label, ov, nv, "+inf", mark)
				}
				continue
			}
			delta := 100 * (nv - ov) / ov
			mark := ""
			regressed := (m.higherBetter && delta < -*threshold) || (!m.higherBetter && delta > *threshold)
			if regressed && (gated["all"] || gated[m.key]) && rowRe.MatchString(name) {
				mark = "  REGRESSION"
				regressions = append(regressions, fmt.Sprintf("%s %s %+.1f%% (threshold %.0f%%)", name, m.label, delta, *threshold))
			}
			fmt.Printf("%-55s %-10s %14.2f %14.2f %+8.1f%%%s\n", name, m.label, ov, nv, delta, mark)
		}
	}
	var gone []string
	for name := range base {
		if _, ok := cur[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		if goneRe != nil && goneRe.MatchString(name) {
			fmt.Printf("%-55s %-10s %14s %14s %9s\n", name, "-", "-", "(gone, ok)", "-")
			continue
		}
		fmt.Printf("%-55s %-10s %14s %14s %9s\n", name, "-", "-", "(gone)", "-")
		// A vanished benchmark whose baseline row carried a gated metric
		// would otherwise disable the gate silently (renamed b.Run names,
		// a changed -bench regex): treat it as a failure, not a skip.
		if !rowRe.MatchString(name) {
			continue
		}
		for _, m := range metrics {
			if _, ok := base[name][m.key]; ok && (gated["all"] || gated[m.key]) {
				regressions = append(regressions, fmt.Sprintf("%s %s missing from current run (baseline row has a gated metric)", name, m.label))
			}
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "\nbench_compare: %d regression(s) beyond %.0f%%:\n", len(regressions), *threshold)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
	fmt.Printf("\nno gated regressions beyond %.0f%% (gate: %s)\n", *threshold, *gate)
}
