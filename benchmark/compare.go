package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // spread wider than the bound (or unknown: one run a side): cannot be told apart
	verdictDiffers    = "differs"    // an exact count that does not repeat
	verdictTracked    = "-"          // per-layer, no bound: reported, not judged
)

// spreadOf is the run-to-run spread of one side as a share of its median:
// the inter-quartile range once there are enough runs for quartiles, the
// full range before that, 0 for a single run (nothing to resolve against).
func spreadOf(xs []float64) float64 {
	if len(xs) >= 4 {
		return iqrShare(xs)
	}
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if m := median(xs); m != 0 {
		return (hi - lo) / math.Abs(m)
	}
	return 0
}

// judge compares side b with its base a under a declared metric.
func judge(d metricDecl, a, b []float64, sameSeeds bool) string {
	if d.Exact && sameSeeds {
		for i := range a {
			if a[i] != b[i] {
				return verdictDiffers
			}
		}
		if d.Bound == 0 {
			return verdictOK
		}
	}
	if d.Bound == 0 {
		return verdictTracked
	}
	ma, mb := median(a), median(b)
	worse := mb > ma*(1+d.Bound) && mb-ma > d.Floor
	if d.Better == "higher" {
		worse = mb < ma*(1-d.Bound) && ma-mb > d.Floor
	}
	switch {
	case spreadOf(a) > d.Bound || spreadOf(b) > d.Bound:
		return verdictUnresolved
	case worse && (len(a) < 2 || len(b) < 2):
		return verdictUnresolved // one run a side: the spread is unknown, a timing cannot be called worse
	case worse:
		return verdictWorse
	}
	return verdictOK
}

type sideKey struct {
	workload string
	traced   bool
}

// bySeed orders a side's runs by seed so exact counts compare run by run.
func bySeed(f *resultsFile) map[sideKey][]*runResult {
	m := map[sideKey][]*runResult{}
	for _, r := range f.Runs {
		k := sideKey{r.Workload, r.Traced}
		m[k] = append(m[k], r)
	}
	for _, rs := range m {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return m
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := new(resultsFile)
	if err := json.Unmarshal(b, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints one row per (metric, workload): both medians, the
// ratio with its base, and the verdict under the benchmark's own bounds.
// It returns an error when a row is worse, an exact count differs, or a
// side has failed steps.
func compareFiles(w io.Writer, pathA, pathB string) error {
	fa, err := readResults(pathA)
	if err != nil {
		return err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return err
	}
	ra, rb := bySeed(fa), bySeed(fb)
	fmt.Fprintf(w, "# a (base) = %s   b = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-30s %-16s %14s %14s %20s %8s %8s  %s\n",
		"metric", "workload", "median a", "median b", "b/a", "spread a", "spread b", "verdict")
	var bad int
	rows := func(decls []metricDecl, traced bool) {
		for _, d := range decls {
			for _, wl := range workloads {
				k := sideKey{wl.name, traced}
				a, b := ra[k], rb[k]
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				sameSeeds := len(a) == len(b)
				for i := 0; sameSeeds && i < len(a); i++ {
					sameSeeds = a[i].Seed == b[i].Seed
				}
				va, vb := values(a, d.Name), values(b, d.Name)
				v := judge(d, va, vb, sameSeeds)
				if v == verdictWorse || v == verdictDiffers {
					bad++
				}
				ma, mb := median(va), median(vb)
				ratio := "n/a (base 0)"
				if ma != 0 {
					ratio = fmt.Sprintf("%.4f (base %.5g)", mb/ma, ma)
				}
				fmt.Fprintf(w, "%-30s %-16s %14.6g %14.6g %20s %7.1f%% %7.1f%%  %s\n",
					d.Name, wl.name, ma, mb, ratio, 100*spreadOf(va), 100*spreadOf(vb), v)
			}
		}
	}
	rows(endToEndMetrics, false)
	rows(perLayerMetrics, true)
	for _, side := range []struct {
		path string
		f    *resultsFile
	}{{pathA, fa}, {pathB, fb}} {
		var failed int
		for _, r := range side.f.Runs {
			failed += r.Failed
		}
		fmt.Fprintf(w, "# %s: steps_failed %d\n", side.path, failed)
		if failed > 0 {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse, differing or failed", bad)
	}
	return nil
}

func values(runs []*runResult, metric string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Metrics[metric].Value)
	}
	return out
}
