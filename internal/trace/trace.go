// Package trace renders simulated pipeline timelines in the style of the
// paper's Nsight profiles (Figures 1, 3 and 4): one row per device, colored
// (lettered) boxes per work kind, plus utilization summaries and CSV export
// for plotting.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// RenderASCII draws the timeline as one text row per device, width columns
// wide. Idle time renders as '.', work as the kind's glyph. Multi-step
// timelines (refresh rounds, multi-step simulations) get a ruler row with a
// vertical marker at every step boundary, so the round's internal step
// structure — and which step's bubbles hold which refresh work — reads off
// the trace directly. The output mirrors the layout of the paper's profile
// figures closely enough to eyeball bubble filling.
func RenderASCII(w io.Writer, tl *pipeline.Timeline, width int) error {
	if width <= 0 {
		width = 100
	}
	if tl.Makespan == 0 {
		_, err := fmt.Fprintln(w, "(empty timeline)")
		return err
	}
	scale := float64(width) / float64(tl.Makespan)
	par := ""
	if tl.Parallelism > 0 {
		par = fmt.Sprintf("  [intra-op: %d workers, %d/op]", tl.Parallelism, tl.OpParallelism)
	}
	if _, err := fmt.Fprintf(w, "%s  [GPU util. %.1f%%]%s\n", tl.Name, 100*tl.Utilization(), par); err != nil {
		return err
	}
	// Data-parallel timelines get replica lanes: each device row is
	// annotated with the replica it belongs to, so the W>1 topology — and
	// how collectives line up across a stage's replica group — reads off
	// the trace directly.
	replicated := false
	repOf := make([]int, tl.Devices)
	for d := 0; d < tl.Devices; d++ {
		for _, e := range tl.Events[d] {
			repOf[d] = e.Op.Replica
			if e.Op.Replica > 0 {
				replicated = true
			}
			break
		}
	}
	if len(tl.StepEnd) > 1 {
		ruler := make([]byte, width)
		for i := range ruler {
			ruler[i] = ' '
		}
		prev := 0
		for k, end := range tl.StepEnd {
			col := int(float64(end) * scale)
			if col >= width {
				col = width - 1
			}
			label := fmt.Sprintf("s%d", k)
			if col-prev > len(label) {
				copy(ruler[prev:], label)
			}
			ruler[col] = '|'
			prev = col + 1
		}
		prefix := "GPU 0  "
		if replicated {
			prefix = "GPU 0  r0 "
		}
		if _, err := fmt.Fprintf(w, "%-*s|%s|\n", len(prefix), "steps", ruler); err != nil {
			return err
		}
	}
	for d := 0; d < tl.Devices; d++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range tl.Events[d] {
			lo := int(float64(e.Start) * scale)
			hi := int(float64(e.End) * scale)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			ch := e.Op.Kind.Glyph()
			for i := lo; i < hi; i++ {
				row[i] = ch
			}
		}
		if replicated {
			if _, err := fmt.Fprintf(w, "GPU %-2d r%d |%s|\n", d+1, repOf[d], row); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "GPU %-2d |%s|\n", d+1, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "legend: F=forward B=backward R=recompute C=curvature I=inverse P=precondition g=sync-grad c=sync-curv o=opt D=degraded M=membership .=idle")
	return err
}

// WriteCSV exports the timeline events as CSV rows
// (device,kind,stage,replica,micro,step,generation,retries,membership,
// start_us,end_us,bytes_on_wire) for external plotting. Generation marks
// carried refresh ops of overlapped rounds; retries counts the failed
// attempts a fault-tolerant execution needed before the op succeeded (0 in
// simulated timelines and fault-free runs); membership is the elastic
// membership view the op ran under (0 until a rank failure or rejoin
// changes the group); bytes_on_wire is what the op's collective put on a
// wire transport (0 for compute ops, simulated timelines, and in-process
// collectives).
func WriteCSV(w io.Writer, tl *pipeline.Timeline) error {
	if _, err := fmt.Fprintln(w, "device,kind,stage,replica,micro_batch,step,generation,retries,membership,start_us,end_us,bytes_on_wire"); err != nil {
		return err
	}
	for d := 0; d < tl.Devices; d++ {
		for _, e := range tl.Events[d] {
			if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				d, e.Op.Kind, e.Op.Stage, e.Op.Replica, e.Op.MicroBatch, e.Op.Step, e.Op.Generation, e.Retries, e.Membership, e.Start, e.End, e.Bytes); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary aggregates per-kind busy time across a timeline.
type Summary struct {
	// Name echoes the timeline name.
	Name string
	// Utilization is busy/(devices*makespan).
	Utilization float64
	// Makespan is the timeline end.
	Makespan hardware.Microseconds
	// PerKind maps each work kind to its total device-time.
	PerKind map[pipeline.WorkKind]hardware.Microseconds
}

// Summarize computes a Summary for a timeline.
func Summarize(tl *pipeline.Timeline) Summary {
	s := Summary{
		Name:        tl.Name,
		Utilization: tl.Utilization(),
		Makespan:    tl.Makespan,
		PerKind:     make(map[pipeline.WorkKind]hardware.Microseconds),
	}
	for d := 0; d < tl.Devices; d++ {
		for _, e := range tl.Events[d] {
			s.PerKind[e.Op.Kind] += e.Duration()
		}
	}
	return s
}

// String renders the summary as a compact table.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: makespan %.1f ms, GPU util. %.1f%%\n", s.Name, float64(s.Makespan)/1000, 100*s.Utilization)
	kinds := make([]pipeline.WorkKind, 0, len(s.PerKind))
	for k := range s.PerKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-14s %10.1f ms\n", k.String(), float64(s.PerKind[k])/1000)
	}
	return b.String()
}
