package trace

import (
	"fmt"
	"io"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// This file implements bubble-utilization accounting: the quantitative
// counterpart of eyeballing a rendered timeline. PipeFisher's claim is that
// pipeline bubbles are free compute for the K-FAC refresh; these summaries
// measure how much of the bubble budget the refresh actually absorbed —
// per device, and per step of a refresh round — so schedule changes
// (refresh rounds, overlapped windows) can be judged by utilization
// numbers instead of vibes.

// BubbleUtil reports one device's time accounting over a window: Busy is
// the base training work (forward/backward/recompute, collectives, tails),
// RefreshFilled the K-FAC refresh work (curvature / inversion /
// sync-curvature) that executes in what would otherwise be bubble, and
// Idle the remaining bubble. The three fractions sum to 1 (of the window).
type BubbleUtil struct {
	Device        int
	Busy          float64
	RefreshFilled float64
	Idle          float64
}

// FilledFraction returns the share of the device's bubble budget (bubble =
// refresh-filled + idle, i.e. everything that is not base training work)
// absorbed by refresh work — the headline number for "how much idle time
// did the packing eliminate". 0 when the device has no bubble at all.
func (u BubbleUtil) FilledFraction() float64 {
	bubble := u.RefreshFilled + u.Idle
	if bubble <= 0 {
		return 0
	}
	return u.RefreshFilled / bubble
}

// bubbleOver accounts one device over [from, to).
func bubbleOver(tl *pipeline.Timeline, d int, from, to hardware.Microseconds) BubbleUtil {
	u := BubbleUtil{Device: d}
	if to <= from {
		return u
	}
	var busy, refresh hardware.Microseconds
	for _, e := range tl.Events[d] {
		s, en := e.Start, e.End
		if s < from {
			s = from
		}
		if en > to {
			en = to
		}
		if en <= s {
			continue
		}
		if e.Op.Kind.IsRefresh() {
			refresh += en - s
		} else {
			busy += en - s
		}
	}
	total := float64(to - from)
	u.Busy = float64(busy) / total
	u.RefreshFilled = float64(refresh) / total
	u.Idle = 1 - u.Busy - u.RefreshFilled
	if u.Idle < 0 {
		u.Idle = 0 // overlapping events (never produced by sim or engine) would over-count
	}
	return u
}

// BubbleUtilization accounts every device over the whole timeline
// [0, Makespan].
func BubbleUtilization(tl *pipeline.Timeline) []BubbleUtil {
	out := make([]BubbleUtil, tl.Devices)
	for d := 0; d < tl.Devices; d++ {
		out[d] = bubbleOver(tl, d, 0, tl.Makespan)
	}
	return out
}

// RenderBubbleSummary writes the per-device accounting as an ASCII table —
// busy / refresh-filled / idle fractions of each device's time plus the
// filled share of its bubble — with an all-device total row.
func RenderBubbleSummary(w io.Writer, tl *pipeline.Timeline) error {
	if tl.Makespan == 0 || tl.Devices == 0 {
		_, err := fmt.Fprintln(w, "(empty timeline)")
		return err
	}
	if _, err := fmt.Fprintf(w, "%s — bubble utilization\n", tl.Name); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "device   busy%   refresh%   idle%   bubble-filled%"); err != nil {
		return err
	}
	var tot BubbleUtil
	utils := BubbleUtilization(tl)
	for _, u := range utils {
		if _, err := fmt.Fprintf(w, "GPU %-3d %6.1f %9.1f %7.1f %12.1f\n",
			u.Device+1, 100*u.Busy, 100*u.RefreshFilled, 100*u.Idle, 100*u.FilledFraction()); err != nil {
			return err
		}
		tot.Busy += u.Busy
		tot.RefreshFilled += u.RefreshFilled
		tot.Idle += u.Idle
	}
	n := float64(len(utils))
	tot.Busy /= n
	tot.RefreshFilled /= n
	tot.Idle /= n
	_, err := fmt.Fprintf(w, "total   %6.1f %9.1f %7.1f %12.1f\n",
		100*tot.Busy, 100*tot.RefreshFilled, 100*tot.Idle, 100*tot.FilledFraction())
	return err
}

// WriteBubbleCSV exports the accounting as CSV with one row per (device,
// step) — step boundaries from the timeline's StepEnd, so refresh rounds
// break down per step of the window — followed by per-device "all" rows
// over the whole timeline. Columns are fractions of the row's window.
func WriteBubbleCSV(w io.Writer, tl *pipeline.Timeline) error {
	if _, err := fmt.Fprintln(w, "device,step,busy_frac,refresh_frac,idle_frac,bubble_filled_frac"); err != nil {
		return err
	}
	row := func(d int, step string, u BubbleUtil) error {
		_, err := fmt.Fprintf(w, "%d,%s,%.4f,%.4f,%.4f,%.4f\n",
			d, step, u.Busy, u.RefreshFilled, u.Idle, u.FilledFraction())
		return err
	}
	for d := 0; d < tl.Devices; d++ {
		var from hardware.Microseconds
		for k, end := range tl.StepEnd {
			if err := row(d, fmt.Sprint(k), bubbleOver(tl, d, from, end)); err != nil {
				return err
			}
			from = end
		}
		if err := row(d, "all", bubbleOver(tl, d, 0, tl.Makespan)); err != nil {
			return err
		}
	}
	return nil
}
