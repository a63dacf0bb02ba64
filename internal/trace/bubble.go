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
// measure how much of the bubble budget the refresh actually absorbed, per
// device, so schedule changes (refresh rounds, overlapped windows) can be
// judged by utilization numbers instead of vibes.

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

// BubbleUtilization accounts every device over the whole timeline
// [0, Makespan].
func BubbleUtilization(tl *pipeline.Timeline) []BubbleUtil {
	out := make([]BubbleUtil, tl.Devices)
	for d := range out {
		u := BubbleUtil{Device: d}
		if tl.Makespan > 0 {
			var busy, refresh hardware.Microseconds
			for _, e := range tl.Events[d] {
				if e.Op.Kind.IsRefresh() {
					refresh += e.End - e.Start
				} else {
					busy += e.End - e.Start
				}
			}
			total := float64(tl.Makespan)
			u.Busy = float64(busy) / total
			u.RefreshFilled = float64(refresh) / total
			u.Idle = max(1-u.Busy-u.RefreshFilled, 0) // overlapping events (never produced by sim or engine) would over-count
		}
		out[d] = u
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
