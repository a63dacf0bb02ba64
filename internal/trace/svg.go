package trace

import (
	"fmt"
	"io"

	"repro/internal/pipeline"
)

// RenderSVG writes the timeline as a standalone SVG Gantt chart: one row
// per device, one colored rectangle per event — a vector version of the
// paper's Figures 3 and 4 suitable for embedding in reports.
func RenderSVG(w io.Writer, tl *pipeline.Timeline, width int) error {
	if width <= 0 {
		width = 1000
	}
	const (
		rowHeight = 26
		rowGap    = 6
		leftPad   = 70
		topPad    = 34
	)
	if tl.Makespan == 0 {
		_, err := fmt.Fprint(w, `<svg xmlns="http://www.w3.org/2000/svg" width="200" height="40"><text x="4" y="20">(empty timeline)</text></svg>`)
		return err
	}
	height := topPad + tl.Devices*(rowHeight+rowGap) + 30
	scale := float64(width) / float64(tl.Makespan)
	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`,
		width+leftPad+10, height); err != nil {
		return err
	}
	fmt.Fprintf(w, `<text x="%d" y="18">%s [GPU util. %.1f%%]</text>`, leftPad, tl.Name, 100*tl.Utilization())
	for d := 0; d < tl.Devices; d++ {
		y := topPad + d*(rowHeight+rowGap)
		fmt.Fprintf(w, `<text x="4" y="%d">GPU %d</text>`, y+rowHeight-8, d+1)
		// Row background marks idle time.
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="#f0f0f0"/>`,
			leftPad, y, width, rowHeight)
		for _, e := range tl.Events[d] {
			x := leftPad + int(float64(e.Start)*scale)
			wPx := int(float64(e.End-e.Start) * scale)
			if wPx < 1 {
				wPx = 1
			}
			fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"><title>%s [%d,%d)us</title></rect>`,
				x, y, wPx, rowHeight, e.Op.Kind.Color(), e.Op.Kind, e.Start, e.End)
		}
	}
	// Step boundaries: one dashed vertical marker per step end, so the
	// round's internal step structure shows on multi-step timelines.
	if len(tl.StepEnd) > 1 {
		y0 := topPad - 4
		y1 := topPad + tl.Devices*(rowHeight+rowGap) - rowGap + 4
		for k, end := range tl.StepEnd {
			x := leftPad + int(float64(end)*scale)
			fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#555" stroke-dasharray="4,3"><title>end of step %d</title></line>`,
				x, y0, x, y1, k)
			fmt.Fprintf(w, `<text x="%d" y="%d" fill="#555">s%d</text>`, x-22, y0+10, k)
		}
	}
	// Legend.
	lx := leftPad
	ly := topPad + tl.Devices*(rowHeight+rowGap) + 6
	for _, k := range pipeline.Kinds() {
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="12" height="12" fill="%s"/>`, lx, ly, k.Color())
		fmt.Fprintf(w, `<text x="%d" y="%d">%s</text>`, lx+16, ly+11, k)
		lx += 16 + 9*len(k.String()) + 14
	}
	_, err := fmt.Fprint(w, `</svg>`)
	return err
}
