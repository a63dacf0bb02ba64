package trace

import (
	"strings"
	"testing"

	"repro/internal/pipeline"
)

func TestRenderSVG(t *testing.T) {
	tl := sampleTimeline(t)
	var sb strings.Builder
	if err := RenderSVG(&sb, tl, 800); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(out, "</svg>") {
		t.Fatal("output is not a complete SVG document")
	}
	// One label per device.
	for _, label := range []string{"GPU 1", "GPU 2", "GPU 3", "GPU 4"} {
		if !strings.Contains(out, label) {
			t.Fatalf("missing device label %q", label)
		}
	}
	if !strings.Contains(out, "GPU util.") {
		t.Fatal("missing utilization header")
	}
	// Forward and backward rectangles with their legend colors.
	if !strings.Contains(out, pipeline.Forward.Color()) ||
		!strings.Contains(out, pipeline.Backward.Color()) {
		t.Fatal("missing work rectangles")
	}
	// Tooltips carry timing metadata.
	if !strings.Contains(out, "<title>forward") {
		t.Fatal("missing event tooltips")
	}
}

func TestRenderSVGEmpty(t *testing.T) {
	var sb strings.Builder
	if err := RenderSVG(&sb, &pipeline.Timeline{Name: "x"}, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty timeline") {
		t.Fatal("empty timeline not handled")
	}
}
