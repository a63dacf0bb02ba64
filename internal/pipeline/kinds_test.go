package pipeline

import (
	"fmt"
	"testing"
)

// TestWorkKindTable pins the work-kind vocabulary row by row: names are
// parsed from fault specs and written to CSVs, letters, glyphs and colours
// are rendered output, and the flags decide packing, ordering and the
// degrade ladder, so changing any of them is a deliberate edit here too. It
// also holds the table total: every constant has a row, and no two kinds
// share a name, glyph or colour.
func TestWorkKindTable(t *testing.T) {
	want := []struct {
		kind                   WorkKind
		name                   string
		letter, glyph          byte
		color                  string
		refresh, tail, emitted bool
	}{
		{Forward, "forward", 'F', 'F', "#4c8bf5", false, false, true},
		{Backward, "backward", 'B', 'B', "#8ab4f8", false, false, true},
		{Curvature, "curvature", 'C', 'C', "#f5a623", true, false, true},
		{Inversion, "inverse", 'I', 'I', "#d0021b", true, false, true},
		{Precondition, "precondition", 'P', 'P', "#7ed321", false, true, true},
		{SyncGrad, "sync-grad", 'G', 'g', "#9b9b9b", false, true, true},
		{SyncCurvature, "sync-curvature", 'S', 'c', "#b8860b", true, false, true},
		{OptStep, "opt-step", 'O', 'o', "#4a4a4a", false, true, true},
		{Recompute, "recompute", 'R', 'R', "#bcd4fb", false, false, false},
		{Degraded, "degraded", 'D', 'D', "#c71585", false, false, false},
		{Membership, "membership", 'M', 'M', "#ff8c00", false, false, false},
	}
	if len(kinds) != int(Membership)+1 || len(want) != len(kinds) {
		t.Fatalf("table has %d rows, constants Forward..Membership are %d, pinned rows %d",
			len(kinds), int(Membership)+1, len(want))
	}
	if got := Kinds(); len(got) != len(want) {
		t.Fatalf("Kinds() = %v, want %d kinds", got, len(want))
	}
	for i, w := range want {
		k := Kinds()[i]
		if k != w.kind {
			t.Fatalf("Kinds()[%d] = %d, want %d (declaration order)", i, k, w.kind)
		}
		op := Op{Kind: k, Stage: 1, MicroBatch: 2}
		if got := k.String(); got != w.name {
			t.Errorf("%d: String() = %q, want %q", k, got, w.name)
		}
		if got, want := op.Label(), string(w.letter)+"[s1,m2]"; got != want {
			t.Errorf("%s: Label() = %q, want %q", k, got, want)
		}
		if k.Glyph() != w.glyph || k.Color() != w.color {
			t.Errorf("%s: glyph %q colour %s, want %q %s", k, k.Glyph(), k.Color(), w.glyph, w.color)
		}
		if k.IsRefresh() != w.refresh || k.IsTail() != w.tail || k.IsEmitted() != w.emitted {
			t.Errorf("%s: refresh/tail/emitted = %v/%v/%v, want %v/%v/%v", k,
				k.IsRefresh(), k.IsTail(), k.IsEmitted(), w.refresh, w.tail, w.emitted)
		}
	}
	names, glyphs, colors := map[string]WorkKind{}, map[byte]WorkKind{}, map[string]WorkKind{}
	for _, k := range Kinds() {
		r := kinds[k]
		if r.name == "" || r.letter == 0 || r.glyph == 0 || r.color == "" {
			t.Errorf("kind %d has an incomplete row %+v", k, r)
		}
		if o, dup := names[r.name]; dup {
			t.Errorf("kinds %d and %d share name %q", o, k, r.name)
		}
		if o, dup := glyphs[r.glyph]; dup {
			t.Errorf("kinds %s and %s share glyph %q", o, k, r.glyph)
		}
		if o, dup := colors[r.color]; dup {
			t.Errorf("kinds %s and %s share colour %s", o, k, r.color)
		}
		names[r.name], glyphs[r.glyph], colors[r.color] = k, k, k
	}
	// Values outside the table render as unknown instead of panicking.
	for _, k := range []WorkKind{-1, Membership + 1} {
		op := Op{Kind: k}
		if k.String() != fmt.Sprintf("WorkKind(%d)", int(k)) ||
			op.Label() != "?[s0,m0]" || k.Glyph() != '?' || k.Color() != "#000000" ||
			k.IsRefresh() || k.IsTail() || k.IsEmitted() {
			t.Errorf("out-of-table kind %d: %q %q %q %s", int(k), k, op.Label(), k.Glyph(), k.Color())
		}
	}
}
