package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Embedding maps integer token ids to d-dimensional vectors. The forward
// pass takes a slice of ids and returns an (len(ids)) x d matrix; gradients
// are scattered back into the table rows.
type Embedding struct {
	// Name labels the layer for parameter naming.
	Name string
	// Table is the vocab x d embedding matrix; GTable its gradient.
	Table, GTable *tensor.Matrix

	lastIDs []int
}

// NewEmbedding builds a vocab x d embedding table with N(0, 0.02²)
// initialization (BERT's initializer range).
func NewEmbedding(name string, vocab, d int, rng *tensor.RNG) *Embedding {
	return &Embedding{
		Name:   name,
		Table:  tensor.RandN(rng, vocab, d, 0.02),
		GTable: tensor.Zeros(vocab, d),
	}
}

// LookupInto gathers the embedding rows for ids into dst (shape
// len(ids) x d, fully overwritten) without allocating.
func (e *Embedding) LookupInto(dst *tensor.Matrix, ids []int) {
	e.checkLookup(dst, ids)
	for i, id := range ids {
		copy(dst.Row(i), e.Table.Row(id))
	}
	e.lastIDs = ids
}

// LookupAddInto adds the embedding rows for ids onto dst's rows — the
// fused form of a LookupInto into a temporary followed by dst.AddInPlace, used to sum token and
// position embeddings without a temporary.
func (e *Embedding) LookupAddInto(dst *tensor.Matrix, ids []int) {
	e.checkLookup(dst, ids)
	for i, id := range ids {
		drow := dst.Row(i)
		trow := e.Table.Row(id)
		for j, v := range trow {
			drow[j] += v
		}
	}
	e.lastIDs = ids
}

func (e *Embedding) checkLookup(dst *tensor.Matrix, ids []int) {
	if dst.Rows != len(ids) || dst.Cols != e.Table.Cols {
		panic(fmt.Sprintf("nn: Embedding %q dst shape %dx%d, want %dx%d",
			e.Name, dst.Rows, dst.Cols, len(ids), e.Table.Cols))
	}
	for _, id := range ids {
		if id < 0 || id >= e.Table.Rows {
			panic(fmt.Sprintf("nn: Embedding %q id %d out of range [0,%d)", e.Name, id, e.Table.Rows))
		}
	}
}

// BackwardIDs scatters grad rows back into the table gradient using the ids
// from the most recent LookupInto or LookupAddInto.
func (e *Embedding) BackwardIDs(grad *tensor.Matrix) {
	if e.lastIDs == nil {
		panic(fmt.Sprintf("nn: Embedding %q BackwardIDs before LookupInto", e.Name))
	}
	if grad.Rows != len(e.lastIDs) || grad.Cols != e.Table.Cols {
		panic(fmt.Sprintf("nn: Embedding %q grad shape %dx%d, want %dx%d",
			e.Name, grad.Rows, grad.Cols, len(e.lastIDs), e.Table.Cols))
	}
	for i, id := range e.lastIDs {
		grow := grad.Row(i)
		trow := e.GTable.Row(id)
		for j, v := range grow {
			trow[j] += v
		}
	}
}

// Params returns the embedding table parameter.
func (e *Embedding) Params() []*Param {
	return []*Param{{Name: e.Name + ".table", Value: e.Table, Grad: e.GTable}}
}
