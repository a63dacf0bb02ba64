package main

import (
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// spanCtx is what a decorator needs to attribute a span: the log, the arm
// it belongs to, and the id of the TrainRound span currently open on that
// arm (-1 between rounds: construction-time calls).
type spanCtx struct {
	log   *spanLog
	arm   string
	round atomic.Int64
}

func newSpanCtx(log *spanLog, arm string) *spanCtx {
	c := &spanCtx{log: log, arm: arm}
	c.round.Store(-1)
	return c
}

func (c *spanCtx) begin(name string) int { return c.log.begin(name, c.arm, int(c.round.Load())) }
func (c *spanCtx) end(id int)            { c.log.end(id) }

// tracedModel times the embedding and head paths of a pipemodel.Model from
// outside: the engine calls them through the interface, so wrapping the
// model is enough. Everything else delegates through the embedded Model.
type tracedModel struct {
	pipemodel.Model
	ctx *spanCtx
}

func (m *tracedModel) EmbedForward(mb *data.Batch) *tensor.Matrix {
	id := m.ctx.begin("bert.embed")
	defer m.ctx.end(id)
	return m.Model.EmbedForward(mb)
}

func (m *tracedModel) EmbedBackward(grad *tensor.Matrix) {
	id := m.ctx.begin("bert.embed")
	defer m.ctx.end(id)
	m.Model.EmbedBackward(grad)
}

func (m *tracedModel) HeadLoss(mb *data.Batch, y *tensor.Matrix, t pipemodel.Totals) (pipemodel.Loss, error) {
	id := m.ctx.begin("bert.head")
	defer m.ctx.end(id)
	return m.Model.HeadLoss(mb, y, t)
}

func (m *tracedModel) HeadGradient(mb *data.Batch, y *tensor.Matrix, t pipemodel.Totals) (*tensor.Matrix, error) {
	id := m.ctx.begin("bert.head")
	defer m.ctx.end(id)
	return m.Model.HeadGradient(mb, y, t)
}

// Replicate keeps data-parallel replicas inside the trace: a bare copy
// would silently drop their embed/head time from the per-step totals.
func (m *tracedModel) Replicate() (pipemodel.Model, error) {
	r, err := m.Model.Replicate()
	if err != nil {
		return nil, err
	}
	return &tracedModel{Model: r, ctx: m.ctx}, nil
}

// tracedRing counts and times one rank's collectives. It embeds the ring,
// so the optional interfaces the engine discovers by type assertion —
// View, RankStats, ObserveRoundDuration — are still promoted.
type tracedRing struct {
	*transport.Ring
	ctx    *spanCtx
	bytes  atomic.Int64
	failed atomic.Int64
}

func (g *tracedRing) record(id int, n int64, err error) {
	g.ctx.end(id)
	g.bytes.Add(n)
	if err != nil {
		g.failed.Add(1)
	}
}

func (g *tracedRing) AllReduce(name string, dst, base []float64, parts [][]float64) (int64, error) {
	id := g.ctx.begin("transport.collective")
	n, err := g.Ring.AllReduce(name, dst, base, parts)
	g.record(id, n, err)
	return n, err
}

func (g *tracedRing) ReduceScatter(name string, dst, base []float64, parts [][]float64) (int64, error) {
	id := g.ctx.begin("transport.collective")
	n, err := g.Ring.ReduceScatter(name, dst, base, parts)
	g.record(id, n, err)
	return n, err
}

func (g *tracedRing) AllGather(name string, buf []float64) (int64, error) {
	id := g.ctx.begin("transport.collective")
	n, err := g.Ring.AllGather(name, buf)
	g.record(id, n, err)
	return n, err
}

func (g *tracedRing) Broadcast(name string, root int, buf []float64) (int64, error) {
	id := g.ctx.begin("transport.collective")
	n, err := g.Ring.Broadcast(name, root, buf)
	g.record(id, n, err)
	return n, err
}
