package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer (or that a layer,
// through a decorator, made back out): recorded from the benchmark's own
// files only, kept in memory, aggregated when the traced run ends.
type span struct {
	Name   string
	Arm    string
	ID     int
	Parent int   // -1: no parent
	Start  int64 // ns since the log's epoch
	End    int64
}

// spanLog collects spans from any goroutine (device goroutines call the
// model and transport decorators concurrently).
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (l *spanLog) begin(name, arm string, parent int) int {
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Arm: arm, ID: id, Parent: parent, Start: now, End: now})
	l.mu.Unlock()
	return id
}

func (l *spanLog) end(id int) {
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// reset drops everything recorded so far (set-up's spans are not part of
// the measured steps). No span may be open.
func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans = l.spans[:0]
	l.mu.Unlock()
}

// total returns the summed duration and the count of an arm's spans of one
// name.
func (l *spanLog) total(name, arm string) (time.Duration, int) {
	var d time.Duration
	var n int
	for _, s := range l.spans {
		if s.Name == name && s.Arm == arm {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	return d, n
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (two device goroutines inside one round), so the covered part is the
// measure of the union of their intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered int64
		cur := s.Start // everything before cur is already accounted
		for _, iv := range ivs {
			lo, hi := iv[0], iv[1]
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfTotal returns the summed self time of an arm's spans of one name.
func (l *spanLog) selfTotal(name, arm string) time.Duration {
	self := selfTimes(l.spans)
	var d time.Duration
	for i, s := range l.spans {
		if s.Name == name && s.Arm == arm {
			d += self[i]
		}
	}
	return d
}
