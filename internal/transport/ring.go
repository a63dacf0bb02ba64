package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// DefaultChunkFloats is the default pipelining granularity of the ring
// transport: collectives are cut into chunks of this many float64 values,
// so while one rank folds chunk c its neighbor is already receiving chunk
// c+1 — the link/fold overlap that makes the chunked chain all-reduce beat
// a single-message exchange.
const DefaultChunkFloats = 8192

// Liveness defaults. A heartbeat every 500ms against a 10s wire deadline
// gives ~20 missed beats of slack — far above scheduler jitter, far below
// the "hung forever" a dead peer used to cost.
const (
	DefaultHeartbeatInterval = 500 * time.Millisecond
	DefaultWireTimeout       = 10 * time.Second
)

// RingOptions configures DialRing.
type RingOptions struct {
	// ChunkFloats is the pipelining chunk size in float64 elements
	// (DefaultChunkFloats when <= 0). A value at least as large as every
	// collective disables pipelining — the un-chunked single-message mode
	// the benchmarks compare against.
	ChunkFloats int
	// DialTimeout bounds how long DialRing retries connecting to the next
	// rank (10s when 0) — group members start in arbitrary order. The same
	// deadline bounds the accept and hello exchange, so a group that never
	// fully forms fails fast with an attributed error.
	DialTimeout time.Duration
	// HeartbeatInterval is the period of the liveness heartbeat each rank
	// sends to its next neighbor (DefaultHeartbeatInterval when 0; negative
	// disables heartbeats and with them the read-side wire deadline).
	// Heartbeats are forwarded around the ring, so every rank sees every
	// peer's liveness and self-reported round pace.
	HeartbeatInterval time.Duration
	// WireTimeout bounds every wire operation (DefaultWireTimeout when 0;
	// negative disables). Writes always carry it; reads carry it only while
	// heartbeats are enabled (heartbeat traffic is what guarantees a healthy
	// idle link still delivers bytes before the deadline). It is clamped to
	// at least 4x the heartbeat interval.
	WireTimeout time.Duration
	// CollectiveTimeout bounds how long a collective waits for any single
	// frame (0 disables). Unlike WireTimeout it fires even when the peer
	// process is alive but stuck — the frame simply never arrives — and the
	// resulting RankFailure is attributed to the rank with the stalest
	// heartbeat.
	CollectiveTimeout time.Duration
	// View is the membership view number this ring is formed under. The
	// hello exchange validates that all members agree — a rank rejoining
	// with a stale view fails the handshake instead of silently joining a
	// differently-shaped group. Ring.View reports it.
	View int64
}

// Ring is one rank of a socket ring group. Collectives run as chunked
// chain operations over the ring's directed links (rank r sends only to
// r+1 mod W and receives only from r-1 mod W):
//
//   - Reduce pass: for each chunk, rank 0 folds base + its own parts
//     (ascending) and sends the partial to rank 1; every following rank
//     adds its own parts in ascending order and passes the partial on.
//     Rank W-1 completes the chunk — having folded base, then every
//     rank's parts in ascending (rank, part) order, the package's fold
//     contract realized on a wire.
//   - Distribution pass: the completed chunk continues around the ring
//     (W-1 -> 0 -> 1 -> ... -> W-2), each rank copying it into dst.
//
// Chunks pipeline through both passes: in steady state every link carries
// a different chunk while every rank folds another, which is where the
// chunked mode's speedup over one monolithic message comes from.
//
// Frames are demultiplexed by collective name into per-name FIFO queues,
// so collectives with different names may run concurrently from different
// goroutines (the engine folds different pipeline stages in parallel).
// Frames carry the sender's round epoch: BeginRound advances it and stale
// frames — stragglers of an aborted, replayed round — are discarded on
// dequeue instead of corrupting the replay.
type Ring struct {
	rank, size int
	chunk      int
	view       int64

	hbInterval  time.Duration // <= 0: heartbeats off
	wireTimeout time.Duration // <= 0: wire deadlines off
	collTimeout time.Duration // <= 0: collective frame waits unbounded

	next     net.Conn
	prev     net.Conn
	wmu      sync.Mutex // serializes frames onto next
	wbuf     *bufio.Writer
	wscr     []byte    // frame-encoding scratch, guarded by wmu
	wdeadArm time.Time // next write-deadline re-arm point, guarded by wmu
	bytes    atomic.Int64
	epoch    atomic.Int64

	// closing is set (before any connection teardown) the moment Close
	// starts. Writers check it so a best-effort send racing Close — an
	// Abort's poison frame, a heartbeat tick — declines silently instead of
	// surfacing the teardown as a spurious peer failure.
	closing atomic.Bool
	stopC   chan struct{} // closed by Close; stops the liveness goroutines

	roundUS atomic.Uint32 // this rank's last round wall time (µs), carried in heartbeats

	mu         sync.Mutex
	cond       *sync.Cond
	queues     map[string][]*frame
	aborted    error // non-nil: collectives of abortEpoch fail
	abortEpoch int64
	readErr    error        // reader terminated (protocol error/local close)
	failure    error        // sticky *RankFailure: a peer is believed dead
	health     []rankHealth // per-rank liveness from forwarded heartbeats
	closed     bool

	hbSend frame // heartbeat encode scratch, owned by the heartbeat goroutine
	hbRecv frame // heartbeat decode scratch, owned by the reader goroutine

	// Receive-path reuse: rscr is the reader's decode scratch and names
	// interns collective names (both owned by the single reader goroutine);
	// payloads recycles decoded frame payloads — the reader draws decode
	// targets from it and the collective loops return them once copied out —
	// so steady-state chunk traffic does not allocate.
	rscr     []byte
	names    map[string]string
	payloads [payloadClasses]sync.Pool

	onClose func() // optional cleanup hook (NewLocalRing temp dir)
}

// payloadClasses bounds the payload size classes: readFrame rejects frames
// of more than 1<<28 floats.
const payloadClasses = 29

// getPayload returns a recycled payload buffer of length n, or a fresh one.
// Buffers are pooled by power-of-two capacity: a batch keeps payloads of
// many sizes in flight at once, and one mixed pool would hand a large frame
// a small buffer and allocate more often than not.
func (r *Ring) getPayload(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if v, _ := r.payloads[c].Get().(*[]float64); v != nil {
		return (*v)[:n]
	}
	return make([]float64, n, 1<<c)
}

// putPayload returns a consumed frame's payload to the recycle pool.
func (r *Ring) putPayload(p []float64) {
	if cap(p) == 0 {
		return
	}
	p = p[:0]
	r.payloads[bits.Len(uint(cap(p)))-1].Put(&p)
}

// Frame kinds on the wire.
const (
	frameHello byte = iota
	frameData
	frameAbort
	// frameHeartbeat is a periodic liveness beacon: origin is the sender,
	// epoch its current round epoch, chunk its last round's wall time in
	// microseconds. Heartbeats are consumed inline by the reader (never
	// queued) and forwarded around the ring, and both directions reuse
	// Ring-owned scratch frames — liveness costs zero allocations.
	frameHeartbeat
	// frameFailure announces a dead peer: chunk carries the failed rank,
	// reason what the detector observed. It propagates around the ring like
	// an abort so every survivor's collectives fail with the attributed
	// rank instead of a cascade of secondary timeouts.
	frameFailure
)

// Data-frame passes (assertion only; arrival order already disambiguates).
const (
	passReduce byte = iota
	passFinal
	passGather
	passBcast
)

type frame struct {
	kind    byte
	origin  byte // sender rank (abort/hello/heartbeat/failure) or shard owner (all-gather)
	pass    byte
	epoch   int64
	chunk   uint32 // chunk index (data), group size (hello), round µs (heartbeat), dead rank (failure)
	name    string
	payload []float64
	reason  string // abort/failure frames
}

// rankHealth is one peer's liveness as last heard via heartbeat.
type rankHealth struct {
	last   time.Time // when the last heartbeat arrived (zero: never)
	epoch  int64     // the peer's round epoch at that heartbeat
	micros uint32    // the peer's self-reported last round wall time (µs)
}

var errClosed = errors.New("transport: ring closed")

// DialRing joins a ring group: addrs lists one listen address per rank
// ("unix:/path/sock" or "tcp:host:port"), and rank selects this member's.
// Each rank listens on its own address, dials the next rank's (with retry
// — members start in arbitrary order), and accepts the previous rank's
// connection; a hello exchange validates the wiring and the membership
// view. Every step — dial, accept, hello — is bounded by DialTimeout, so a
// group that never fully forms fails fast with an attributed error instead
// of hanging. The group needs at least 2 ranks (use Loopback for 1).
func DialRing(addrs []string, rank int, opts RingOptions) (*Ring, error) {
	if len(addrs) < 2 {
		return nil, fmt.Errorf("transport: ring needs at least 2 ranks, got %d (use Loopback for 1)", len(addrs))
	}
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("transport: rank %d out of range for %d addresses", rank, len(addrs))
	}
	chunk := opts.ChunkFloats
	if chunk <= 0 {
		chunk = DefaultChunkFloats
	}
	timeout := opts.DialTimeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	hb := opts.HeartbeatInterval
	if hb == 0 {
		hb = DefaultHeartbeatInterval
	}
	wire := opts.WireTimeout
	if wire == 0 {
		wire = DefaultWireTimeout
	}
	if wire > 0 && hb > 0 && wire < 4*hb {
		wire = 4 * hb // a deadline tighter than a few beats is all false positives
	}
	network, addr, err := splitAddr(addrs[rank])
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d listen %s: %w", rank, addrs[rank], err)
	}
	defer ln.Close()
	next, err := dialRetry(addrs[(rank+1)%len(addrs)], timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d dialing next rank: %w", rank, err)
	}
	// Bound the accept with the listener's own deadline — both net.TCPListener
	// and net.UnixListener implement SetDeadline.
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		_ = d.SetDeadline(time.Now().Add(timeout))
	}
	wantPrev := (rank - 1 + len(addrs)) % len(addrs)
	prev, err := ln.Accept()
	if err != nil {
		next.Close()
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, fmt.Errorf("transport: rank %d timed out after %v waiting for rank %d to connect on %s (group never fully formed)",
				rank, timeout, wantPrev, addrs[rank])
		}
		return nil, fmt.Errorf("transport: rank %d accepting previous rank: %w", rank, err)
	}
	r := &Ring{
		rank: rank, size: len(addrs), chunk: chunk,
		view: opts.View, hbInterval: hb, wireTimeout: wire, collTimeout: opts.CollectiveTimeout,
		next: next, prev: prev,
		wbuf:   bufio.NewWriterSize(next, 64*1024),
		queues: make(map[string][]*frame),
		names:  make(map[string]string),
		health: make([]rankHealth, len(addrs)),
		stopC:  make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	// Hello handshake: tell the next rank who we are and which membership
	// view we joined under, check the previous rank agrees — a miswired
	// -group spec or a stale rejoin fails here with an attributed error
	// instead of a hung or cross-view collective. The exchange itself runs
	// under the dial deadline: a peer that connects but never speaks must
	// not hang the group either.
	_ = next.SetWriteDeadline(time.Now().Add(timeout))
	_ = prev.SetReadDeadline(time.Now().Add(timeout))
	if err := r.sendFrame(&frame{kind: frameHello, origin: byte(rank), epoch: opts.View, chunk: uint32(len(addrs))}); err != nil {
		r.closeConns()
		return nil, fmt.Errorf("transport: rank %d sending hello: %w", rank, err)
	}
	br := bufio.NewReaderSize(prev, 64*1024)
	hello, err := r.readFrame(br)
	if err != nil {
		r.closeConns()
		if ne, ok := errAs[net.Error](err); ok && ne.Timeout() {
			return nil, fmt.Errorf("transport: rank %d timed out after %v waiting for rank %d's hello on %s (peer connected but never spoke)",
				rank, timeout, wantPrev, addrs[rank])
		}
		return nil, fmt.Errorf("transport: rank %d reading hello: %w", rank, err)
	}
	if hello.kind != frameHello || int(hello.origin) != wantPrev || int(hello.chunk) != len(addrs) {
		r.closeConns()
		return nil, fmt.Errorf("transport: rank %d miswired ring: hello from rank %d size %d, want rank %d size %d",
			rank, hello.origin, hello.chunk, wantPrev, len(addrs))
	}
	if hello.epoch != opts.View {
		r.closeConns()
		return nil, fmt.Errorf("transport: rank %d membership view mismatch: rank %d is at view %d, this rank at view %d",
			rank, wantPrev, hello.epoch, opts.View)
	}
	// Handshake deadlines off; steady-state wire deadlines are re-armed
	// per operation by sendFrame and readLoop.
	_ = next.SetWriteDeadline(time.Time{})
	_ = prev.SetReadDeadline(time.Time{})
	r.wdeadArm = time.Time{}
	go r.readLoop(br)
	if r.hbInterval > 0 {
		go r.heartbeatLoop()
	}
	if r.collTimeout > 0 {
		go r.timeoutLoop()
	}
	return r, nil
}

// errAs is errors.As for interface targets.
func errAs[T any](err error) (T, bool) {
	var t T
	ok := errors.As(err, &t)
	return t, ok
}

func splitAddr(spec string) (network, addr string, err error) {
	switch {
	case strings.HasPrefix(spec, "unix:"):
		return "unix", spec[len("unix:"):], nil
	case strings.HasPrefix(spec, "tcp:"):
		return "tcp", spec[len("tcp:"):], nil
	}
	return "", "", fmt.Errorf("transport: address %q must be unix:PATH or tcp:HOST:PORT", spec)
}

func dialRetry(spec string, timeout time.Duration) (net.Conn, error) {
	network, addr, err := splitAddr(spec)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout(network, addr, timeout)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial %s: %w", spec, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Rank returns this member's index.
func (r *Ring) Rank() int { return r.rank }

// Size returns the group size.
func (r *Ring) Size() int { return r.size }

// BytesOnWire returns the bytes this rank has sent.
func (r *Ring) BytesOnWire() int64 { return r.bytes.Load() }

// BeginRound advances the epoch and clears any abort from earlier epochs.
func (r *Ring) BeginRound() {
	e := r.epoch.Add(1)
	r.mu.Lock()
	if r.aborted != nil && r.abortEpoch < e {
		r.aborted = nil
	}
	r.mu.Unlock()
}

// Abort poisons the current epoch locally and sends an abort frame around
// the ring so every peer's blocked collectives fail promptly too.
func (r *Ring) Abort(reason error) {
	if reason == nil {
		reason = errors.New("aborted")
	}
	e := r.epoch.Load()
	r.mu.Lock()
	if r.aborted == nil || r.abortEpoch < e {
		r.aborted = fmt.Errorf("transport: rank %d aborted: %w", r.rank, reason)
		r.abortEpoch = e
	}
	r.mu.Unlock()
	r.cond.Broadcast()
	// Best-effort: a concurrently closed ring cannot deliver the abort.
	// sendFrame checks the closing flag under the writer lock, so this
	// races Close's connection teardown safely and silently.
	_ = r.sendFrame(&frame{kind: frameAbort, origin: byte(r.rank), epoch: e, reason: reason.Error()})
}

// Close shuts the ring's connections down. In-flight collectives fail. The
// closing flag is raised before any teardown so concurrent best-effort
// sends (Abort, heartbeats) decline silently instead of misreading their
// own ring's teardown as a peer failure.
func (r *Ring) Close() error {
	if r.closing.Swap(true) {
		return nil
	}
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
	close(r.stopC)
	err1 := r.next.Close()
	err2 := r.prev.Close()
	if r.onClose != nil {
		r.onClose()
	}
	if err1 != nil {
		return err1
	}
	return err2
}

func (r *Ring) closeConns() {
	r.next.Close()
	r.prev.Close()
}

// readLoop demultiplexes incoming frames into per-name queues and handles
// abort, heartbeat, and failure propagation. It exits on connection close
// or a protocol error, failing every blocked collective; a dead previous
// rank (EOF, reset, or wire-deadline expiry) is recorded as a RankFailure
// and announced around the ring.
func (r *Ring) readLoop(br *bufio.Reader) {
	prevRank := (r.rank - 1 + r.size) % r.size
	// Read-side wire deadline: only sound while heartbeats guarantee the
	// link carries traffic at least every interval. Re-armed at half-life
	// rather than per frame to keep the hot path to one time.Now call.
	armReads := r.wireTimeout > 0 && r.hbInterval > 0
	var rearm time.Time
	for {
		if armReads {
			if now := time.Now(); now.After(rearm) {
				_ = r.prev.SetReadDeadline(now.Add(r.wireTimeout))
				rearm = now.Add(r.wireTimeout / 2)
			}
		}
		f, err := r.readFrame(br)
		if err != nil {
			var rf *RankFailure
			var re error
			switch ne, isNet := errAs[net.Error](err); {
			case r.closing.Load():
				re = errClosed // our own teardown, not a peer failure
			case isNet && ne.Timeout():
				rf = &RankFailure{Rank: prevRank, Cause: fmt.Errorf(
					"rank %d heard nothing from rank %d for %v (wire deadline)", r.rank, prevRank, r.wireTimeout)}
			case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET):
				rf = &RankFailure{Rank: prevRank, Cause: fmt.Errorf(
					"rank %d lost the connection from rank %d: %v", r.rank, prevRank, err)}
			default:
				re = fmt.Errorf("transport: rank %d reader: %w", r.rank, err)
			}
			r.mu.Lock()
			if rf != nil {
				if r.failure == nil {
					r.failure = rf
				}
			} else if r.readErr == nil {
				r.readErr = re
			}
			r.mu.Unlock()
			r.cond.Broadcast()
			if rf != nil {
				// Announce the failure around the ring so every survivor's
				// collectives fail with the attributed rank, not a cascade
				// of secondary timeouts.
				_ = r.sendFrame(&frame{kind: frameFailure, origin: byte(r.rank), chunk: uint32(rf.Rank), reason: rf.Cause.Error()})
			}
			return
		}
		switch f.kind {
		case frameData:
			r.mu.Lock()
			r.queues[f.name] = append(r.queues[f.name], f)
			r.mu.Unlock()
			r.cond.Broadcast()
		case frameAbort:
			r.mu.Lock()
			if r.aborted == nil || r.abortEpoch < f.epoch {
				r.aborted = fmt.Errorf("transport: aborted by rank %d: %s", f.origin, f.reason)
				r.abortEpoch = f.epoch
			}
			r.mu.Unlock()
			r.cond.Broadcast()
			// Forward around the ring until the frame would return to its
			// originator.
			if int(f.origin) != (r.rank+1)%r.size {
				_ = r.sendFrame(f)
			}
		case frameHeartbeat:
			// f is the reader-owned hbRecv scratch: record liveness and
			// forward before the next readFrame overwrites it (sendFrame
			// serializes synchronously, so the reuse is safe).
			r.mu.Lock()
			if int(f.origin) < len(r.health) && int(f.origin) != r.rank {
				h := &r.health[f.origin]
				h.last = time.Now()
				h.epoch = f.epoch
				h.micros = f.chunk
			}
			r.mu.Unlock()
			if int(f.origin) != (r.rank+1)%r.size && int(f.origin) != r.rank {
				_ = r.sendFrame(f)
			}
		case frameFailure:
			r.mu.Lock()
			if r.failure == nil {
				r.failure = &RankFailure{Rank: int(f.chunk), Cause: fmt.Errorf(
					"rank %d reported: %s", f.origin, f.reason)}
			}
			r.mu.Unlock()
			r.cond.Broadcast()
			if int(f.origin) != (r.rank+1)%r.size {
				_ = r.sendFrame(f)
			}
		default:
			r.mu.Lock()
			r.readErr = fmt.Errorf("transport: rank %d unexpected frame kind %d", r.rank, f.kind)
			r.mu.Unlock()
			r.cond.Broadcast()
			return
		}
	}
}

// pop dequeues the next frame for name at the given epoch, discarding
// stale frames from earlier epochs (aborted-round stragglers) and failing
// fast on rank failure, abort, reader death, close, or — when a collective
// timeout is configured — on waiting too long for a frame that will never
// arrive.
func (r *Ring) pop(name string, epoch int64) (*frame, error) {
	var deadline time.Time
	if r.collTimeout > 0 {
		deadline = time.Now().Add(r.collTimeout)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		q := r.queues[name]
		for len(q) > 0 && q[0].epoch < epoch {
			r.putPayload(q[0].payload) // aborted-round straggler
			q = q[1:]
		}
		r.queues[name] = q
		// Frames that already arrived are served before any failure check: a
		// dead peer fails only collectives still missing data on the wire.
		// A rank that finished its sends and died (or closed during
		// teardown) must not poison a round whose frames fully landed — the
		// survivors' last committed step would otherwise depend on how fast
		// each rank drained its queue.
		if len(q) > 0 && q[0].epoch == epoch {
			r.queues[name] = q[1:]
			return q[0], nil
		}
		// A rank failure is sticky and poisons every epoch, the pre-round
		// epoch 0 included: the missing frame can never arrive on a ring
		// with a dead member, and the caller must regroup, not replay.
		if r.failure != nil {
			return nil, r.failure
		}
		if len(q) > 0 { // q[0].epoch > epoch
			return nil, fmt.Errorf("transport: rank %d received %q frame from future epoch %d (local %d)",
				r.rank, name, q[0].epoch, epoch)
		}
		// An abort poisons its own epoch and every earlier *round* epoch,
		// but never the pre-round epoch 0: initialization collectives
		// (parameter broadcast, startup barrier) are fully sent before any
		// rank can start a round, so a faster rank's round abort must not
		// fail a slower rank still joining.
		if r.aborted != nil && r.abortEpoch >= epoch && epoch > 0 {
			return nil, r.aborted
		}
		if r.closed {
			return nil, errClosed
		}
		if r.readErr != nil {
			return nil, r.readErr
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			// The frame never came although the connection is healthy: a
			// peer process is alive but stuck. Attribute the failure to the
			// rank with the stalest heartbeat — the best liveness signal we
			// have — and record it sticky so every other collective on this
			// ring fails the same way.
			rf := &RankFailure{Rank: r.suspectLocked(), Cause: fmt.Errorf(
				"rank %d waited %v for a %q frame (collective timeout)", r.rank, r.collTimeout, name)}
			r.failure = rf
			return nil, rf
		}
		r.cond.Wait()
	}
}

// suspectLocked picks the rank with the stalest heartbeat (r.mu held).
// Returns -1 when heartbeats are off — there is nothing to attribute with.
func (r *Ring) suspectLocked() int {
	if r.hbInterval <= 0 {
		return -1
	}
	suspect, oldest := -1, time.Time{}
	for i := range r.health {
		if i == r.rank {
			continue
		}
		if suspect < 0 || r.health[i].last.Before(oldest) {
			suspect, oldest = i, r.health[i].last
		}
	}
	return suspect
}

// abortErr returns the poisoning error if the given epoch is aborted (see
// pop for the epoch-0 exemption) or a rank failure is recorded (which
// poisons every epoch).
func (r *Ring) abortErr(epoch int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failure != nil {
		return r.failure
	}
	if r.aborted != nil && r.abortEpoch >= epoch && epoch > 0 {
		return r.aborted
	}
	return nil
}

// sendData writes one data frame to the next rank and returns its wire
// size.
func (r *Ring) sendData(name string, pass byte, origin byte, epoch int64, chunk uint32, payload []float64) (int64, error) {
	f := &frame{kind: frameData, origin: origin, pass: pass, epoch: epoch, chunk: chunk, name: name, payload: payload}
	if err := r.sendFrame(f); err != nil {
		return 0, err
	}
	return frameWireSize(f), nil
}

// expect dequeues a data frame and validates its identity — any mismatch
// is a protocol bug surfaced as an attributed error, not silent corruption.
func (r *Ring) expect(name string, epoch int64, pass byte, chunk uint32, n int) (*frame, error) {
	f, err := r.pop(name, epoch)
	if err != nil {
		return nil, err
	}
	if f.pass != pass || f.chunk != chunk || len(f.payload) != n {
		return nil, fmt.Errorf("transport: rank %d %q frame mismatch: got pass %d chunk %d len %d, want pass %d chunk %d len %d",
			r.rank, name, f.pass, f.chunk, len(f.payload), pass, chunk, n)
	}
	return f, nil
}

// AllReduce implements the chunked chain all-reduce described on Ring.
func (r *Ring) AllReduce(name string, dst, base []float64, parts [][]float64) (int64, error) {
	one := [1]Reduction{{Name: name, Dst: dst, Base: base, Parts: parts}}
	return r.AllReduceBatch(one[:])
}

// AllReduceBatch runs the reduce pass of every reduction before the first
// distribution pass. The frames, their order per name and the arithmetic
// are those of one AllReduce call each; what changes is the waiting. Called
// one at a time, reduction k+1 cannot start on rank 0 before reduction k's
// result has come back around the ring; batched, rank 0 streams every
// partial without waiting, the following ranks fold them as they arrive,
// and the whole batch pays the ring's round-trip latency once. The readers
// queue frames by name however early they arrive, so no rank can block
// another.
func (r *Ring) AllReduceBatch(rs []Reduction) (int64, error) {
	for i := range rs {
		if err := checkReduceArgs(rs[i].Dst, rs[i].Base, rs[i].Parts); err != nil {
			return 0, err
		}
	}
	epoch := r.epoch.Load()
	if err := r.abortErr(epoch); err != nil {
		return 0, err
	}
	var sent int64
	for i := range rs {
		nb, err := r.reducePass(&rs[i], epoch)
		sent += nb
		if err != nil {
			return sent, err
		}
	}
	if r.rank == r.size-1 {
		return sent, nil // every dst completed during its reduce pass
	}
	for i := range rs {
		nb, err := r.distributePass(rs[i].Name, rs[i].Dst, epoch)
		sent += nb
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// reducePass: partials flow rank 0 -> 1 -> ... -> W-1, each rank folding
// its own parts in ascending order. Rank W-1 owns the completed chunk and
// starts the distribution pass.
func (r *Ring) reducePass(op *Reduction, epoch int64) (int64, error) {
	dst, n := op.Dst, len(op.Dst)
	var sent int64
	last := r.rank == r.size-1
	for lo, idx := 0, uint32(0); lo < n || n == 0; lo, idx = lo+r.chunk, idx+1 {
		hi := lo + r.chunk
		if hi > n {
			hi = n
		}
		pass, origin := passReduce, byte(r.rank)
		if r.rank == 0 {
			foldInto(dst, op.Base, op.Parts, lo, hi)
		} else {
			f, err := r.expect(op.Name, epoch, passReduce, idx, hi-lo)
			if err != nil {
				return sent, err
			}
			copy(dst[lo:hi], f.payload)
			addParts(dst, op.Parts, lo, hi)
			r.putPayload(f.payload)
			if last {
				pass = passFinal // chunk complete; start the distribution pass
			}
		}
		nb, err := r.sendData(op.Name, pass, origin, epoch, idx, dst[lo:hi])
		if err != nil {
			return sent, err
		}
		sent += nb
		if n == 0 {
			break
		}
	}
	return sent, nil
}

// distributePass: completed chunks flow W-1 -> 0 -> ... -> W-2; every rank
// but W-1 copies them into dst and forwards until the rank before the
// originator.
func (r *Ring) distributePass(name string, dst []float64, epoch int64) (int64, error) {
	n := len(dst)
	var sent int64
	forward := r.rank != r.size-2
	for lo, idx := 0, uint32(0); lo < n || n == 0; lo, idx = lo+r.chunk, idx+1 {
		hi := lo + r.chunk
		if hi > n {
			hi = n
		}
		f, err := r.expect(name, epoch, passFinal, idx, hi-lo)
		if err != nil {
			return sent, err
		}
		copy(dst[lo:hi], f.payload)
		if forward {
			nb, err := r.sendData(name, passFinal, f.origin, epoch, idx, f.payload)
			if err != nil {
				return sent, err
			}
			sent += nb
		}
		r.putPayload(f.payload)
		if n == 0 {
			break
		}
	}
	return sent, nil
}

// ReduceScatter shares AllReduce's chain implementation: the whole reduced
// vector is delivered, of which the caller's shard is the guaranteed part.
// The full chain keeps the deterministic fold-order contract — a
// bandwidth-optimal rotated reduce-scatter would fold each chunk in a
// different rank order and break bit-identity across transports.
func (r *Ring) ReduceScatter(name string, dst, base []float64, parts [][]float64) (int64, error) {
	return r.AllReduce(name, dst, base, parts)
}

// AllGather rotates shards around the ring: every rank sends its own shard
// first, then forwards each received shard until the rank before its
// owner; after Size-1 steps every rank holds every shard.
func (r *Ring) AllGather(name string, buf []float64) (int64, error) {
	epoch := r.epoch.Load()
	if err := r.abortErr(epoch); err != nil {
		return 0, err
	}
	n := len(buf)
	var sent int64
	// Send own shard, chunked.
	olo, ohi := ShardRange(n, r.rank, r.size)
	for lo, idx := olo, uint32(0); lo < ohi; lo, idx = lo+r.chunk, idx+1 {
		hi := lo + r.chunk
		if hi > ohi {
			hi = ohi
		}
		nb, err := r.sendData(name, passGather, byte(r.rank), epoch, idx, buf[lo:hi])
		if err != nil {
			return sent, err
		}
		sent += nb
	}
	// Receive the other Size-1 shards in deterministic arrival order:
	// prev's own shard first, then the shards prev forwarded, each one
	// ring-step older.
	for s := 1; s < r.size; s++ {
		owner := (r.rank - s + r.size) % r.size
		slo, shi := ShardRange(n, owner, r.size)
		forward := (r.rank+1)%r.size != owner
		for lo, idx := slo, uint32(0); lo < shi; lo, idx = lo+r.chunk, idx+1 {
			hi := lo + r.chunk
			if hi > shi {
				hi = shi
			}
			f, err := r.expect(name, epoch, passGather, idx, hi-lo)
			if err != nil {
				return sent, err
			}
			if int(f.origin) != owner {
				return sent, fmt.Errorf("transport: rank %d all-gather %q: got shard of rank %d, want rank %d",
					r.rank, name, f.origin, owner)
			}
			copy(buf[lo:hi], f.payload)
			if forward {
				nb, err := r.sendData(name, passGather, f.origin, epoch, idx, f.payload)
				if err != nil {
					return sent, err
				}
				sent += nb
			}
			r.putPayload(f.payload)
		}
	}
	return sent, nil
}

// Broadcast sends root's buf around the ring; every other rank copies and
// forwards until the rank before root.
func (r *Ring) Broadcast(name string, root int, buf []float64) (int64, error) {
	if root < 0 || root >= r.size {
		return 0, fmt.Errorf("transport: broadcast root %d out of range for %d ranks", root, r.size)
	}
	epoch := r.epoch.Load()
	if err := r.abortErr(epoch); err != nil {
		return 0, err
	}
	n := len(buf)
	var sent int64
	if r.rank == root {
		for lo, idx := 0, uint32(0); lo < n; lo, idx = lo+r.chunk, idx+1 {
			hi := lo + r.chunk
			if hi > n {
				hi = n
			}
			nb, err := r.sendData(name, passBcast, byte(root), epoch, idx, buf[lo:hi])
			if err != nil {
				return sent, err
			}
			sent += nb
		}
		return sent, nil
	}
	forward := (r.rank+1)%r.size != root
	for lo, idx := 0, uint32(0); lo < n; lo, idx = lo+r.chunk, idx+1 {
		hi := lo + r.chunk
		if hi > n {
			hi = n
		}
		f, err := r.expect(name, epoch, passBcast, idx, hi-lo)
		if err != nil {
			return sent, err
		}
		copy(buf[lo:hi], f.payload)
		if forward {
			nb, err := r.sendData(name, passBcast, f.origin, epoch, idx, f.payload)
			if err != nil {
				return sent, err
			}
			sent += nb
		}
		r.putPayload(f.payload)
	}
	return sent, nil
}

// Wire format (little-endian):
//
//	u8 kind | u8 origin | u8 pass | u8 reserved | u64 epoch | u32 chunk |
//	u32 count | u16 nameLen | name | payload
//
// payload is count float64 values for data frames, a count-byte reason
// string for abort and failure frames, absent for hello and heartbeat
// frames.
const frameHeaderSize = 1 + 1 + 1 + 1 + 8 + 4 + 4 + 2

func frameWireSize(f *frame) int64 {
	n := int64(frameHeaderSize) + int64(len(f.name))
	if f.kind == frameData {
		n += int64(len(f.payload)) * 8
	} else if f.kind == frameAbort || f.kind == frameFailure {
		n += int64(len(f.reason))
	}
	return n
}

func (r *Ring) sendFrame(f *frame) error {
	size := frameWireSize(f)
	r.wmu.Lock()
	defer r.wmu.Unlock()
	if r.closing.Load() {
		return errClosed // racing our own Close: decline silently
	}
	if r.wireTimeout > 0 {
		// Write-side wire deadline, re-armed at half-life so the hot path
		// pays one time.Now and the occasional SetWriteDeadline. A write
		// stuck longer than ~1.5x the timeout means the peer stopped
		// draining — its reader is gone.
		if now := time.Now(); now.After(r.wdeadArm) {
			_ = r.next.SetWriteDeadline(now.Add(r.wireTimeout))
			r.wdeadArm = now.Add(r.wireTimeout / 2)
		}
	}
	if cap(r.wscr) < int(size) {
		r.wscr = make([]byte, size)
	}
	b := r.wscr[:size]
	b[0], b[1], b[2], b[3] = f.kind, f.origin, f.pass, 0
	binary.LittleEndian.PutUint64(b[4:], uint64(f.epoch))
	binary.LittleEndian.PutUint32(b[12:], f.chunk)
	off := frameHeaderSize + len(f.name)
	copy(b[frameHeaderSize:], f.name)
	switch f.kind {
	case frameData:
		binary.LittleEndian.PutUint32(b[16:], uint32(len(f.payload)))
		binary.LittleEndian.PutUint16(b[20:], uint16(len(f.name)))
		for _, v := range f.payload {
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
			off += 8
		}
	case frameAbort, frameFailure:
		binary.LittleEndian.PutUint32(b[16:], uint32(len(f.reason)))
		binary.LittleEndian.PutUint16(b[20:], uint16(len(f.name)))
		copy(b[off:], f.reason)
	default:
		binary.LittleEndian.PutUint32(b[16:], 0)
		binary.LittleEndian.PutUint16(b[20:], uint16(len(f.name)))
	}
	if _, err := r.wbuf.Write(b); err != nil {
		return r.sendErr(err)
	}
	// Flush per frame: chunk pipelining depends on partials reaching the
	// next rank as soon as they are folded, not when a buffer fills.
	if err := r.wbuf.Flush(); err != nil {
		return r.sendErr(err)
	}
	r.bytes.Add(size)
	return nil
}

// sendErr classifies a wire-write error (wmu held). A write can only fail
// when our own ring is tearing down (silent errClosed) or the next rank
// stopped draining its connection — a peer failure, recorded sticky and
// attributed. A failure already recorded wins over fabricating a new one:
// when a third rank died first, the next rank may have torn down in
// *response* (it regrouped before we finished writing), and attributing
// the broken pipe to it would misname the root cause.
func (r *Ring) sendErr(err error) error {
	if r.closing.Load() {
		return errClosed
	}
	nextRank := (r.rank + 1) % r.size
	r.mu.Lock()
	if r.failure == nil {
		r.failure = &RankFailure{Rank: nextRank, Cause: fmt.Errorf("rank %d writing to rank %d: %v", r.rank, nextRank, err)}
	}
	rf := r.failure
	r.mu.Unlock()
	r.cond.Broadcast()
	return rf
}

// readFrame decodes one frame off the wire. Only the reader goroutine (and
// DialRing's hello exchange, which precedes it) may call this: the decode
// scratch and the name-intern map are single-owner state.
func (r *Ring) readFrame(br *bufio.Reader) (*frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	var f *frame
	if hdr[0] == frameHeartbeat {
		// Heartbeats are consumed inline by the reader and never queued, so
		// they decode into the reader-owned scratch frame — steady-state
		// liveness traffic costs zero allocations.
		f = &r.hbRecv
		*f = frame{}
	} else {
		f = &frame{}
	}
	f.kind = hdr[0]
	f.origin = hdr[1]
	f.pass = hdr[2]
	f.epoch = int64(binary.LittleEndian.Uint64(hdr[4:]))
	f.chunk = binary.LittleEndian.Uint32(hdr[12:])
	count := binary.LittleEndian.Uint32(hdr[16:])
	nameLen := binary.LittleEndian.Uint16(hdr[20:])
	if nameLen > 0 {
		if cap(r.rscr) < int(nameLen) {
			r.rscr = make([]byte, nameLen)
		}
		nb := r.rscr[:nameLen]
		if _, err := io.ReadFull(br, nb); err != nil {
			return nil, err
		}
		// Intern: the same collective names recur every step, and a
		// map[string] lookup keyed by string(bytes) does not allocate.
		s, ok := r.names[string(nb)]
		if !ok {
			s = string(nb)
			r.names[s] = s
		}
		f.name = s
	}
	switch f.kind {
	case frameData:
		if count > (1 << 28) {
			return nil, fmt.Errorf("transport: oversized frame (%d floats)", count)
		}
		need := int(count) * 8
		if cap(r.rscr) < need {
			r.rscr = make([]byte, need)
		}
		raw := r.rscr[:need]
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, err
		}
		f.payload = r.getPayload(int(count))
		for i := range f.payload {
			f.payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	case frameAbort, frameFailure:
		if count > (1 << 20) {
			return nil, fmt.Errorf("transport: oversized abort reason (%d bytes)", count)
		}
		raw := make([]byte, count)
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, err
		}
		f.reason = string(raw)
	}
	return f, nil
}

// heartbeatLoop sends this rank's liveness beacon to the next rank every
// interval, carrying the current epoch and the last round's wall time. It
// reuses the sender-owned scratch frame — heartbeats allocate nothing.
func (r *Ring) heartbeatLoop() {
	t := time.NewTicker(r.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stopC:
			return
		case <-t.C:
		}
		f := &r.hbSend
		*f = frame{kind: frameHeartbeat, origin: byte(r.rank), epoch: r.epoch.Load(), chunk: r.roundUS.Load()}
		if r.sendFrame(f) != nil {
			return // closed, or the failure path owns liveness now
		}
	}
}

// timeoutLoop periodically wakes blocked pop calls so they can notice an
// expired collective deadline — sync.Cond has no timed wait. Only runs
// when a collective timeout is configured.
func (r *Ring) timeoutLoop() {
	period := r.collTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-r.stopC:
			return
		case <-t.C:
			r.cond.Broadcast()
		}
	}
}
