package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file runs the rounds' device loops and decides how they wait.
//
// Device loops run on a process-wide pool of long-lived goroutines, shaped
// like tensor's kernel pool: runRound hands each device's op walk to an
// idle worker, or grows the pool by one when none is idle. A loop never
// queues behind another loop — a round's loops depend on one another, so
// a loop waiting for a worker that runs its own producer would deadlock.
// An idle worker holds no reference to any engine.
//
// Two waits poll before they park — a device's dependency wait (await),
// which also holds a device through a step's commit, since the commit is
// its OptStep ops' completion, and an idle worker waiting for its next loop
// (next): each polls its condition in spinFor, yielding the processor with
// runtime.Gosched between polls, gives up after spinBudget and then parks.
// This is OpenMP's active wait policy. A parked goroutine's wake-up is a
// cross-thread hand-off that, once the woken vCPU has idled, costs ~1.3 ms
// at the median on the 2-vCPU host (70 µs when it had not): on tiny_1f1b
// that left 0.20 of the makespan idle that a replay of the same ops at
// their measured durations does not explain (engine.wait_gap_share).
// Polling cut it to 0.047.
//
// Spinning is allowed only while both hold (spinAllowed, re-checked at
// every poll):
//   - the engine's group is single-process. A ring's progress comes from
//     netpoll, and netpoll never runs on a P that does not go idle;
//   - the process's running device loops plus spinning idle workers are at
//     most GOMAXPROCS — the rule adaptive mutexes use: spin only while the
//     waker has a core of its own.

// spinBudget bounds every active wait before it parks. Unbounded polling
// inside a round lost wide_1f1b_k8 pairs: a device whose producer runs a
// long refresh op must give its core back.
const spinBudget = 2 * time.Millisecond

// loopTask is one device's op walk of one round, as handed to a worker.
type loopTask struct {
	st *runState
	d  int
	wg *sync.WaitGroup
}

// deviceWorker is one long-lived device goroutine. mail holds the next loop
// (capacity one): dispatch only hands a loop to a worker it took off the
// idle list, so the send never blocks and a loop never waits for a worker.
type deviceWorker struct {
	mail chan loopTask
}

var devices struct {
	mu   sync.Mutex
	idle []*deviceWorker // LIFO: the most recently idle worker is the likeliest to be spinning

	running  atomic.Int32 // device loops handed out and not finished, process-wide
	spinning atomic.Int32 // idle workers polling their mail
	procs    atomic.Int32 // GOMAXPROCS, read once per round
}

// spinHook, when set, is called by every wait of a round's device loop that
// polled. Tests set it at init to see the active wait in use; it is nil
// otherwise.
var spinHook func()

// spinAllowed is the spin rule: never on a multi-rank engine, and only
// while the running device loops plus the spinning idle workers fit the
// processors.
func spinAllowed(multiRank bool, running, spinning, procs int32) bool {
	return !multiRank && running+spinning <= procs
}

// spinFor is the active wait: it polls ready, yielding the processor with
// runtime.Gosched between polls, until ready holds, spinBudget has passed
// or the spin rule stops holding, and returns how many times it yielded.
// The caller then parks as it would without it. The rule is re-checked at
// every poll: loops start and finish, and idle workers start and stop
// spinning, while a wait polls.
func spinFor(multiRank bool, ready func() bool) (polls int) {
	for t0 := time.Now(); time.Since(t0) < spinBudget &&
		spinAllowed(multiRank, devices.running.Load(), devices.spinning.Load(), devices.procs.Load()) &&
		!ready(); polls++ {
		runtime.Gosched()
	}
	return polls
}

// spin holds one of the round's device loops in the active wait until ready
// holds or the wait should park.
func (st *runState) spin(ready func() bool) {
	if spinFor(st.e.multiRank, ready) > 0 && spinHook != nil {
		spinHook()
	}
}

// runLoops hands every device's loop of the round to a worker and
// returns once all of them finished. The round's loops count as running
// before the first is handed out, so no wait — the first loop's, or an idle
// worker's — spins on a processor a later loop of the round needs.
func (st *runState) runLoops() {
	n := st.e.sched.Devices
	devices.procs.Store(int32(runtime.GOMAXPROCS(0)))
	devices.running.Add(int32(n))
	var wg sync.WaitGroup
	wg.Add(n)
	for d := 0; d < n; d++ {
		dispatch(loopTask{st: st, d: d, wg: &wg})
	}
	wg.Wait()
}

// dispatch hands l to an idle worker, or to a new one.
func dispatch(l loopTask) {
	devices.mu.Lock()
	var w *deviceWorker
	if n := len(devices.idle); n > 0 {
		w = devices.idle[n-1]
		devices.idle[n-1] = nil
		devices.idle = devices.idle[:n-1]
	}
	devices.mu.Unlock()
	if w == nil {
		w = &deviceWorker{mail: make(chan loopTask, 1)}
		go w.serve()
	}
	w.mail <- l
}

// serve runs loops as they come. Between them the worker keeps only
// whether its last loop's engine was multi-rank, not the engine.
func (w *deviceWorker) serve() {
	multiRank := false
	for {
		l := w.next(multiRank)
		multiRank = l.st.e.multiRank
		l.st.deviceLoop(l.d)
		wg := l.wg
		l = loopTask{}
		// Idle before Done: the round's caller may dispatch its next round
		// as soon as Done returns, and should find this worker.
		devices.mu.Lock()
		devices.idle = append(devices.idle, w)
		devices.mu.Unlock()
		devices.running.Add(-1)
		wg.Done()
	}
}

// next waits for the worker's next loop: it polls its mail while the spin
// rule allows it — its last loop's engine was single-process and a
// processor is free for it — then parks.
func (w *deviceWorker) next(multiRank bool) loopTask {
	devices.spinning.Add(1)
	spinFor(multiRank, func() bool { return len(w.mail) > 0 })
	devices.spinning.Add(-1)
	return <-w.mail
}

// await holds device d until op w completed in this round or the round
// aborted. It polls first when it may spin; then it publishes the op it
// parks on, checks again and parks until a token arrives, checking after
// each one. signal stores the word before it reads parked, and await
// publishes parked before it reads the word, so with sequentially
// consistent atomics one of them sees the other: no wake-up is lost, and a
// stale token costs one more check.
func (st *runState) await(d, w int) {
	ready := func() bool { return st.done[w].Load() == st.round || st.failed.Load() }
	if ready() {
		return
	}
	st.spin(ready)
	for {
		st.parked[d].Store(int64(w))
		if ready() {
			break
		}
		<-st.wake[d]
	}
	st.parked[d].Store(-1)
}

// signal completes op w in this round and wakes any device parked on it.
func (st *runState) signal(w int) {
	st.done[w].Store(st.round)
	for d := range st.parked {
		if st.parked[d].Load() == int64(w) {
			st.poke(d)
		}
	}
}

// poke leaves device d a wake-up token, unless one is already waiting.
func (st *runState) poke(d int) {
	select {
	case st.wake[d] <- struct{}{}:
	default:
	}
}
