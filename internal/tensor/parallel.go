package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the kernel-layer parallelism substrate: a shared pool
// of worker goroutines that the packed GEMM driver fans its row-panel ranges
// out to (parRunGemm, gemm.go). Two knobs control it:
//
//   - SetParallelism(n) sizes the pool — the total intra-op worker budget
//     for the whole process (default GOMAXPROCS).
//   - SetOpParallelism(k) caps how many of those workers a single kernel
//     invocation may recruit. The execution engine sets this to its
//     per-device share (budget / devices) so that concurrent device
//     goroutines split the cores fairly instead of each oversubscribing
//     the whole pool.
//
// The pool is deliberately work-conserving and deadlock-free: tasks are
// handed off only to workers that are parked at that instant (an unbuffered
// channel send with a default branch), and the caller always executes the
// chunks nobody picked up — so a saturated pool degrades to the serial
// kernel instead of queueing, and a kernel running inside a worker can never
// wait on the pool it occupies.
//
// Every product computes each output element with the same serial
// reduction order regardless of the worker count or chunk boundaries, so
// results are bit-for-bit identical across parallelism settings.

// task is one chunk handed to a pool worker: the panel range [lo, hi) of a
// packed-GEMM context (gemmRange, gemm.go).
type task struct {
	g      *gemmCtx
	lo, hi int
	wg     *sync.WaitGroup
}

// workerPool is one generation of workers. SetParallelism replaces the
// whole generation; old workers drain via quit.
type workerPool struct {
	ch   chan task
	quit chan struct{}
}

var (
	poolMu  sync.Mutex
	curPool atomic.Pointer[workerPool]
	budget  atomic.Int64 // total worker budget (including the calling goroutine)
	opCap   atomic.Int64 // per-invocation cap; 0 means "use the full budget"

	// poolTasks counts chunks executed by pool workers (not the caller) —
	// the observable record of effective per-op fan-out. Benchmarks report
	// the per-op delta so a regression to serial execution (a kernel that
	// stops splitting, a pool that stops accepting) is visible even on
	// hosts where wall-clock scaling is core-bound.
	poolTasks atomic.Uint64

	wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// PoolTasksExecuted returns the cumulative number of kernel chunks
// executed by pool workers since process start.
func PoolTasksExecuted() uint64 { return poolTasks.Load() }

// serialWorkLimit is the kernel work size (multiply-adds) below which
// fanning out to the pool costs more than it saves; smaller products run on
// the calling goroutine. The limit itself fans out: 64x64x64 is exactly
// 2^18 multiply-adds and is the smallest cube that may (pinned by
// TestSerialWorkLimitBoundary).
const serialWorkLimit = 1 << 18

func init() {
	SetParallelism(0)
}

// SetParallelism sizes the shared kernel worker pool to n goroutines in
// total (the calling goroutine counts as one, so n-1 workers are spawned);
// n <= 0 resets to runtime.GOMAXPROCS(0). It must not be called while
// kernels are executing — configure parallelism at startup, or between
// training steps.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if int(budget.Load()) == n && curPool.Load() != nil {
		return
	}
	next := &workerPool{ch: make(chan task), quit: make(chan struct{})}
	for i := 0; i < n-1; i++ {
		go worker(next)
	}
	old := curPool.Swap(next)
	budget.Store(int64(n))
	if old != nil {
		close(old.quit)
	}
}

// Parallelism returns the configured total worker budget.
func Parallelism() int { return int(budget.Load()) }

// SetOpParallelism caps the number of pool workers a single kernel
// invocation may recruit; k <= 0 removes the cap (each kernel may use the
// full budget). The pipeline engine sets this to budget/devices so its
// device goroutines share the pool fairly.
func SetOpParallelism(k int) {
	if k <= 0 {
		k = 0
	}
	opCap.Store(int64(k))
}

// OpParallelism returns the per-invocation worker cap (0 = uncapped).
func OpParallelism() int { return int(opCap.Load()) }

func worker(p *workerPool) {
	for {
		select {
		case t := <-p.ch:
			gemmRange(t.g, t.lo, t.hi)
			poolTasks.Add(1)
			t.wg.Done()
		case <-p.quit:
			return
		}
	}
}

// opWorkers resolves the effective worker count for one kernel invocation.
func opWorkers() int {
	w := int(budget.Load())
	if c := int(opCap.Load()); c > 0 && c < w {
		w = c
	}
	if w < 1 {
		w = 1
	}
	return w
}
