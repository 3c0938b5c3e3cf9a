package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one tiled parallel-for body. Tile processes the half-open index
// range [lo, hi); worker identifies the executing worker (0 for the
// caller, 1..N-1 for pool goroutines) so tasks can index per-worker
// scratch without sharing. Tiles never overlap, so a Task that writes
// only to ranges derived from [lo, hi) needs no further synchronization.
//
// Implement Task on a pointer to a reusable struct: passing a pointer
// through the interface does not allocate, which keeps parallel dispatch
// at zero allocations per frame.
type Task interface {
	Tile(lo, hi, worker int)
}

// Workers is a bounded pool of goroutines for tiled parallel-for
// dispatch. The zero worker is always the calling goroutine, so a
// 1-worker pool (or a nil *Workers) degenerates to a plain sequential
// loop with no goroutines and no channel traffic.
//
// A pool built with NewWorkers(0) sizes each pass: it wakes its helpers
// only for a pass that moves at least MinParallelBytes and runs a
// smaller one on the caller. A pool of an explicit size dispatches
// every pass of more than one tile.
//
// Helper goroutines are spawned lazily on the first parallel Run and
// parked between runs on a channel receive, so an idle pool costs
// nothing but N-1 parked goroutines. Close parks them permanently; a
// later Run transparently respawns, so owners can Close on teardown
// without making the pool unusable.
//
// A Workers is not safe for concurrent Runs: it belongs to one logical
// execution context (one Fuser). Run must not be called from inside a
// Tile.
type Workers struct {
	n    int  // configured worker count, >= 1
	auto bool // built by NewWorkers(n <= 0): passes below MinParallelBytes run inline

	mu     sync.Mutex // guards spawn/close state transitions
	live   int        // helper goroutines currently parked or running
	closed bool
	start  chan struct{}
	done   chan struct{}

	// Per-run dispatch state, published to helpers by the start-channel
	// send (happens-before their receive) and quiesced by the done-channel
	// receives before Run returns.
	task  Task
	grain int64
	limit int64
	next  atomic.Int64
}

// NewWorkers returns a pool of n workers. n <= 0 selects GOMAXPROCS
// workers and sizes each pass: only a pass that moves at least
// MinParallelBytes wakes the helpers. An explicit n dispatches every
// pass of more than one tile. Any n is capped at GOMAXPROCS, since
// extra workers beyond the schedulable parallelism only add contention
// on the tile counter.
func NewWorkers(n int) *Workers {
	auto := n <= 0
	if max := runtime.GOMAXPROCS(0); auto || n > max {
		n = max
	}
	w := &Workers{n: n, auto: auto}
	w.start = make(chan struct{}, w.n)
	w.done = make(chan struct{}, w.n)
	return w
}

// N reports the worker count: the size per-worker scratch must be
// dimensioned for. A nil pool runs everything on the caller (N = 1).
func (w *Workers) N() int {
	if w == nil {
		return 1
	}
	return w.n
}

// For runs t over n items of itemBytes each (the bytes one item reads
// and writes) in Grain-sized tiles: Run(n, Grain(n, itemBytes, N()),
// itemBytes, t).
func (w *Workers) For(n, itemBytes int, t Task) {
	w.Run(n, Grain(n, itemBytes, w.N()), itemBytes, t)
}

// Run executes t.Tile over [0, n) in tiles of at most grain indices,
// using the caller plus up to N-1 pool goroutines, and returns when
// every tile has completed. Tiles are claimed dynamically (atomic
// counter), so uneven tile costs self-balance. The whole range runs
// inline on the caller when the pool is nil or single-worker, when n
// fits in one tile, and on a pool built by NewWorkers(0) when the pass
// moves less than MinParallelBytes (n items of itemBytes each).
func (w *Workers) Run(n, grain, itemBytes int, t Task) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if w == nil || w.n <= 1 || n <= grain || w.auto && int64(n)*int64(itemBytes) < MinParallelBytes {
		t.Tile(0, n, 0)
		return
	}
	helpers, start, done := w.ensure()
	if helpers == 0 {
		t.Tile(0, n, 0)
		return
	}
	w.task = t
	w.grain = int64(grain)
	w.limit = int64(n)
	w.next.Store(0)
	for i := 0; i < helpers; i++ {
		start <- struct{}{}
	}
	w.work(0)
	for i := 0; i < helpers; i++ {
		<-done
	}
	w.task = nil
}

// ensure spawns missing helpers (and reopens a closed pool), returning
// the helper count and the channels that address this generation of
// helpers.
func (w *Workers) ensure() (int, chan struct{}, chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		// Reopen: the old generation exits on its closed start channel;
		// fresh channels keep stragglers from stealing new tokens.
		w.closed = false
		w.start = make(chan struct{}, w.n)
		w.done = make(chan struct{}, w.n)
	}
	for w.live < w.n-1 {
		w.live++
		go w.helper(w.live, w.start, w.done)
	}
	return w.n - 1, w.start, w.done
}

func (w *Workers) helper(id int, start <-chan struct{}, done chan<- struct{}) {
	for range start {
		w.work(id)
		done <- struct{}{}
	}
}

// work claims and executes tiles until the range is exhausted.
func (w *Workers) work(id int) {
	g := w.grain
	limit := w.limit
	t := w.task
	for {
		lo := w.next.Add(g) - g
		if lo >= limit {
			return
		}
		hi := lo + g
		if hi > limit {
			hi = limit
		}
		t.Tile(int(lo), int(hi), id)
	}
}

// Close parks and releases the helper goroutines. The pool stays
// usable: a subsequent Run respawns helpers on demand. Close must not
// race a Run on the same pool. Closing a nil or never-parallel pool is
// a no-op.
func (w *Workers) Close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.live == 0 {
		w.closed = true
		return
	}
	w.closed = true
	close(w.start)
	w.live = 0
}
