package kernels

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// coverTask marks each index it is given and counts per-worker hits.
type coverTask struct {
	hits    []atomic.Int32
	perWork []atomic.Int64
}

func (c *coverTask) Tile(lo, hi, worker int) {
	for i := lo; i < hi; i++ {
		c.hits[i].Add(1)
	}
	c.perWork[worker].Add(int64(hi - lo))
}

func testPool(t *testing.T, n int) *Workers {
	t.Helper()
	w := NewWorkers(n)
	t.Cleanup(w.Close)
	return w
}

func TestWorkersCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		w := testPool(t, workers)
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
			for _, grain := range []int{1, 3, 16, 4096} {
				task := &coverTask{
					hits:    make([]atomic.Int32, n+1),
					perWork: make([]atomic.Int64, w.N()),
				}
				w.Run(n, grain, 0, task)
				var total int64
				for i := 0; i < n; i++ {
					if got := task.hits[i].Load(); got != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d ran %d times", workers, n, grain, i, got)
					}
				}
				for i := range task.perWork {
					total += task.perWork[i].Load()
				}
				if total != int64(n) {
					t.Fatalf("workers=%d n=%d grain=%d: total work %d", workers, n, grain, total)
				}
			}
		}
	}
}

func TestWorkersCloseReopen(t *testing.T) {
	w := NewWorkers(4)
	defer w.Close()
	task := &coverTask{hits: make([]atomic.Int32, 100), perWork: make([]atomic.Int64, w.N())}
	w.Run(100, 5, 0, task)
	w.Close()
	w.Close() // idempotent
	// Still usable after Close: respawns helpers transparently.
	task2 := &coverTask{hits: make([]atomic.Int32, 100), perWork: make([]atomic.Int64, w.N())}
	w.Run(100, 5, 0, task2)
	for i := range task2.hits {
		if task2.hits[i].Load() != 1 {
			t.Fatalf("index %d not covered after reopen", i)
		}
	}
}

func TestWorkersCloseStopsGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >1 proc for helper goroutines")
	}
	before := runtime.NumGoroutine()
	w := NewWorkers(0)
	task := &coverTask{hits: make([]atomic.Int32, 1000), perWork: make([]atomic.Int64, w.N())}
	w.Run(1000, 1, MinParallelBytes, task)
	w.Close()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("goroutines leaked after Close: before=%d now=%d", before, runtime.NumGoroutine())
}

func TestWorkersNilAndSequential(t *testing.T) {
	var nilPool *Workers
	if nilPool.N() != 1 {
		t.Fatalf("nil pool N = %d", nilPool.N())
	}
	task := &coverTask{hits: make([]atomic.Int32, 10), perWork: make([]atomic.Int64, 1)}
	nilPool.Run(10, 4, 0, task)
	nilPool.Close()
	for i := range task.hits {
		if task.hits[i].Load() != 1 {
			t.Fatalf("nil pool missed index %d", i)
		}
	}
	if task.perWork[0].Load() != 10 {
		t.Fatalf("nil pool should run everything on worker 0")
	}
}

func TestWorkersWorkerIDsInRange(t *testing.T) {
	w := testPool(t, 4)
	var bad atomic.Int32
	task := &idCheckTask{n: w.N(), bad: &bad}
	for round := 0; round < 50; round++ {
		w.Run(256, 1, 0, task)
	}
	if bad.Load() != 0 {
		t.Fatalf("worker id out of [0,%d)", w.N())
	}
}

type idCheckTask struct {
	n   int
	bad *atomic.Int32
}

func (c *idCheckTask) Tile(lo, hi, worker int) {
	if worker < 0 || worker >= c.n {
		c.bad.Add(1)
	}
}

func TestWorkersRunZeroAllocs(t *testing.T) {
	w := testPool(t, 4)
	task := &coverTask{hits: make([]atomic.Int32, 4096), perWork: make([]atomic.Int64, w.N())}
	w.Run(4096, 32, 0, task) // warm up: spawn helpers
	allocs := testing.AllocsPerRun(100, func() {
		w.Run(4096, 32, 0, task)
	})
	if allocs != 0 {
		t.Fatalf("Run allocates %.1f per call, want 0", allocs)
	}
}

// liveHelpers reports how many helper goroutines w has spawned.
func liveHelpers(w *Workers) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.live
}

// TestAutoPoolSizesPasses pins the dispatch policy of NewWorkers(0): a
// pass below MinParallelBytes runs every tile on the caller and spawns
// no helper, a pass at or above it spawns the helpers, and a pool of an
// explicit size dispatches any pass of more than one tile.
func TestAutoPoolSizesPasses(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const itemBytes = 1 << 10
	const below = MinParallelBytes/itemBytes - 1
	run := func(w *Workers, n, item int) *coverTask {
		task := &coverTask{hits: make([]atomic.Int32, n), perWork: make([]atomic.Int64, w.N())}
		w.For(n, item, task)
		for i := range task.hits {
			if got := task.hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
		return task
	}

	auto := testPool(t, 0)
	if auto.N() != 4 {
		t.Fatalf("auto pool N = %d, want GOMAXPROCS 4", auto.N())
	}
	task := run(auto, below, itemBytes)
	if got := task.perWork[0].Load(); got != below {
		t.Fatalf("pass of %d bytes: worker 0 ran %d of %d items", below*itemBytes, got, below)
	}
	if got := liveHelpers(auto); got != 0 {
		t.Fatalf("pass of %d bytes spawned %d helpers, want none", below*itemBytes, got)
	}
	run(auto, below+1, itemBytes)
	if got := liveHelpers(auto); got != 3 {
		t.Fatalf("pass of MinParallelBytes spawned %d helpers, want 3", got)
	}

	for _, n := range []int{2, 4} {
		explicit := testPool(t, n)
		run(explicit, 2, 1) // 2 bytes, two tiles of one item
		if got := liveHelpers(explicit); got != n-1 {
			t.Fatalf("explicit pool of %d spawned %d helpers for a two-tile pass, want %d", n, got, n-1)
		}
	}
}

func BenchmarkWorkersDispatch(b *testing.B) {
	w := NewWorkers(runtime.GOMAXPROCS(0))
	defer w.Close()
	task := &coverTask{hits: make([]atomic.Int32, 1024), perWork: make([]atomic.Int64, w.N())}
	w.Run(1024, 8, 0, task)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(1024, 8, 0, task)
	}
}
