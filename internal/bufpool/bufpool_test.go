package bufpool

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestGetHitMissAndStats(t *testing.T) {
	p := New(Options{})
	f, err := p.Get(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.W != 8 || f.H != 4 || len(f.Pix) != 32 {
		t.Fatalf("bad lease geometry %dx%d len %d", f.W, f.H, len(f.Pix))
	}
	if !f.Leased() || f.Refs() != 1 {
		t.Fatalf("lease not armed: leased=%v refs=%d", f.Leased(), f.Refs())
	}
	if got := p.Stats(); got.Gets != 1 || got.Misses != 1 || got.Hits != 0 || got.Outstanding != 1 {
		t.Fatalf("after miss: %+v", got)
	}
	f.Pix[0] = 42
	f.Release()
	if got := p.Stats(); got.Outstanding != 0 || got.Releases != 1 || got.PooledBytes != 128 {
		t.Fatalf("after release: %+v", got)
	}

	g, err := p.Get(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatal("same-shape Get did not reuse the released plane")
	}
	if g.Pix[0] != 42 {
		t.Fatal("lease contract: pixels are not cleared on reuse")
	}
	if got := p.Stats(); got.Hits != 1 || got.HighWaterBytes != 128 {
		t.Fatalf("after hit: %+v", got)
	}
	// A different shape with the same pixel count reuses the storage too.
	g.Release()
	h, err := p.Get(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if h != g || h.W != 4 || h.H != 8 {
		t.Fatalf("shape class reuse failed: %p vs %p, %dx%d", h, g, h.W, h.H)
	}
	h.Release()
}

func TestCapBytesFailingAcquire(t *testing.T) {
	// Cap fits exactly one 8x8 plane (256 bytes).
	p := New(Options{CapBytes: 256})
	a, err := p.Get(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(8, 8); !errors.Is(err, ErrOverCap) {
		t.Fatalf("want ErrOverCap, got %v", err)
	}
	a.Release()
	// Released bytes stay in the arena; a same-shape Get reuses them.
	b, err := p.Get(8, 8)
	if err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
	// A differently-shaped Get at the cap sheds the pooled plane first.
	b.Release()
	c, err := p.Get(4, 4)
	if err != nil {
		t.Fatalf("shed-then-allocate: %v", err)
	}
	c.Release()
	if err := p.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestCapBytesBlockingAcquire(t *testing.T) {
	p := New(Options{CapBytes: 256, Block: true})
	a, err := p.Get(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		b, err := p.Get(8, 8)
		if err == nil {
			b.Release()
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("blocking Get returned before release: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	a.Release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("blocked Get failed after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Get never woke after release")
	}
	if st := p.Stats(); st.BlockedGets == 0 {
		t.Fatalf("blocked acquire not counted: %+v", st)
	}
}

func TestSubPoolBudgetsAndParentCharge(t *testing.T) {
	root := New(Options{CapBytes: 1024})
	sub := root.Sub(256)
	a, err := sub.Get(8, 8) // 256 bytes: fills the sub budget
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Get(2, 2); !errors.Is(err, ErrOverCap) {
		t.Fatalf("sub-pool over budget: want ErrOverCap, got %v", err)
	}
	// The sub-pool's bytes charge the root arena too.
	if st := root.Stats(); st.OutstandingBytes != 256 || st.Outstanding != 1 {
		t.Fatalf("root not charged for sub lease: %+v", st)
	}
	// A second sub-pool is bounded by the remaining root budget.
	other := root.Sub(0)
	b, err := other.Get(16, 12) // 768 bytes: exactly the remainder
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Get(1, 1); !errors.Is(err, ErrOverCap) {
		t.Fatalf("root cap must bound sub-pools: got %v", err)
	}
	if st := root.Stats(); st.HighWaterBytes != 1024 {
		t.Fatalf("root high water: %+v", st)
	}
	a.Release()
	b.Release()
	if root.Outstanding() != 0 {
		t.Fatalf("outstanding after releases: %d", root.Outstanding())
	}
}

// TestSubPoolDrainReleasesParentCap pins the stream-churn fix: retiring
// sub-pools (farm streams stopping and restarting) must hand their arena
// slice back, so an endless churn of one-plane sub-pools fits a parent
// cap sized for a single plane's working set.
func TestSubPoolDrainReleasesParentCap(t *testing.T) {
	root := New(Options{CapBytes: 4096})
	for i := 0; i < 5; i++ {
		sub := root.Sub(0)
		f, err := sub.Get(16, 16) // 1024 bytes
		if err != nil {
			t.Fatalf("churn iteration %d: %v", i, err)
		}
		f.Release()
		sub.Drain()
	}
	if st := root.Stats(); st.Outstanding != 0 || st.OutstandingBytes != 0 {
		t.Fatalf("after churn: %+v", st)
	}
	// A pool's own parked planes must not starve its own fresh shapes at
	// an ancestor cap either: shed-and-retry frees them.
	sub := root.Sub(0)
	big, err := sub.Get(32, 32) // 4096 bytes: the whole parent cap
	if err != nil {
		t.Fatal(err)
	}
	big.Release() // parked in sub's free list, parent still fully charged
	if _, err := sub.Get(16, 16); err != nil {
		t.Fatalf("shed-and-retry at parent cap: %v", err)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := New(Options{})
	f, err := p.Get(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	f.Release()
}

func TestRetainDefersRecycle(t *testing.T) {
	p := New(Options{})
	f, err := p.Get(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	f.Retain()
	f.Release()
	if p.Stats().Outstanding != 1 {
		t.Fatal("retained frame recycled early")
	}
	f.Release()
	if p.Stats().Outstanding != 0 {
		t.Fatal("final release did not recycle")
	}
}

func TestPassthroughNeverReuses(t *testing.T) {
	p := Passthrough()
	f, err := p.Get(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Leased() {
		t.Fatal("passthrough lease should be a plain frame")
	}
	f.Release() // must be a safe no-op
	g, _ := p.Get(4, 4)
	if g == f {
		t.Fatal("passthrough reused a plane")
	}
	if st := p.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("passthrough stats: %+v", st)
	}
	if sub := p.Sub(128); !sub.opts.Passthrough {
		t.Fatal("sub-pool of a passthrough pool must stay passthrough")
	}
}

func TestConcurrentGetRelease(t *testing.T) {
	p := New(Options{CapBytes: 1 << 20, Block: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f, err := p.Get(32, 24+seed%3)
				if err != nil {
					t.Error(err)
					return
				}
				f.Pix[0] = float32(i)
				f.Release()
			}
		}(g)
	}
	wg.Wait()
	if err := p.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestBadShapeAndMustGet(t *testing.T) {
	p := New(Options{})
	if _, err := p.Get(-1, 4); err == nil {
		t.Fatal("negative shape accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet over cap did not panic")
		}
	}()
	tiny := New(Options{CapBytes: 4})
	tiny.MustGet(100, 100)
}

// TestHitRateBeforeFirstAcquire: a pool that has never served an acquire
// reports a hit rate of exactly 1.0 — vacuously perfect — never a
// misleading 0% that would trip "cache ineffective" dashboards at boot.
func TestHitRateBeforeFirstAcquire(t *testing.T) {
	p := New(Options{})
	if got := p.Stats().HitRate(); got != 1.0 {
		t.Fatalf("zero-acquire HitRate = %v, want 1.0", got)
	}
	// The first acquire is necessarily a miss; the rate must drop to 0.
	f, err := p.Get(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().HitRate(); got != 0 {
		t.Fatalf("after one miss HitRate = %v, want 0", got)
	}
	f.Release()
	// A recycled lease is a hit; the rate recovers to 1/2.
	g, err := p.Get(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	if got := p.Stats().HitRate(); got != 0.5 {
		t.Fatalf("after miss+hit HitRate = %v, want 0.5", got)
	}
}

// TestConcurrentStatsSubDrain is the regression test for the sub-pool walk
// race: Stats and Outstanding used to copy the children slice header under
// the lock and walk it after unlocking, while detach compacted the same
// backing array — moving the last child into the removed slot and nilling
// the old last slot — so a concurrent walk could call Stats on a nil
// *Pool. Run it under -race: walkers scrape the root while other
// goroutines attach, lease from and drain sub-pools.
func TestConcurrentStatsSubDrain(t *testing.T) {
	root := New(Options{})
	stop := make(chan struct{})
	var walkers, churn sync.WaitGroup
	for i := 0; i < 4; i++ {
		walkers.Add(1)
		go func() {
			defer walkers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				root.Stats()
				root.Outstanding()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for j := 0; j < 500; j++ {
				c := root.Sub(0)
				c.MustGet(4, 4).Release()
				c.Drain()
			}
		}()
	}
	churn.Wait()
	close(stop)
	walkers.Wait()
	if st := root.Stats(); st.Outstanding != 0 {
		t.Fatalf("%d leases outstanding after every sub-pool drained", st.Outstanding)
	}
}
