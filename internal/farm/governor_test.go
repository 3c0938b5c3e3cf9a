package farm

import (
	"sync"
	"sync/atomic"
	"testing"

	"zynqfusion/internal/obs"
	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/power"
	"zynqfusion/internal/sim"
)

func TestGovernorLeaseExclusive(t *testing.T) {
	g := NewGovernor(0)
	if !g.TryAcquire("a") {
		t.Fatal("free lease should grant")
	}
	if g.TryAcquire("b") {
		t.Fatal("held lease must deny")
	}
	g.Release("a", sim.Millisecond)
	if !g.TryAcquire("b") {
		t.Fatal("released lease should grant again")
	}
	g.Release("b", 0)
	st := g.Stats()
	if st.Grants != 2 || st.Denials != 1 {
		t.Fatalf("grants/denials = %d/%d, want 2/1", st.Grants, st.Denials)
	}
}

func TestGovernorReleaseWithoutHoldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without hold must panic")
		}
	}()
	NewGovernor(0).Release("ghost", sim.Millisecond)
}

// TestGovernorConcurrentHolders hammers the lease from many goroutines and
// asserts at most one holder exists at any wall-clock instant.
func TestGovernorConcurrentHolders(t *testing.T) {
	g := NewGovernor(0)
	var holders atomic.Int32
	var wg sync.WaitGroup
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if g.TryAcquire(id) {
					if n := holders.Add(1); n != 1 {
						t.Errorf("%d concurrent FPGA holders", n)
					}
					holders.Add(-1)
					g.Release(id, sim.Microsecond)
				}
			}
		}(id)
	}
	wg.Wait()
	spans := g.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End {
			t.Fatalf("span %d overlaps predecessor: %+v / %+v", i, spans[i-1], spans[i])
		}
	}
}

func TestGovernorPowerBudgetDeniesFPGA(t *testing.T) {
	// One stream already drawing ~533 mW; a budget barely above that
	// leaves no headroom for the wave engine's +19.2 mW.
	g := NewGovernor(power.ARMActive + power.FPGADelta/2)
	g.AddFrame("s1", pipeline.StageTimes{
		Total:  sim.Second,
		Energy: sim.EnergyOver(power.ARMActive, sim.Second),
	})
	if g.TryAcquire("s1") {
		t.Fatal("budget-capped governor should deny the FPGA")
	}
	st := g.Stats()
	if st.BudgetDenials != 1 {
		t.Fatalf("BudgetDenials = %d, want 1", st.BudgetDenials)
	}
	// A generous budget grants.
	g2 := NewGovernor(2 * power.FPGAActive)
	g2.AddFrame("s1", pipeline.StageTimes{
		Total:  sim.Second,
		Energy: sim.EnergyOver(power.ARMActive, sim.Second),
	})
	if !g2.TryAcquire("s1") {
		t.Fatal("roomy budget should grant the FPGA")
	}
}

func TestGovernorBudgetIgnoresFinishedStreams(t *testing.T) {
	// A finished stream's accumulated draw must not starve later streams.
	g := NewGovernor(power.FPGAActive + power.ARMActive)
	g.AddFrame("old", pipeline.StageTimes{
		Total:  sim.Second,
		Energy: sim.EnergyOver(power.ARMActive, sim.Second),
	})
	g.AddFrame("new", pipeline.StageTimes{
		Total:  sim.Second,
		Energy: sim.EnergyOver(power.ARMActive, sim.Second),
	})
	if g.TryAcquire("new") {
		t.Fatal("two live streams should exceed the budget headroom")
	}
	g.StreamDone("old")
	if !g.TryAcquire("new") {
		t.Fatal("finished stream must stop counting against the budget")
	}
	g.Release("new", 0)
	_, energy := g.Totals()
	if want := 2 * sim.EnergyOver(power.ARMActive, sim.Second); energy != want {
		t.Fatalf("finished stream's energy left the ledger: %v != %v", energy, want)
	}
}

func TestGovernorAccounting(t *testing.T) {
	g := NewGovernor(0)
	st1 := pipeline.StageTimes{Total: 2 * sim.Millisecond, Energy: 0.002}
	st2 := pipeline.StageTimes{Total: 3 * sim.Millisecond, Energy: 0.004}
	g.AddFrame("a", st1)
	g.AddFrame("b", st2)
	busy, energy := g.Totals()
	if busy != 5*sim.Millisecond {
		t.Fatalf("busy = %s, want 5ms", busy)
	}
	if energy != 0.006 {
		t.Fatalf("energy = %v, want 0.006", energy)
	}
}

// TestGovernorLeaseRingKeepsNewest grants more leases than the lease
// timeline's ring holds: Spans keeps exactly the newest, in grant order
// and non-overlapping, while Stats' FPGABusy counts every lease.
func TestGovernorLeaseRingKeepsNewest(t *testing.T) {
	const leases = obs.DefaultTraceSpans + 300
	g := NewGovernor(0)
	ids := []string{"a", "b", "c"}
	var busy sim.Time
	for i := 0; i < leases; i++ {
		id := ids[i%len(ids)]
		if !g.TryAcquire(id) {
			t.Fatalf("lease %d denied", i)
		}
		d := sim.Time(i+1) * sim.Microsecond
		g.Release(id, d)
		busy += d
	}
	if st := g.Stats(); st.FPGABusy != busy || st.Grants != leases {
		t.Fatalf("FPGABusy %v over %d grants, want %v over %d", st.FPGABusy, st.Grants, busy, leases)
	}
	spans := g.Spans()
	if len(spans) != obs.DefaultTraceSpans {
		t.Fatalf("%d spans retained, want %d", len(spans), obs.DefaultTraceSpans)
	}
	for k, sp := range spans {
		i := leases - obs.DefaultTraceSpans + k // the lease this span must be
		if sp.Stream != ids[i%len(ids)] || sp.End-sp.Start != sim.Time(i+1)*sim.Microsecond {
			t.Fatalf("span %d = %+v, want lease %d", k, sp, i)
		}
		if k > 0 && sp.Start != spans[k-1].End {
			t.Fatalf("span %d starts at %v, its predecessor ends at %v", k, sp.Start, spans[k-1].End)
		}
	}
	if last := spans[len(spans)-1]; last.End != busy {
		t.Fatalf("newest span ends at %v, the timeline at %v", last.End, busy)
	}
}

func TestQueueDropOldest(t *testing.T) {
	q := newFrameQueue(2)
	for i := int64(0); i < 5; i++ {
		q.Push(framePair{seq: i})
	}
	if d := q.Dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
	p, ok := q.Pop()
	if !ok || p.seq != 3 {
		t.Fatalf("head = %+v, want seq 3 (oldest survivors kept)", p)
	}
	p, _ = q.Pop()
	if p.seq != 4 {
		t.Fatalf("second = %+v, want seq 4", p)
	}
	q.Close()
	if _, ok := q.Pop(); ok {
		t.Fatal("closed empty queue must report done")
	}
}

func TestQueueCloseDrainsBuffered(t *testing.T) {
	q := newFrameQueue(4)
	q.Push(framePair{seq: 1})
	q.Close()
	if p, ok := q.Pop(); !ok || p.seq != 1 {
		t.Fatal("buffered pair should survive Close")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("drained closed queue must report done")
	}
	if !q.Push(framePair{seq: 2}) {
		t.Fatal("push to closed queue counts as dropped")
	}
}
