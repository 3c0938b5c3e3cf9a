package axi

import (
	"testing"

	"zynqfusion/internal/sim"
)

func ps() sim.Clock { return sim.NewClock("ps", 533e6) }
func pl() sim.Clock { return sim.NewClock("pl", 100e6) }

func TestLiteRegisterFile(t *testing.T) {
	l := NewLite(ps())
	wt := l.Write(0x10, 1234)
	if wt != ps().Cycles(GPWordCycles) {
		t.Errorf("write time %v", wt)
	}
	v, rt := l.Read(0x10)
	if v != 1234 {
		t.Errorf("read back %d", v)
	}
	if rt != ps().Cycles(GPWordCycles) {
		t.Errorf("read time %v", rt)
	}
	if l.Writes != 1 || l.Reads != 1 {
		t.Errorf("counters %d/%d", l.Writes, l.Reads)
	}
	if v, _ := l.Read(0x99); v != 0 {
		t.Errorf("unwritten register %d", v)
	}
}

func TestBurstTiming(t *testing.T) {
	b := NewACP(pl())
	tm := b.Transfer(100)
	want := pl().CyclesF(BurstSetup + BurstBeatsPerWord*100)
	if tm != want {
		t.Errorf("transfer %v want %v", tm, want)
	}
	if b.Words != 100 || b.Transfers != 1 {
		t.Errorf("stats %d/%d", b.Words, b.Transfers)
	}
}

func TestBurstZeroWords(t *testing.T) {
	b := NewACP(pl())
	if tm := b.Transfer(0); tm != pl().CyclesF(BurstSetup) {
		t.Errorf("empty transfer should cost only setup, got %v", tm)
	}
}

func TestBurstNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewACP(pl()).Transfer(-1)
}

func TestBurstAmortizesSetup(t *testing.T) {
	// Large transfers approach the per-word rate; small ones are dominated
	// by setup — the root cause of the paper's small-frame crossover.
	b := NewACP(pl())
	small := b.Transfer(4)
	large := b.Transfer(4000)
	perWordSmall := float64(small) / 4
	perWordLarge := float64(large) / 4000
	if perWordSmall < 5*perWordLarge {
		t.Errorf("setup not dominant for small bursts: %g vs %g ps/word", perWordSmall, perWordLarge)
	}
}

func TestGPTransferCost(t *testing.T) {
	tm := GPTransfer(ps(), 100)
	if tm != ps().Cycles(100*GPWordCycles) {
		t.Errorf("GP transfer %v", tm)
	}
	// The paper's comparison: GP word-by-word vs ACP burst for a row.
	acp := NewACP(pl()).Transfer(100)
	if tm < acp {
		t.Errorf("GP (%v) should be slower than ACP (%v) for 100 words", tm, acp)
	}
}
