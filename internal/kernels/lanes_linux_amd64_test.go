package kernels

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"zynqfusion/internal/signal"
)

// TestDualChainsStopAtPageEnd runs the AVX-512 dual chains over rows and
// outputs that each end where an inaccessible page begins, at every
// leftover-lane count: the opmasked last step must neither load nor
// store a lane past the end, or the test dies of a fault.
func TestDualChainsStopAtPageEnd(t *testing.T) {
	if !hasAVX512 {
		t.Skip(noAVX512)
	}
	page := syscall.Getpagesize()
	// Three usable pages (the rows, then each output), each followed by
	// an inaccessible one.
	mem, err := syscall.Mmap(-1, 0, 6*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	for p := 1; p < 6; p += 2 {
		if err := syscall.Mprotect(mem[p*page:(p+1)*page], syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	// pageEnd returns the last n float32s of usable page p.
	pageEnd := func(p, n int) []float32 {
		words := unsafe.Slice((*float32)(unsafe.Pointer(&mem[2*p*page])), page/4)
		return words[len(words)-n:]
	}
	rng := rand.New(rand.NewSource(3))
	ta, tb := testTaps(rng)
	for i, row := 0, pageEnd(0, page/4); i < len(row); i++ {
		row[i] = laneValue(rng)
	}
	for lanes := 1; lanes <= 40; lanes++ {
		row, a, b := pageEnd(0, lanes), pageEnd(1, lanes), pageEnd(2, lanes)
		wantA, wantB := make([]float32, lanes), make([]float32, lanes)

		var r AnalysisRows
		for k := range r {
			r[k] = row
		}
		analyzeLanesMulFirst(&ta, &tb, &r, wantA, wantB, 0)
		mulChainAVX512((*[signal.TapCount][]float32)(&r), &ta, &tb, a, b)
		if err := firstDiff(a, wantA); err != nil {
			t.Fatalf("mul-first lanes=%d: first output %v", lanes, err)
		}
		if err := firstDiff(b, wantB); err != nil {
			t.Fatalf("mul-first lanes=%d: second output %v", lanes, err)
		}

		var wl, wh SynthesisRows
		for j := range wl {
			wl[j], wh[j] = row, row
		}
		synthesizeLanesRef(&ta, &tb, &wl, &wh, wantA, wantB, 0)
		var c synthesisChains
		c.lay(&ta, &tb, &wl, &wh)
		pairChainAVX512(&c.rows, &c.even, &c.odd, a, b)
		if err := firstDiff(a, wantA); err != nil {
			t.Fatalf("pair lanes=%d: even output %v", lanes, err)
		}
		if err := firstDiff(b, wantB); err != nil {
			t.Fatalf("pair lanes=%d: odd output %v", lanes, err)
		}
	}
}
