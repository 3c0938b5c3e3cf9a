package engine

import (
	"math"
	"math/rand"
	"testing"

	"zynqfusion/internal/kernels"
	"zynqfusion/internal/signal"
)

// These tests pin the kernel-engine determinism contract at the engine
// layer: the fast default path, the emulated baseline path, and the
// TileKernel compute+charge replay must agree byte-for-byte on pixels,
// modeled cycles, and the NEON instruction ledger.

func tileTestData(seed int64, m int) (al, ah signal.Taps, px, plo, phi []float32) {
	rng := rand.New(rand.NewSource(seed))
	for i := range al {
		al[i] = float32(rng.NormFloat64())
		ah[i] = float32(rng.NormFloat64())
	}
	px = make([]float32, 2*m+signal.TapCount)
	for i := range px {
		px[i] = float32(rng.NormFloat64() * 50)
	}
	plo = make([]float32, m+signal.SynthesisPad)
	phi = make([]float32, m+signal.SynthesisPad)
	for i := range plo {
		plo[i] = float32(rng.NormFloat64() * 50)
		phi[i] = float32(rng.NormFloat64() * 50)
	}
	return
}

func TestNEONFastMatchesEmulated(t *testing.T) {
	for _, manual := range []bool{false, true} {
		for _, m := range []int{1, 3, 4, 7, 16, 31, 240} {
			al, ah, px, plo, phi := tileTestData(int64(m), m)

			fast := NewNEON(manual)
			emu := NewNEONEmulated(manual)
			if !emu.emulate || fast.emulate {
				t.Fatal("constructor emulate flags wrong")
			}
			if emu.TilingEnabled() || !fast.TilingEnabled() {
				t.Fatal("TilingEnabled gates inverted")
			}

			fLo, fHi := make([]float32, m), make([]float32, m)
			eLo, eHi := make([]float32, m), make([]float32, m)
			fast.Analyze(&al, &ah, px, fLo, fHi)
			emu.Analyze(&al, &ah, px, eLo, eHi)
			fOut, eOut := make([]float32, 2*m), make([]float32, 2*m)
			fast.Synthesize(&al, &ah, plo, phi, fOut)
			emu.Synthesize(&al, &ah, plo, phi, eOut)

			for i := range fLo {
				if math.Float32bits(fLo[i]) != math.Float32bits(eLo[i]) ||
					math.Float32bits(fHi[i]) != math.Float32bits(eHi[i]) {
					t.Fatalf("manual=%v m=%d: analyze pixel %d differs", manual, m, i)
				}
			}
			for i := range fOut {
				if math.Float32bits(fOut[i]) != math.Float32bits(eOut[i]) {
					t.Fatalf("manual=%v m=%d: synthesize pixel %d differs", manual, m, i)
				}
			}
			if fast.cycles != emu.cycles {
				t.Fatalf("manual=%v m=%d: cycles %v != emulated %v", manual, m, fast.cycles, emu.cycles)
			}
			if fast.Unit().C != emu.Unit().C {
				t.Fatalf("manual=%v m=%d: ledger %+v != emulated %+v", manual, m, fast.Unit().C, emu.Unit().C)
			}
		}
	}
}

// TestTileKernelReplayMatchesSequential replays the row charges in
// canonical order first, then computes the rows on the chains they
// returned through the lane kernels in the tiled horizontal passes'
// layout (lane i is output i of the row), in a scrambled row order, and
// checks that this reproduces the sequential engine exactly: pixels,
// cycles and ledger.
func TestTileKernelReplayMatchesSequential(t *testing.T) {
	engines := map[string]func() signal.Kernel{
		"arm":         func() signal.Kernel { return NewARM() },
		"neon-auto":   func() signal.Kernel { return NewNEON(false) },
		"neon-manual": func() signal.Kernel { return NewNEON(true) },
	}
	// m = 17: sixteen body outputs and a one-output m%4 tail per row.
	const rows, m = 13, 17
	for name, mk := range engines {
		seqEng := mk()
		tileEng := mk()
		tk, ok := kernels.AsTile(tileEng)
		if !ok {
			t.Fatalf("%s: engine does not provide TileKernel", name)
		}

		var al, ah signal.Taps
		pxs := make([][]float32, rows)
		plos := make([][]float32, rows)
		phis := make([][]float32, rows)
		for r := range pxs {
			a2, h2, px, plo, phi := tileTestData(int64(r+99), m)
			if r == 0 {
				al, ah = a2, h2
			}
			pxs[r], plos[r], phis[r] = px, plo, phi
		}
		seqLo := make([][]float32, rows)
		seqHi := make([][]float32, rows)
		seqOut := make([][]float32, rows)
		tileLo := make([][]float32, rows)
		tileHi := make([][]float32, rows)
		tileOut := make([][]float32, rows)
		for r := 0; r < rows; r++ {
			seqLo[r], seqHi[r], seqOut[r] = make([]float32, m), make([]float32, m), make([]float32, 2*m)
			tileLo[r], tileHi[r], tileOut[r] = make([]float32, m), make([]float32, m), make([]float32, 2*m)
		}

		for r := 0; r < rows; r++ {
			seqEng.Analyze(&al, &ah, pxs[r], seqLo[r], seqHi[r])
		}
		for r := 0; r < rows; r++ {
			seqEng.Synthesize(&al, &ah, plos[r], phis[r], seqOut[r])
		}
		// Tiled: replay the charges in canonical order, then compute the
		// rows on their chains in a scrambled order.
		fwd, inv := make([]kernels.Chain, rows), make([]kernels.Chain, rows)
		for r := 0; r < rows; r++ {
			fwd[r] = tk.ChargeAnalyzeRow(&al, &ah, m)
		}
		for r := 0; r < rows; r++ {
			inv[r] = tk.ChargeSynthesizeRow(&al, &ah, m)
		}
		order := rand.New(rand.NewSource(5)).Perm(rows)
		for _, r := range order {
			analyzeRowLanes(fwd[r], &al, &ah, pxs[r], tileLo[r], tileHi[r])
			synthesizeRowLanes(inv[r], &al, &ah, plos[r], phis[r], tileOut[r])
		}

		for r := 0; r < rows; r++ {
			for i := 0; i < m; i++ {
				if math.Float32bits(seqLo[r][i]) != math.Float32bits(tileLo[r][i]) ||
					math.Float32bits(seqHi[r][i]) != math.Float32bits(tileHi[r][i]) {
					t.Fatalf("%s: tiled analysis pixels differ at row %d idx %d", name, r, i)
				}
			}
			for i := range seqOut[r] {
				if math.Float32bits(seqOut[r][i]) != math.Float32bits(tileOut[r][i]) {
					t.Fatalf("%s: tiled synthesis pixels differ at row %d idx %d", name, r, i)
				}
			}
		}

		seqC := cyclesOf(t, seqEng)
		tileC := cyclesOf(t, tileEng)
		if seqC != tileC {
			t.Fatalf("%s: tiled cycles %v != sequential %v", name, tileC, seqC)
		}
		if sn, ok := seqEng.(*NEON); ok {
			tn := tileEng.(*NEON)
			if sn.Unit().C != tn.Unit().C {
				t.Fatalf("%s: tiled ledger differs from sequential", name)
			}
		}
	}
}

// analyzeRowLanes computes one analysis row on chain c as the tiled
// horizontal pass does, through the lane kernels over the padded row's
// whole even and odd phases (kernels.AnalyzeRowLanes).
func analyzeRowLanes(c kernels.Chain, al, ah *signal.Taps, px, lo, hi []float32) {
	m := len(lo)
	even, odd := make([]float32, m+signal.TapCount/2), make([]float32, m+signal.TapCount/2)
	kernels.Deinterleave(px, even, odd)
	kernels.AnalyzeRowLanes(c, al, ah, even, odd, lo, hi, 0, m)
}

// synthesizeRowLanes computes one synthesis row on chain c as the tiled
// horizontal pass does, through the lane kernels over the whole padded
// subbands (kernels.SynthesizeRowLanes).
func synthesizeRowLanes(c kernels.Chain, sl, sh *signal.Taps, plo, phi, out []float32) {
	m := len(out) / 2
	even, odd := make([]float32, m), make([]float32, m)
	kernels.SynthesizeRowLanes(c, sl, sh, plo, phi, even, odd, 0, m)
	kernels.Interleave(out, even, odd)
}

func cyclesOf(t *testing.T, k signal.Kernel) float64 {
	t.Helper()
	switch e := k.(type) {
	case *ARM:
		return e.cycles
	case *NEON:
		return e.cycles
	}
	t.Fatal("unknown engine type")
	return 0
}
