package kernels

import (
	"zynqfusion/internal/neon"
	"zynqfusion/internal/signal"
)

// The emulated NEON unit's rows (internal/neon) without the emulation:
// NeonAnalyzeAuto and NeonSynthesize run them as the NEON chains' lanes
// (AnalyzeRow, SynthesizeRow), and CountsAnalyze and CountsSynthesize
// give the instruction ledger the cycle model reads in closed form. Both
// are pinned against the live emulation by tests, bit for bit.

// NeonAnalyzeAuto mirrors neon.AnalyzeAuto: four-wide vectorized body
// (coefficients broadcast, mul-first accumulation through taps 0..11)
// plus the scalar remainder tail (accumulate from zero) for the last
// m%4 outputs.
func NeonAnalyzeAuto(al, ah *signal.Taps, px, lo, hi []float32) {
	AnalyzeRow(ChainNEONAuto, al, ah, px, lo, hi)
}

// NeonSynthesize mirrors neon.SynthesizeAuto (and SynthesizeManual,
// which is the same function): the four-wide body, then the scalar tail
// for the last m%4 output pairs.
func NeonSynthesize(sl, sh *signal.Taps, plo, phi, out []float32) {
	SynthesizeRow(ChainNEONAuto, sl, sh, plo, phi, out)
}

// CountsAnalyze returns the neon.Counts delta one emulated analysis row
// of m output pairs records, for the given vectorization style. Pinned
// bit-for-bit against the live emulation by TestCountsMatchEmulation.
func CountsAnalyze(manual bool, m int) neon.Counts {
	if manual {
		return neon.Counts{
			KernelRows: 1,
			Loads:      int64(6 + 3*m),
			Muls:       int64(2 * m),
			Mlas:       int64(4 * m),
			HAdds:      int64(2 * m),
		}
	}
	q, t := m/4, m%4
	return neon.Counts{
		KernelRows: 1,
		Dups:       24,
		Loads2:     int64(6 * q),
		Muls:       int64(2 * q),
		Mlas:       int64(22 * q),
		Stores:     int64(2 * q),
		ScalarOps:  int64(24 * t),
		ScalarMem:  int64(14 * t),
	}
}

// CountsSynthesize returns the neon.Counts delta one emulated synthesis
// row of m coefficient pairs records (both styles share the code path).
func CountsSynthesize(m int) neon.Counts {
	q, t := m/4, m%4
	return neon.Counts{
		KernelRows: 1,
		Dups:       24,
		Loads:      int64(12 * q),
		Muls:       int64(2 * q),
		Mlas:       int64(22 * q),
		Stores2:    int64(q),
		ScalarOps:  int64(24 * t),
		ScalarMem:  int64(14 * t),
	}
}
