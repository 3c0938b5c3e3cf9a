package wavelet

import (
	"testing"

	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/sched"
	"zynqfusion/internal/split"
)

// BenchmarkReplaySplitFrame times the data-free charge replay of one
// 320x240 frame under the oracle CPU/FPGA split — the two three-level
// DT-CWT forwards and the one inverse a fused frame runs — without
// computing a pixel: every row and column of every tree and level is
// routed and charged through the adaptive engine in the sequential
// order, and the engine drains once per frame. It reports the host time
// per row charge and the row charges per frame.
func BenchmarkReplaySplitFrame(b *testing.B) {
	const levels = 3
	eng := sched.NewAdaptive(sched.SplitDriven{S: split.NewOracle(dvfs.Nominal())})
	x := NewXfm(eng)
	dt := NewDTCWT(x, DefaultTreeBanks())
	p := &DTPyramid{}
	if _, err := dt.ForwardInto(p, testFrame(320, 240, 11), levels); err != nil {
		b.Fatal(err)
	}
	routes := x.routeTable(numTrees * levels)
	replayFrame := func() (rows int) {
		for range 2 {
			for c := 0; c < numTrees; c++ {
				tree := routes[c*levels : (c+1)*levels]
				x.replayForwardTree(p.trees[c], tree)
				for i := range tree {
					rows += len(tree[i].rows.chains) + len(tree[i].cols.chains)
				}
			}
		}
		for c := 0; c < numTrees; c++ {
			d := p.trees[c]
			for lv := levels - 1; lv >= 0; lv-- {
				band := d.Levels[lv].LH
				x.replayInverseLevel(d.RowBanks[lv], d.ColBanks[lv], 2*band.W, 2*band.H, &x.invRoute)
				rows += len(x.invRoute.rows.chains) + len(x.invRoute.cols.chains)
			}
		}
		eng.Reset()
		return rows
	}
	rows := replayFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayFrame()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	b.ReportMetric(float64(rows), "rows/frame")
}
