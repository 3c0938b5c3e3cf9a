package profiler

import (
	"strings"
	"testing"

	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sim"
)

func sample() pipeline.StageTimes {
	return pipeline.StageTimes{
		Capture: 10 * sim.Millisecond,
		Forward: 50 * sim.Millisecond,
		Fuse:    10 * sim.Millisecond,
		Inverse: 25 * sim.Millisecond,
		Display: 5 * sim.Millisecond,
	}
}

func TestFromStagesShares(t *testing.T) {
	p := FromStages(sample())
	if p.Total != 100*sim.Millisecond {
		t.Errorf("total %v", p.Total)
	}
	if got := p.Share("forward DT-CWT"); got != 0.5 {
		t.Errorf("forward share %g", got)
	}
	if got := p.Share("inverse DT-CWT"); got != 0.25 {
		t.Errorf("inverse share %g", got)
	}
	if got := p.Share("unknown"); got != 0 {
		t.Errorf("unknown stage share %g", got)
	}
}

func TestSortedDescending(t *testing.T) {
	p := FromStages(sample())
	for i := 1; i < len(p.Entries); i++ {
		if p.Entries[i].Share > p.Entries[i-1].Share {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestStringRendersBars(t *testing.T) {
	s := FromStages(sample()).String()
	for _, want := range []string{"forward DT-CWT", "50.0%", "#"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestZeroProfile(t *testing.T) {
	p := FromStages(pipeline.StageTimes{})
	if p.Total != 0 {
		t.Errorf("total %v", p.Total)
	}
	for _, e := range p.Entries {
		if e.Share != 0 {
			t.Errorf("share %g for empty profile", e.Share)
		}
	}
}
