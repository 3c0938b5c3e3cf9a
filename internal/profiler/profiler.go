// Package profiler renders the stage-level execution profile of the
// fusion process — the Fig. 2 analysis that identifies the forward and
// inverse DT-CWT as the compute-intensive stages worth accelerating.
package profiler

import (
	"fmt"
	"sort"
	"strings"

	"zynqfusion/internal/pipeline"
	"zynqfusion/internal/sim"
)

// Entry is one profiled stage.
type Entry struct {
	Stage string
	Time  sim.Time
	Share float64 // fraction of total, [0,1]
}

// Profile is a per-stage breakdown, sorted by descending share.
type Profile struct {
	Entries []Entry
	Total   sim.Time
}

// FromStages builds a profile from accumulated stage times.
func FromStages(st pipeline.StageTimes) Profile {
	entries := []Entry{
		{Stage: "forward DT-CWT", Time: st.Forward},
		{Stage: "inverse DT-CWT", Time: st.Inverse},
		{Stage: "fusion rule", Time: st.Fuse},
		{Stage: "capture+convert", Time: st.Capture},
		{Stage: "display", Time: st.Display},
	}
	var total sim.Time
	for _, e := range entries {
		total += e.Time
	}
	if total > 0 {
		for i := range entries {
			entries[i].Share = float64(entries[i].Time) / float64(total)
		}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Share > entries[j].Share })
	return Profile{Entries: entries, Total: total}
}

// Share returns the fraction for a named stage (0 when absent).
func (p Profile) Share(stage string) float64 {
	for _, e := range p.Entries {
		if e.Stage == stage {
			return e.Share
		}
	}
	return 0
}

// String renders an ASCII bar chart in the shape of Fig. 2.
func (p Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Profile results for image fusion (total %s)\n", p.Total)
	for _, e := range p.Entries {
		bar := strings.Repeat("#", int(float64(e.Share*50)+0.5))
		fmt.Fprintf(&b, "  %-16s %6.1f%% %s\n", e.Stage, e.Share*100, bar)
	}
	return b.String()
}
