package bench

import "testing"

// TestMemSteadyStateShort runs the smoke-sized frame-store experiment end
// to end and pins its record's shape: a stamped host, both fuser modes and
// the short farm sweep, with the pooled fuser allocating less per frame
// than the allocating control.
func TestMemSteadyStateShort(t *testing.T) {
	defer func(prev bool) { Short = prev }(Short)
	Short = true
	res, err := MemSteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != ResultSchema || res.Experiment != "mem-steadystate" {
		t.Fatalf("record header = %q/%q", res.Schema, res.Experiment)
	}
	if !stamped(res.Host) {
		t.Fatalf("host shape not stamped: %+v", res.Host)
	}
	_, streams, _ := memAxes()
	if len(res.Fuser) != 2 || len(res.Farm) != len(streams) {
		t.Fatalf("short sweep shape: %d fuser cells, %d farm cells", len(res.Fuser), len(res.Farm))
	}
	pooled, allocating := res.Fuser[0], res.Fuser[1]
	if pooled.Mode != "pooled" || allocating.Mode != "allocating" {
		t.Fatalf("fuser modes = %q, %q", pooled.Mode, allocating.Mode)
	}
	if pooled.AllocsPerFrame >= allocating.AllocsPerFrame {
		t.Fatalf("pooled %.1f allocs/frame, allocating control %.1f", pooled.AllocsPerFrame, allocating.AllocsPerFrame)
	}
}
