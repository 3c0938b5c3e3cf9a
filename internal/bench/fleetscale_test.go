package bench

import "testing"

// TestFleetScaleShort runs the smoke-sized fleet sweep end to end and pins
// its record's shape: a stamped host, the short stream-count row within
// the bounded-load placement cap, and the migration curve at depths 1, 2
// and 4.
func TestFleetScaleShort(t *testing.T) {
	defer func(prev bool) { Short = prev }(Short)
	Short = true
	res, err := FleetScale()
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != ResultSchema || res.Experiment != "fleet-scale" {
		t.Fatalf("record header = %q/%q", res.Schema, res.Experiment)
	}
	if !stamped(res.Host) {
		t.Fatalf("host shape not stamped: %+v", res.Host)
	}
	if len(res.Cells) != len(fleetStreamCounts()) || len(res.Migration) != 3 {
		t.Fatalf("short sweep shape: %d cells, %d migration cells", len(res.Cells), len(res.Migration))
	}
	for _, c := range res.Cells {
		if c.MaxLoad > c.BoundedCap {
			t.Errorf("%d streams: max board load %d above the bounded cap %d", c.Streams, c.MaxLoad, c.BoundedCap)
		}
	}
}
