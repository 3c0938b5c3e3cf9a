package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSplitFrontierDominance is the experiment's acceptance criterion: in
// at least one (frame size, operating point) cell, a cooperative split
// has strictly lower frame time than both exclusive engines and strictly
// lower J/frame than the faster exclusive. Run in short mode so CI's
// smoke job and this test exercise the same grid; the record must also
// carry the host shape it ran on.
func TestSplitFrontierDominance(t *testing.T) {
	defer func(prev bool) { Short = prev }(Short)
	Short = true
	res, err := SplitFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != ResultSchema {
		t.Errorf("schema = %q, want %q", res.Schema, ResultSchema)
	}
	if !stamped(res.Host) {
		t.Errorf("host shape not stamped: %+v", res.Host)
	}
	if len(res.Cells) == 0 || len(res.Verdicts) == 0 {
		t.Fatal("empty frontier")
	}
	dominated := 0
	for _, v := range res.Verdicts {
		if !v.Dominates {
			continue
		}
		dominated++
		if v.BestMS >= v.NEONMS || v.BestMS >= v.FPGAMS {
			t.Errorf("%s %s: verdict claims dominance but %.3f !< %.3f/%.3f",
				v.Size, v.Point, v.BestMS, v.NEONMS, v.FPGAMS)
		}
		if v.BestMJ >= v.FasterMJ {
			t.Errorf("%s %s: %.4f mJ !< faster exclusive %.4f", v.Size, v.Point, v.BestMJ, v.FasterMJ)
		}
	}
	if dominated == 0 {
		t.Fatal("no cell shows a cooperative split dominating exclusive routing")
	}
}

// TestSplitFrontierEndpointsMatchExclusives: the sweep's ratio-0 and
// ratio-1 cells are the degenerate splits, which the golden contract pins
// to the exclusive engines — so they must equal a fresh exclusive
// measurement exactly.
func TestSplitFrontierEndpointsMatchExclusives(t *testing.T) {
	defer func(prev bool) { Short = prev }(Short)
	Short = true
	res, err := SplitFrontier()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Verdicts {
		if v.NEONMS <= 0 || v.FPGAMS <= 0 {
			t.Errorf("%s %s: missing exclusive endpoints %+v", v.Size, v.Point, v)
		}
	}
}

// TestSplitFrontierJSONDeterministic pins the bench-hygiene contract:
// repeated emissions of the same record are byte-identical (stable schema
// field, deterministic key order), so BENCH_*.json diffs across PRs show
// model changes and nothing else.
func TestSplitFrontierJSONDeterministic(t *testing.T) {
	defer func(prev bool) { Short = prev }(Short)
	Short = true
	e, ok := Find("split-frontier")
	if !ok {
		t.Fatal("split-frontier missing")
	}
	if e.JSON == nil {
		t.Fatal("split-frontier has no JSON emitter")
	}
	marshal := func() []byte {
		v, err := e.JSON()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := marshal(), marshal()
	if !bytes.Equal(a, b) {
		t.Error("repeated JSON emissions differ")
	}
	if !strings.Contains(string(a), `"schema": "`+ResultSchema+`"`) {
		t.Errorf("record missing schema field:\n%.200s", a)
	}
	// Field order is declaration order: schema leads the record.
	if !strings.HasPrefix(string(a), "{\n  \"schema\":") {
		t.Errorf("schema is not the leading field:\n%.80s", a)
	}
}

// TestShortModeTrimsSweep keeps the smoke grid genuinely small so the CI
// job stays fast.
func TestShortModeTrimsSweep(t *testing.T) {
	defer func(prev bool) { Short = prev }(Short)
	Short = true
	sizes, points, ratios := splitFrontierAxes()
	short := len(sizes) * len(points) * len(ratios)
	Short = false
	sizes, points, ratios = splitFrontierAxes()
	full := len(sizes) * len(points) * len(ratios)
	if short >= full/4 {
		t.Errorf("short grid (%d cells) not meaningfully smaller than full (%d)", short, full)
	}
}
