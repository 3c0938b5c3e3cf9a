package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"zynqfusion/internal/sim"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewLogHistogram(0.001, 1e5, 4)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i)) // uniform 1..1000
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
	// Log buckets at 4/decade are coarse; allow the bucket-interpolation
	// error of one bucket ratio (10^(1/4) ~ 1.78x).
	checks := []struct{ q, want float64 }{{0.50, 500}, {0.95, 950}, {0.99, 990}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.want/1.8 || got > c.want*1.8 {
			t.Errorf("q%g = %g, want within bucket ratio of %g", c.q, got, c.want)
		}
	}
	if s.P50 != s.Quantile(0.50) || s.P99 != s.Quantile(0.99) {
		t.Error("snapshot percentiles disagree with Quantile")
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := NewLogHistogram(1, 1000, 3)
	if s := h.Snapshot(); s.Count != 0 || s.P50 != 0 || s.Mean != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	h.Observe(0)   // below lo: first bucket
	h.Observe(1e9) // above hi: overflow bucket
	h.Observe(-5)  // negative: first bucket, exact min kept
	s := h.Snapshot()
	if s.Count != 3 || s.Min != -5 || s.Max != 1e9 {
		t.Fatalf("edge snapshot: %+v", s)
	}
	if last := s.Buckets[len(s.Buckets)-1]; last.N != 2 {
		t.Fatalf("finite buckets hold %d, want 2 (one overflow)", last.N)
	}
	// The overflow-resident quantile reports the exact max.
	if q := s.Quantile(1.0); q != 1e9 {
		t.Fatalf("q100 = %g, want max", q)
	}
}

func TestHistogramDeterministic(t *testing.T) {
	mk := func() Summary {
		h := NewLogHistogram(0.001, 1e5, 4)
		v := 1.0
		for i := 0; i < 500; i++ {
			h.Observe(v)
			v = math.Mod(v*1.37+0.11, 900)
		}
		return h.Snapshot()
	}
	a, b := mk(), mk()
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("identical observation streams produced different summaries:\n%s\n%s", ja, jb)
	}
}

func TestHistogramMerge(t *testing.T) {
	h1 := NewLogHistogram(1, 1000, 3)
	h2 := NewLogHistogram(1, 1000, 3)
	all := NewLogHistogram(1, 1000, 3)
	for i := 1; i <= 100; i++ {
		h1.Observe(float64(i))
		all.Observe(float64(i))
	}
	for i := 500; i <= 700; i++ {
		h2.Observe(float64(i))
		all.Observe(float64(i))
	}
	s := h1.Snapshot()
	if err := s.Merge(h2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := all.Snapshot()
	if s.Count != want.Count || s.Sum != want.Sum || s.Min != want.Min || s.Max != want.Max ||
		s.P50 != want.P50 || s.P95 != want.P95 || s.P99 != want.P99 {
		t.Fatalf("merged summary %+v != combined %+v", s, want)
	}
	// Mismatched layouts refuse.
	other := NewLogHistogram(1, 1000, 4).Snapshot()
	other.Count = 1 // non-empty so the layout check runs
	if err := s.Merge(other); err == nil {
		t.Fatal("merging mismatched layouts did not error")
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewLogHistogram(0.001, 1e5, 4)
	v := 3.7
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(v); v += 0.9 }); allocs != 0 {
		t.Fatalf("Observe allocates %.1f per call, want 0", allocs)
	}
}

func TestEventRingBoundedAndOrdered(t *testing.T) {
	l := NewEventLog(4)
	a := l.Ring("a")
	b := l.Ring("b")
	a.Push(EventDrop, 1, 0, "")
	b.Push(EventDeadlineMiss, 2, 0, "")
	a.Push(EventOpSwitch, 3, 0, "444MHz")
	for i := 0; i < 10; i++ {
		b.Push(EventDrop, int64(10+i), 0, "")
	}
	// b's ring retains only the last 4; the merged view is seq-ordered.
	evs := l.Events("", 0)
	if len(evs) != 2+4 {
		t.Fatalf("merged events = %d, want 6", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order at %d: %+v", i, evs)
		}
	}
	only := l.Events("a", 0)
	if len(only) != 2 || only[0].Kind != EventDrop || only[1].Label != "444MHz" {
		t.Fatalf("stream filter: %+v", only)
	}
	if n := len(l.Events("", 3)); n != 3 {
		t.Fatalf("n trim: %d", n)
	}
	if n := len(l.Events("missing", 0)); n != 0 {
		t.Fatalf("unknown stream: %d events", n)
	}
}

func TestEventPushZeroAlloc(t *testing.T) {
	l := NewEventLog(64)
	r := l.Ring("s1")
	if allocs := testing.AllocsPerRun(100, func() { r.Push(EventDrop, 7, 0, "") }); allocs != 0 {
		t.Fatalf("Push allocates %.1f per call, want 0", allocs)
	}
}

func TestTraceRecorderRingAndFilter(t *testing.T) {
	r := NewTraceRecorder("s1", 8)
	for f := int64(0); f < 6; f++ {
		r.Span(f, "fuse", "fuse", sim.Time(f)*sim.Millisecond, sim.Time(f)*sim.Millisecond+sim.Microsecond)
		r.Span(f, "inverse", "inverse", sim.Time(f)*sim.Millisecond, sim.Time(f)*sim.Millisecond+sim.Microsecond)
	}
	all := r.Spans(0)
	if len(all) != 8 { // 12 pushed, ring holds 8
		t.Fatalf("retained %d spans, want 8", len(all))
	}
	last2 := r.Spans(2)
	for _, s := range last2 {
		if s.Frame < 4 {
			t.Fatalf("frames filter leaked frame %d", s.Frame)
		}
	}
	if len(last2) != 4 {
		t.Fatalf("last 2 frames = %d spans, want 4", len(last2))
	}
}

func TestTraceRecorderZeroAlloc(t *testing.T) {
	r := NewTraceRecorder("s1", 128)
	if allocs := testing.AllocsPerRun(100, func() {
		r.Span(1, "fuse", "fuse", 0, sim.Microsecond)
		r.Counter(1, "split_ratio", sim.Microsecond, 0.5)
	}); allocs != 0 {
		t.Fatalf("trace recording allocates %.1f per call, want 0", allocs)
	}
}

func TestWriteTraceWellFormed(t *testing.T) {
	r := NewTraceRecorder("s1", 32)
	r.Span(0, "fuse", "fuse", 0, sim.Millisecond)
	r.Instant(0, "dvfs", "533MHz", 0)
	r.Counter(0, "split_ratio", sim.Millisecond, 0.4)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []TraceView{{Process: r.Process(), Spans: r.Spans(0)}}); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range f.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["M"] < 2 || phases["X"] != 1 || phases["i"] != 1 || phases["C"] != 1 {
		t.Fatalf("phases: %v", phases)
	}
}

func TestPromEncoder(t *testing.T) {
	var buf bytes.Buffer
	p := NewProm(&buf)
	p.Family("farm_fused_total", "counter", "Fused frames.")
	p.Sample("", 12, Label{K: "stream", V: "s1"})
	p.Sample("", 3, Label{K: "stream", V: `we"ird\n`})
	h := NewLogHistogram(1, 100, 2)
	h.Observe(5)
	h.Observe(50)
	p.Family("farm_latency_ms", "histogram", "Frame latency.")
	p.Histogram(h.Snapshot(), Label{K: "stream", V: "s1"})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE farm_fused_total counter",
		`farm_fused_total{stream="s1"} 12`,
		`\"ird\\n`,
		`farm_latency_ms_bucket{stream="s1",le="+Inf"} 2`,
		`farm_latency_ms_count{stream="s1"} 2`,
		"farm_latency_ms_sum",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Duplicate series is an error.
	p2 := NewProm(&bytes.Buffer{})
	p2.Family("x_total", "counter", "x")
	p2.Sample("", 1)
	p2.Sample("", 2)
	if err := p2.Flush(); err == nil {
		t.Fatal("duplicate series not flagged")
	}
	// Bad names are errors.
	p3 := NewProm(&bytes.Buffer{})
	p3.Family("bad name", "counter", "x")
	if err := p3.Flush(); err == nil {
		t.Fatal("bad metric name not flagged")
	}
	p4 := NewProm(&bytes.Buffer{})
	p4.Family("ok_total", "counter", "x")
	p4.Sample("", 1, Label{K: "1bad", V: "v"})
	if err := p4.Flush(); err == nil {
		t.Fatal("bad label name not flagged")
	}
}
