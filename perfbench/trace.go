package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanID indexes a tracer's span list; noSpan is the root's parent.
type spanID int32

const noSpan spanID = -1

// span is one wall-clock interval recorded around a call into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     spanID
	frame      int64
}

// tracer keeps wall spans in memory for the whole run; they are written
// out once, at the end. A nil *tracer records nothing, so untraced code
// paths call the same methods.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) begin(name string, parent spanID, frame int64) spanID {
	if t == nil {
		return noSpan
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, frame: frame})
	return spanID(len(t.spans) - 1)
}

func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]spanID, len(t.spans))
	for i, s := range t.spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], spanID(i))
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].start < t.spans[kids[b]].start })
		var covered time.Duration
		cur := s.start
		for _, k := range kids {
			lo, hi := t.spans[k].start, t.spans[k].end
			if lo < cur {
				lo = cur
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerStats holds, for each span name, the summed self time of that
// name's spans in each frame.
type layerStats map[string]map[int64]time.Duration

func (t *tracer) layers() layerStats {
	self := t.selfTimes()
	ls := layerStats{}
	for i, s := range t.spans {
		byFrame := ls[s.name]
		if byFrame == nil {
			byFrame = map[int64]time.Duration{}
			ls[s.name] = byFrame
		}
		byFrame[s.frame] += self[i]
	}
	return ls
}

// perFrameMS is the median over frames of the summed self time of the named
// spans in each frame, in milliseconds. Frames holding none of the spans do
// not count; no frame at all gives 0.
func (ls layerStats) perFrameMS(names ...string) float64 {
	sum := map[int64]time.Duration{}
	for _, n := range names {
		for f, d := range ls[n] {
			sum[f] += d
		}
	}
	if len(sum) == 0 {
		return 0
	}
	xs := make([]float64, 0, len(sum))
	for _, d := range sum {
		xs = append(xs, float64(d)/1e6)
	}
	return median(xs)
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome-trace JSON (microsecond
// timestamps), loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		parent := ""
		if s.parent != noSpan {
			parent = t.spans[s.parent].name
		}
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"frame": s.frame, "parent": parent, "id": i},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
