package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds recorded by the farm. The set is closed on purpose: a
// dashboard can switch on Kind without defending against free-form text,
// and the hot-path Push never formats strings.
const (
	// EventDrop is a capture pair evicted by backpressure or shutdown.
	EventDrop = "drop"
	// EventDeadlineMiss is a frame that overran its deadline.
	EventDeadlineMiss = "deadline-miss"
	// EventLeaseDenial is a refused FPGA lease (Label "budget" when the
	// power budget, rather than contention, refused it).
	EventLeaseDenial = "lease-denial"
	// EventOpSwitch is a DVFS operating-point change (Label = new point).
	EventOpSwitch = "op-switch"
	// EventPoolShed is a frame-store plane dropped at the arena cap
	// (Value = plane bytes).
	EventPoolShed = "pool-shed"
	// EventStreamStart and EventStreamStop bracket a stream's lifetime.
	EventStreamStart = "stream-start"
	EventStreamStop  = "stream-stop"
	// EventStreamError is a terminal stream error (Label = error text).
	EventStreamError = "stream-error"
	// EventAlertFire and EventAlertClear are SLO burn-rate alert edges
	// (Label = "sli/severity", Value = the limiting window's burn rate).
	EventAlertFire  = "alert-fire"
	EventAlertClear = "alert-clear"
	// EventDegrade and EventRestore are degradation-controller actions
	// (Label = the action, Value = the resulting stage count).
	EventDegrade = "degrade"
	EventRestore = "restore"
	// EventAdmissionRefused is a stream submission refused while the farm
	// error budget was burning (Label = refused stream id, on the "farm"
	// ring).
	EventAdmissionRefused = "admission-refused"
)

// Event is one structured entry in a stream's event ring.
type Event struct {
	// Seq is a log-wide monotone sequence number; merging per-stream rings
	// by Seq reconstructs the farm-wide order of occurrence.
	Seq uint64 `json:"seq"`
	// WallNS is the host wall-clock at Push (UnixNano). Operational only —
	// the modeled timeline lives in the trace, not here.
	WallNS int64  `json:"wall_ns"`
	Stream string `json:"stream"`
	Kind   string `json:"kind"`
	// Frame is the stream frame the event belongs to (-1 when unknown,
	// e.g. a producer-side drop).
	Frame int64 `json:"frame"`
	// Value carries a numeric payload (shed bytes, slack overrun ms).
	Value float64 `json:"value,omitempty"`
	// Label carries a short categorical payload (new operating point,
	// error text, "budget").
	Label string `json:"label,omitempty"`
}

// EventLog owns the per-stream event rings and the shared sequence
// counter. All methods are safe for concurrent use.
type EventLog struct {
	seq     atomic.Uint64
	perRing int

	mu    sync.Mutex
	rings map[string]*EventRing
	order []string
}

// DefaultEventsPerStream is the ring capacity when NewEventLog gets 0.
const DefaultEventsPerStream = 256

// NewEventLog builds a log whose per-stream rings hold perRing events each
// (0 selects DefaultEventsPerStream).
func NewEventLog(perRing int) *EventLog {
	if perRing <= 0 {
		perRing = DefaultEventsPerStream
	}
	return &EventLog{perRing: perRing, rings: make(map[string]*EventRing)}
}

// Ring returns (creating on first use) the named stream's event ring.
func (l *EventLog) Ring(stream string) *EventRing {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.rings[stream]
	if !ok {
		r = &EventRing{log: l, stream: stream, ring: make([]Event, l.perRing)}
		l.rings[stream] = r
		l.order = append(l.order, stream)
	}
	return r
}

// Events returns up to n most recent events (n <= 0 means all retained),
// filtered to one stream when stream != "", otherwise merged across every
// ring in farm-wide order of occurrence.
func (l *EventLog) Events(stream string, n int) []Event {
	l.mu.Lock()
	var rings []*EventRing
	if stream != "" {
		if r, ok := l.rings[stream]; ok {
			rings = append(rings, r)
		}
	} else {
		for _, id := range l.order {
			rings = append(rings, l.rings[id])
		}
	}
	l.mu.Unlock()

	var out []Event
	for _, r := range rings {
		out = append(out, r.snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// EventsSince returns retained events with Seq > since in farm-wide
// order — the forward-pagination contract behind /events?since=N. Unlike
// Events, which keeps the n most *recent*, EventsSince keeps the n
// *oldest* matches (n <= 0 means all), so a poller walking the returned
// cursor never skips an event that is still retained and never reads one
// twice. The cursor is the last returned Seq (since itself when nothing
// matched); events evicted from a ring before the poller catches up are
// lost to it, as with any bounded buffer.
func (l *EventLog) EventsSince(stream string, since uint64, n int) ([]Event, uint64) {
	evs := l.Events(stream, 0)
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Seq > since })
	evs = evs[i:]
	if n > 0 && len(evs) > n {
		evs = evs[:n]
	}
	next := since
	if len(evs) > 0 {
		next = evs[len(evs)-1].Seq
	}
	return evs, next
}

// EventRing is one stream's bounded event buffer. Push overwrites the
// oldest event once full and allocates nothing, so emitting an event is
// safe from any hot path (it is also safe under foreign locks: the ring
// lock is a leaf and Push calls nothing back). Safe for concurrent use.
type EventRing struct {
	log    *EventLog
	stream string

	mu    sync.Mutex
	ring  []Event
	next  int
	total int64
}

// Push appends an event, stamping the shared sequence number and the wall
// clock. Zero allocations.
func (r *EventRing) Push(kind string, frame int64, value float64, label string) {
	e := Event{
		Seq:    r.log.seq.Add(1),
		WallNS: time.Now().UnixNano(),
		Stream: r.stream,
		Kind:   kind,
		Frame:  frame,
		Value:  value,
		Label:  label,
	}
	r.mu.Lock()
	r.ring[r.next] = e
	r.next = (r.next + 1) % len(r.ring)
	r.total++
	r.mu.Unlock()
}

// snapshot copies the retained events in push order.
func (r *EventRing) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	if r.total <= int64(len(r.ring)) {
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	}
	return out
}
