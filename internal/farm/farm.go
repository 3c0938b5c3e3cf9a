package farm

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"zynqfusion/internal/bufpool"
	"zynqfusion/internal/obs"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/slo"
)

// Sentinel submission errors, matchable with errors.Is.
var (
	// ErrClosed reports a Submit on a closed farm.
	ErrClosed = errors.New("farm: closed")
	// ErrDuplicate reports a Submit reusing a live stream id.
	ErrDuplicate = errors.New("farm: duplicate stream id")
	// ErrSLOBurning reports a Submit refused by SLO admission control:
	// some stream's page alert is active, and admitting more work while
	// the error budget burns would dilute the remaining budget across
	// more streams. Served as 503 so clients retry elsewhere or later.
	ErrSLOBurning = errors.New("farm: admission refused, error budget burning")
)

// Config configures a Farm.
type Config struct {
	// PowerBudget caps the aggregate modeled board power across all
	// streams; while granting the wave engine would exceed it, streams
	// fall back to NEON. Zero disables the budget.
	PowerBudget sim.Watts `json:"power_budget_watts"`
	// DefaultQueueCap overrides the per-stream capture queue depth for
	// streams that do not set their own (default 4).
	DefaultQueueCap int `json:"default_queue_cap"`
	// BufferPool sizes the farm's shared frame-store arena: CapBytes
	// bounds the whole farm's pixel-plane footprint and PerStream gives
	// each stream's budgeted sub-pool (zero = unbounded). A stream that
	// cannot fit its working set in its budget fails its frame with a
	// descriptive ErrOverCap instead of growing, so fusiond gets a
	// deterministic, configurable memory ceiling.
	BufferPool bufpool.Budget `json:"buffer_pool"`
	// SLO is the farm's service-level-objective rule set (nil disables
	// the SLO engine for streams that do not declare their own). When
	// set, stream objectives resolve against it at Submit, burning
	// streams are degraded by the closed-loop controller, and new-stream
	// admission is refused while any page alert is active.
	SLO *slo.Rules `json:"slo,omitempty"`
}

// Farm runs many fusion streams over per-worker pipelines and a shared
// energy governor. All methods are safe for concurrent use.
type Farm struct {
	cfg    Config
	gov    *Governor
	pool   *bufpool.Pool // shared frame-store arena; streams get sub-pools
	events *obs.EventLog // per-stream structured event rings

	// admissionRefused counts submissions refused by SLO admission
	// control.
	admissionRefused atomic.Int64

	mu      sync.Mutex
	streams map[string]*Stream
	pending map[string]struct{} // ids reserved by in-flight Submits
	order   []string            // submission order, for stable listings
	nextID  int64
	closed  bool
}

// New builds an empty farm.
func New(cfg Config) *Farm {
	f := &Farm{
		cfg:     cfg,
		gov:     NewGovernor(cfg.PowerBudget),
		pool:    bufpool.New(bufpool.Options{CapBytes: cfg.BufferPool.CapBytes}),
		events:  obs.NewEventLog(0),
		streams: make(map[string]*Stream),
		pending: make(map[string]struct{}),
	}
	// Denied leases become structured events on the denied stream's ring.
	// The observer runs outside the governor lock, so looking up the ring
	// (which briefly takes the event-log map lock) is safe.
	f.gov.SetLeaseObserver(func(stream string, granted, budget bool) {
		if granted {
			return
		}
		label := ""
		if budget {
			label = "budget"
		}
		f.events.Ring(stream).Push(obs.EventLeaseDenial, -1, 0, label)
	})
	return f
}

// Governor exposes the shared arbiter (read-mostly: stats and spans).
func (f *Farm) Governor() *Governor { return f.gov }

// Pool exposes the farm's shared frame-store arena (stats, leak checks).
func (f *Farm) Pool() *bufpool.Pool { return f.pool }

// Submit validates, registers and starts a stream. Stream construction —
// which for a deadline-paced stream includes the per-operating-point
// predictor calibration — runs outside the farm lock, so a slow Submit
// never stalls metrics reads or other submissions; the id is reserved
// while it builds.
func (f *Farm) Submit(cfg StreamConfig) (*Stream, error) {
	// SLO admission control runs first (it reads the stream list, so it
	// cannot hold f.mu): while any stream's page alert burns, the farm
	// sheds new work instead of spreading the remaining budget thinner.
	// The refusal is recorded on the synthetic "farm" event ring.
	if f.cfg.SLO != nil && !f.cfg.SLO.NoAdmissionControl && f.SLOBurning() {
		f.admissionRefused.Add(1)
		f.events.Ring("farm").Push(obs.EventAdmissionRefused, -1, 0, cfg.ID)
		return nil, ErrSLOBurning
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	// Only an unset (zero) depth takes the farm default; a negative depth
	// must reach stream validation and be rejected, not papered over.
	if cfg.QueueCap == 0 && f.cfg.DefaultQueueCap > 0 {
		cfg.QueueCap = f.cfg.DefaultQueueCap
	}
	if cfg.ID == "" {
		// Skip over user-chosen ids that happen to look like ours.
		for {
			f.nextID++
			cfg.ID = fmt.Sprintf("s%d", f.nextID)
			if !f.idTakenLocked(cfg.ID) {
				break
			}
		}
	}
	if f.idTakenLocked(cfg.ID) {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, cfg.ID)
	}
	f.pending[cfg.ID] = struct{}{}
	f.mu.Unlock()

	// Refuse an invalid config before its event ring and sub-pool exist,
	// so a rejected submission leaves nothing behind in the farm.
	if _, err := resolveStream(cfg, f.cfg.SLO); err != nil {
		f.mu.Lock()
		delete(f.pending, cfg.ID)
		f.mu.Unlock()
		return nil, err
	}
	ring := f.events.Ring(cfg.ID)
	sub := f.pool.Sub(f.cfg.BufferPool.PerStream)
	// The shed hook runs under the pool lock; pushing to the pre-resolved
	// leaf-locked ring is the only thing it may do.
	sub.SetShedHook(func(planeBytes int64) {
		ring.Push(obs.EventPoolShed, -1, float64(planeBytes), "")
	})
	s, err := newStream(cfg, f.gov, sub, ring, f.cfg.SLO)

	f.mu.Lock()
	delete(f.pending, cfg.ID)
	if err == nil && f.closed {
		err = ErrClosed
	}
	if err != nil {
		f.mu.Unlock()
		return nil, err
	}
	f.streams[cfg.ID] = s
	f.order = append(f.order, cfg.ID)
	f.mu.Unlock()
	s.start()
	return s, nil
}

// idTakenLocked reports whether an id is in use by a live or in-flight
// stream. Callers hold f.mu.
func (f *Farm) idTakenLocked(id string) bool {
	if _, live := f.streams[id]; live {
		return true
	}
	_, building := f.pending[id]
	return building
}

// Get returns a stream by id.
func (f *Farm) Get(id string) (*Stream, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.streams[id]
	return s, ok
}

// List returns the streams in submission order.
func (f *Farm) List() []*Stream {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Stream, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, f.streams[id])
	}
	return out
}

// Stop stops one stream (and waits for its worker to exit).
func (f *Farm) Stop(id string) error {
	s, ok := f.Get(id)
	if !ok {
		return fmt.Errorf("farm: no stream %q", id)
	}
	s.Stop()
	<-s.Done()
	return nil
}

// Forget removes a *finished* stream from the farm's registry, freeing
// its id for reuse. The fleet coordinator calls it after migrating a
// stream off this board, so the same stream can later migrate back
// without colliding with its own retired segment. The governor's energy
// ledger keeps the retired segment's accounting. Forgetting a stream
// that is still running is refused.
func (f *Farm) Forget(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.streams[id]
	if !ok {
		return fmt.Errorf("farm: no stream %q", id)
	}
	select {
	case <-s.Done():
	default:
		return fmt.Errorf("farm: stream %q still running", id)
	}
	delete(f.streams, id)
	for i, sid := range f.order {
		if sid == id {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	return nil
}

// SetPowerBudget rebinds the farm's aggregate power budget at runtime —
// the lever fleet-wide power arbitration pulls to split a fleet budget
// across boards as demand shifts. Zero disables budget enforcement.
func (f *Farm) SetPowerBudget(w sim.Watts) { f.gov.SetBudget(w) }

// Wait blocks until every currently-submitted stream has finished.
// Unbounded streams must be stopped first.
func (f *Farm) Wait() {
	for _, s := range f.List() {
		<-s.Done()
	}
}

// Close stops every stream and refuses further submissions.
func (f *Farm) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	for _, s := range f.List() {
		s.Stop()
	}
	f.Wait()
}

// Closed reports whether the farm has begun shutting down: submissions are
// refused and the health endpoint flips to draining.
func (f *Farm) Closed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// Events returns up to n most recent structured events (n <= 0 means all
// retained), filtered to one stream when stream != "", merged across all
// streams in farm-wide order otherwise.
func (f *Farm) Events(stream string, n int) []obs.Event {
	return f.events.Events(stream, n)
}

// EventsSince returns up to n of the *oldest* retained events with
// Seq > since, plus the cursor for the next poll — the forward
// pagination behind /events?since=N.
func (f *Farm) EventsSince(stream string, since uint64, n int) ([]obs.Event, uint64) {
	return f.events.EventsSince(stream, since, n)
}

// SLOBurning reports whether any stream's page-severity SLO alert is
// currently firing.
func (f *Farm) SLOBurning() bool {
	for _, s := range f.List() {
		if s.PageActive() {
			return true
		}
	}
	return false
}

// Trace assembles the farm's Chrome-trace view: one process per stream
// (sorted by id so identical farms export identical traces), each with a
// track per pipeline station plus the dvfs/counter tracks, and one
// "fpga-lease" process whose single track shows the shared wave engine's
// granted spans labeled by holder. frames trims each stream to its last
// frames distinct frame numbers (<= 0 keeps everything retained). It
// reports false when the named stream does not exist.
func (f *Farm) Trace(stream string, frames int) ([]obs.TraceView, bool) {
	var streams []*Stream
	if stream != "" {
		s, ok := f.Get(stream)
		if !ok {
			return nil, false
		}
		streams = []*Stream{s}
	} else {
		streams = f.List()
		sort.Slice(streams, func(i, j int) bool { return streams[i].ID() < streams[j].ID() })
	}
	views := make([]obs.TraceView, 0, len(streams)+1)
	for _, s := range streams {
		views = append(views, obs.TraceView{Process: s.ID(), Spans: s.TraceSpans(frames)})
	}
	lease := f.gov.lease
	views = append(views, obs.TraceView{Process: lease.Process(), Spans: lease.Spans(0)})
	return views, true
}

// Metrics snapshots the whole farm: per-stream telemetry sorted by id,
// the aggregate rollup, and the governor's view.
func (f *Farm) Metrics() Metrics {
	streams := f.List()
	teles := make([]StreamTelemetry, len(streams))
	for i, s := range streams {
		teles[i] = s.Telemetry()
	}
	sort.Slice(teles, func(i, j int) bool { return teles[i].ID < teles[j].ID })

	var agg AggregateTelemetry
	agg.Streams = len(teles)
	var aggLat, aggEnergy obs.Summary
	for _, t := range teles {
		if t.Running {
			agg.Active++
		}
		// Stream layouts are shared by construction, so the merges cannot
		// fail; cloning keeps the in-place fold off the stream summaries.
		if t.LatencyHist != nil {
			_ = aggLat.Merge(t.LatencyHist.Clone())
		}
		if t.EnergyHist != nil {
			_ = aggEnergy.Merge(t.EnergyHist.Clone())
		}
		agg.Captured += t.Captured
		agg.Fused += t.Fused
		agg.Dropped += t.Dropped
		agg.Busy += t.Stages.Total
		if t.Stages.Total > agg.WallTime {
			agg.WallTime = t.Stages.Total
		}
		agg.Energy += t.Stages.Energy
		agg.DeadlineMisses += t.DeadlineMisses
		agg.SlackEnergy += t.SlackEnergy
	}
	if aggLat.Count > 0 {
		agg.LatencyHist = &aggLat
	}
	if aggEnergy.Count > 0 {
		agg.EnergyHist = &aggEnergy
	}
	if agg.Fused > 0 {
		agg.EnergyPerFrame = agg.Energy / sim.Joules(agg.Fused)
	}
	if agg.WallTime > 0 {
		agg.FusedPerSecond = float64(agg.Fused) / agg.WallTime.Seconds()
	}
	gov := f.gov.Stats()
	// The governor's ledger is the single source of truth for the farm's
	// current board draw; the rollup copies it rather than re-deriving.
	agg.AggregatePower = gov.AggregatePower
	return Metrics{
		Streams:   teles,
		Aggregate: agg,
		Governor:  gov,
		Memory:    f.memoryTelemetry(),
		SLO:       f.sloRollup(teles),
	}
}

// sloRollup folds the per-stream SLO snapshots into the farm-wide view:
// fused-frame-weighted health, active alert counts, and the admission
// ledger. Nil when the SLO engine is entirely unconfigured.
func (f *Farm) sloRollup(teles []StreamTelemetry) *SLOTelemetry {
	r := SLOTelemetry{Health: 100, AdmissionRefused: f.admissionRefused.Load()}
	var weighted float64
	var weight int64
	for _, t := range teles {
		if t.SLO == nil {
			continue
		}
		r.StreamsWithSLO++
		w := t.Fused
		if w < 1 {
			w = 1 // a stream that has not fused yet still counts
		}
		weighted += float64(t.SLO.Health * float64(w))
		weight += w
		for _, si := range t.SLO.SLIs {
			for _, al := range si.Alerts {
				if !al.Active {
					continue
				}
				if al.Severity == slo.SevPage {
					r.ActivePageAlerts++
				} else {
					r.ActiveTicketAlerts++
				}
			}
		}
		if t.Degradation != nil {
			for _, n := range t.Degradation.Actions {
				r.DegradeActions += n
			}
		}
	}
	if f.cfg.SLO == nil && r.StreamsWithSLO == 0 {
		return nil
	}
	if weight > 0 {
		r.Health = weighted / float64(weight)
	}
	r.Burning = r.ActivePageAlerts > 0
	return &r
}

// memoryTelemetry samples the Go runtime and the frame-store arena, so
// operators can watch the pooling win (allocs, GC pressure, hit rate,
// high-water footprint) live on /metrics and in the graceful-drain flush.
func (f *Farm) memoryTelemetry() MemoryTelemetry {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps := f.pool.Stats()
	return MemoryTelemetry{
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		Mallocs:        ms.Mallocs,
		GCCycles:       ms.NumGC,
		GCPauseTotalNS: ms.PauseTotalNs,
		Pool:           ps,
		PoolHitRate:    ps.HitRate(),
	}
}
