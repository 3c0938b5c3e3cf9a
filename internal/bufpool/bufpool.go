// Package bufpool provides the frame-store arena of the reproduction: a
// sized, reference-counted pool of pixel planes modeled on the board's
// fixed set of VDMA frame stores in DDR.
//
// The paper's Zynq system never allocates per frame — capture, transform
// and display all read and write a small, fixed set of double-buffered
// frame stores, and memory traffic (not compute) bounds both speed and
// energy. The Go data path mirrors that: a Pool hands out leased
// frame.Frame planes from per-shape free lists, every stage passes the
// lease along instead of copying, and the final holder's Release returns
// the plane for the next frame. In steady state the fusion hot path
// performs no heap allocation at all.
//
// CapBytes bounds the arena the way the board's DDR budget does: once the
// pool's total footprint (leased + pooled bytes) reaches the cap, Get
// sheds parked planes and then fails with ErrOverCap. Sub-pools carve a
// budgeted slice out of a parent arena, giving each farm stream a
// deterministic memory ceiling.
//
// A leased plane's pixels are NOT cleared on reuse; the lease contract is
// that every sample is written before it is read, which the golden tests
// pin bit-for-bit against the allocating path.
package bufpool

import (
	"errors"
	"fmt"
	"sync"

	"zynqfusion/internal/frame"
)

// ErrOverCap reports a failed acquire on a pool at its byte cap.
var ErrOverCap = errors.New("bufpool: arena cap exceeded")

// Budget is the public sizing knob for a fuser's or farm's frame-store
// arena (zynqfusion.Options.BufferPool / farm.Config.BufferPool).
type Budget struct {
	// CapBytes bounds the whole arena's pixel-plane footprint in bytes
	// (0 = unbounded).
	CapBytes int64 `json:"cap_bytes"`
	// PerStream bounds each farm stream's budgeted sub-pool in bytes
	// (0 = bounded only by CapBytes). Ignored outside a farm.
	PerStream int64 `json:"per_stream_bytes"`
}

// bytesPerPixel is the footprint of one float32 sample.
const bytesPerPixel = 4

// Options configures a Pool.
type Options struct {
	// CapBytes bounds the arena footprint (leased plus pooled bytes).
	// Zero disables the bound.
	CapBytes int64
	// Passthrough disables pooling entirely: Get allocates a fresh plain
	// frame and Release recycles nothing. It is the allocating baseline
	// the golden tests and benchmarks compare the pooled path against.
	Passthrough bool
}

// Stats is a pool's telemetry snapshot.
type Stats struct {
	// Gets counts acquires; Hits of them were served from a free list,
	// Misses allocated fresh storage. Releases counts planes returned.
	Gets     int64 `json:"gets"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Releases int64 `json:"releases"`
	// Outstanding is the number of currently leased planes and
	// OutstandingBytes their footprint; PooledBytes is the free-list
	// footprint. Outstanding and OutstandingBytes include sub-pools.
	Outstanding      int64 `json:"outstanding"`
	OutstandingBytes int64 `json:"outstanding_bytes"`
	PooledBytes      int64 `json:"pooled_bytes"`
	// HighWaterBytes is the largest arena footprint (leased + pooled,
	// sub-pools included) ever reached — the working-set bound a fixed
	// frame-store budget would need.
	HighWaterBytes int64 `json:"high_water_bytes"`
	// CapBytes echoes the configured bound (0 = unbounded).
	CapBytes int64 `json:"cap_bytes"`
}

// HitRate returns the fraction of acquires served without allocating.
// Before any acquire the rate is vacuously perfect, reported as an
// explicit 1.0 so dashboards do not render a cold pool as a 0% hit rate.
func (s Stats) HitRate() float64 {
	if s.Gets == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Pool is a reference-counted frame-store arena. All methods are safe for
// concurrent use. The zero value is not usable; call New.
type Pool struct {
	opts   Options
	parent *Pool // non-nil for sub-pools; storage bytes charge upward

	mu       sync.Mutex
	free     map[int][]*frame.Frame // per-shape free lists, keyed by pixel count
	children []*Pool

	gets, hits, misses, releases int64
	outstanding                  int64 // leased planes (this pool only)
	outstandingBytes             int64
	pooledBytes                  int64
	childBytes                   int64 // sub-pool arena bytes charged here
	highWater                    int64

	// onShed, when set, observes every plane dropped at the cap (argument
	// is the plane's bytes). It runs with p.mu held, so it must only touch
	// leaf-locked state — an event ring, a counter — and never call back
	// into the pool.
	onShed func(planeBytes int64)
}

// New builds a pool.
func New(opts Options) *Pool {
	if opts.CapBytes < 0 {
		opts.CapBytes = 0
	}
	return &Pool{opts: opts, free: make(map[int][]*frame.Frame)}
}

// Passthrough returns the allocating baseline: a pool that never reuses.
func Passthrough() *Pool {
	return New(Options{Passthrough: true})
}

// Sub carves a budgeted sub-pool out of p: the child keeps its own free
// lists, caps and telemetry, while every byte it allocates also charges
// p's cap and high-water ledger. capBytes <= 0 leaves the child bounded
// only by the parent. Sub-pools of a passthrough pool are passthrough.
func (p *Pool) Sub(capBytes int64) *Pool {
	c := New(Options{CapBytes: capBytes, Passthrough: p.opts.Passthrough})
	c.parent = p
	p.mu.Lock()
	p.children = append(p.children, c)
	p.mu.Unlock()
	return c
}

// Cap reports the configured byte bound (0 = unbounded).
func (p *Pool) Cap() int64 { return p.opts.CapBytes }

// SetShedHook installs a callback observing every pooled plane this pool
// drops at the cap. The hook runs with the pool lock held (see onShed);
// install it before the pool sees traffic.
func (p *Pool) SetShedHook(fn func(planeBytes int64)) {
	p.mu.Lock()
	p.onShed = fn
	p.mu.Unlock()
}

// footprint is the arena total this pool answers for. Callers hold p.mu.
func (p *Pool) footprintLocked() int64 {
	return p.outstandingBytes + p.pooledBytes + p.childBytes
}

// Get leases a w x h plane with one reference: a per-shape free-list hit
// reuses a plane (pixels NOT cleared), a miss allocates within CapBytes.
// At the cap, Get trims the free lists first, then fails with ErrOverCap.
func (p *Pool) Get(w, h int) (*frame.Frame, error) {
	if w < 0 || h < 0 {
		return nil, fmt.Errorf("bufpool: bad shape %dx%d", w, h)
	}
	if p.opts.Passthrough {
		p.mu.Lock()
		p.gets++
		p.misses++
		p.mu.Unlock()
		return frame.New(w, h), nil
	}
	n := w * h
	bytes := int64(n) * bytesPerPixel

	p.mu.Lock()
	p.gets++
	if list := p.free[n]; len(list) > 0 {
		f := list[len(list)-1]
		p.free[n] = list[:len(list)-1]
		p.hits++
		p.pooledBytes -= bytes
		p.outstanding++
		p.outstandingBytes += bytes
		p.mu.Unlock()
		if !f.Rearm(w, h) {
			panic("bufpool: free-list plane lost its storage")
		}
		return f, nil
	}
	// Miss: admit fresh bytes under the cap, shedding pooled planes of
	// other shapes first — the arena is shared, not partitioned.
	for p.opts.CapBytes > 0 && p.footprintLocked()+bytes > p.opts.CapBytes {
		if !p.shedLocked() {
			p.mu.Unlock()
			return nil, fmt.Errorf("%w: need %d bytes for %dx%d, cap %d, leased %d",
				ErrOverCap, bytes, w, h, p.opts.CapBytes, p.outstandingBytes+p.childBytes)
		}
	}
	p.misses++
	p.outstanding++
	p.outstandingBytes += bytes
	p.mu.Unlock()

	// Fresh bytes must also fit the ancestors' arenas. When an ancestor
	// refuses, shed this pool's own parked planes (uncharging the chain)
	// and retry, so bytes idling on our free lists never starve our own
	// acquires; the peak ledger is only stamped once admission succeeds.
	for p.parent != nil {
		err := p.parent.admitChild(bytes)
		if err == nil {
			break
		}
		p.mu.Lock()
		shed := p.shedLocked()
		p.mu.Unlock()
		if !shed {
			p.mu.Lock()
			p.misses--
			p.outstanding--
			p.outstandingBytes -= bytes
			p.mu.Unlock()
			return nil, err
		}
	}
	p.mu.Lock()
	p.noteHighWaterLocked()
	p.mu.Unlock()
	return frame.NewLeased(w, h, p.recycle), nil
}

// shedLocked drops one pooled plane to make room, preferring the largest.
// It reports whether anything was freed. Callers hold p.mu.
func (p *Pool) shedLocked() bool {
	best := -1
	for n, list := range p.free {
		if len(list) > 0 && n > best {
			best = n
		}
	}
	if best < 0 {
		return false
	}
	list := p.free[best]
	f := list[len(list)-1]
	p.free[best] = list[:len(list)-1]
	bytes := int64(cap(f.Pix)) * bytesPerPixel
	p.pooledBytes -= bytes
	if p.onShed != nil {
		p.onShed(bytes)
	}
	if p.parent != nil {
		p.parent.releaseChild(bytes)
	}
	return true
}

// admitChild charges a sub-pool's fresh allocation against this pool's cap
// (and, recursively, its ancestors'). The bytes stay charged for as long
// as they live in the child's arena — leased or parked on its free lists —
// and are uncharged only when the child sheds the plane for good.
func (p *Pool) admitChild(bytes int64) error {
	p.mu.Lock()
	for p.opts.CapBytes > 0 && p.footprintLocked()+bytes > p.opts.CapBytes {
		if !p.shedLocked() {
			p.mu.Unlock()
			return fmt.Errorf("%w: sub-pool needs %d bytes, parent cap %d, leased %d",
				ErrOverCap, bytes, p.opts.CapBytes, p.outstandingBytes+p.childBytes)
		}
	}
	p.childBytes += bytes
	p.mu.Unlock()
	if p.parent != nil {
		if err := p.parent.admitChild(bytes); err != nil {
			p.mu.Lock()
			p.childBytes -= bytes
			p.mu.Unlock()
			return err
		}
	}
	p.mu.Lock()
	p.noteHighWaterLocked()
	p.mu.Unlock()
	return nil
}

// releaseChild uncharges sub-pool bytes freed for good (a shed plane).
func (p *Pool) releaseChild(bytes int64) {
	p.mu.Lock()
	p.childBytes -= bytes
	p.mu.Unlock()
	if p.parent != nil {
		p.parent.releaseChild(bytes)
	}
}

// noteHighWaterLocked records the footprint peak. Callers hold p.mu.
func (p *Pool) noteHighWaterLocked() {
	if fp := p.footprintLocked(); fp > p.highWater {
		p.highWater = fp
	}
}

// recycle parks a fully released plane on its shape's free list; it is the
// frame lease's recycler, invoked by the final frame.Release. Pool-owned
// planes always have len(Pix) == cap(Pix) (leases are cut exactly to
// shape), so the free lists key by capacity and every same-shape Get is a
// hit.
func (p *Pool) recycle(f *frame.Frame) {
	n := cap(f.Pix)
	bytes := int64(n) * bytesPerPixel
	p.mu.Lock()
	p.releases++
	p.outstanding--
	p.outstandingBytes -= bytes
	p.pooledBytes += bytes
	p.free[n] = append(p.free[n], f)
	p.mu.Unlock()
}

// Drain empties the pool's free lists, uncharging the freed bytes from
// every ancestor's arena, and — once no leases are outstanding — detaches
// the pool from its parent so a retired sub-pool stops occupying the
// shared cap and the parent's child ledger. A farm stream drains its
// sub-pool when it finishes; without this, stream churn under a capped
// arena would permanently strand each dead stream's parked planes. The
// drained pool remains usable for telemetry (and even new acquires, which
// simply re-admit against its own cap alone once detached).
func (p *Pool) Drain() {
	p.mu.Lock()
	var freed int64
	for n, list := range p.free {
		for _, f := range list {
			freed += int64(cap(f.Pix)) * bytesPerPixel
		}
		delete(p.free, n)
	}
	p.pooledBytes = 0
	outstanding := p.outstanding
	kids := append([]*Pool(nil), p.children...)
	p.mu.Unlock()
	for _, c := range kids {
		outstanding += c.Outstanding()
	}
	parent := p.parent
	if parent == nil {
		return
	}
	if freed > 0 {
		parent.releaseChild(freed)
	}
	if outstanding == 0 {
		parent.detach(p)
		p.parent = nil
	}
}

// detach removes a drained sub-pool from the child list.
func (p *Pool) detach(c *Pool) {
	p.mu.Lock()
	for i, k := range p.children {
		if k == c {
			last := len(p.children) - 1
			p.children[i] = p.children[last]
			p.children[last] = nil
			p.children = p.children[:last]
			break
		}
	}
	p.mu.Unlock()
}

// Outstanding reports the number of live leases, sub-pools included — the
// leak detector's probe: after every pipeline and stream has closed it
// must be zero.
func (p *Pool) Outstanding() int64 {
	p.mu.Lock()
	out := p.outstanding
	kids := append([]*Pool(nil), p.children...) // detach reuses the backing array
	p.mu.Unlock()
	for _, c := range kids {
		out += c.Outstanding()
	}
	return out
}

// CheckLeaks returns an error describing any lease still out.
func (p *Pool) CheckLeaks() error {
	st := p.Stats()
	if st.Outstanding != 0 {
		return fmt.Errorf("bufpool: %d leases unreturned (%d bytes)",
			st.Outstanding, st.OutstandingBytes)
	}
	return nil
}

// Stats snapshots the pool's telemetry. Every counter except CapBytes and
// HighWaterBytes rolls up the sub-pools, so a farm's root pool reports the
// whole arena's traffic; HighWaterBytes is already arena-wide (sub-pool
// bytes charge their ancestors as they are admitted), and each sub-pool's
// own Stats gives the per-stream view.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	st := Stats{
		Gets:             p.gets,
		Hits:             p.hits,
		Misses:           p.misses,
		Releases:         p.releases,
		Outstanding:      p.outstanding,
		OutstandingBytes: p.outstandingBytes,
		PooledBytes:      p.pooledBytes,
		HighWaterBytes:   p.highWater,
		CapBytes:         p.opts.CapBytes,
	}
	kids := append([]*Pool(nil), p.children...) // detach reuses the backing array
	p.mu.Unlock()
	for _, c := range kids {
		cs := c.Stats()
		st.Gets += cs.Gets
		st.Hits += cs.Hits
		st.Misses += cs.Misses
		st.Releases += cs.Releases
		st.Outstanding += cs.Outstanding
		st.OutstandingBytes += cs.OutstandingBytes
		st.PooledBytes += cs.PooledBytes
	}
	return st
}

// MustGet is Get for in-pipeline scratch where a failed acquire has no
// recovery path (the caller sized the pool, or it is unbounded).
func (p *Pool) MustGet(w, h int) *frame.Frame {
	f, err := p.Get(w, h)
	if err != nil {
		panic("bufpool: " + err.Error())
	}
	return f
}
