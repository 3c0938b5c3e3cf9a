package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"zynqfusion/internal/farm"
	"zynqfusion/internal/frame"
	"zynqfusion/internal/sim"
)

// Sentinel errors, matchable with errors.Is. Submit also wraps
// farm.ErrSLOBurning when every board refuses admission, so fusiond's
// 503 mapping works unchanged fleet-wide.
var (
	// ErrClosed reports an operation on a closed fleet.
	ErrClosed = errors.New("fleet: closed")
	// ErrUnknownStream reports an id with no placement.
	ErrUnknownStream = errors.New("fleet: unknown stream")
	// ErrUnknownBoard reports an id with no board.
	ErrUnknownBoard = errors.New("fleet: unknown board")
	// ErrStreamLost reports an operation on a stream that died with an
	// unevacuated board kill.
	ErrStreamLost = errors.New("fleet: stream lost with its board")
)

// Config configures a Fleet.
type Config struct {
	// Boards is the board count M (at least 1).
	Boards int `json:"boards"`
	// PowerBudget is the fleet-wide power cap the coordinator arbitrates
	// across the per-board governors as demand shifts; each board is
	// guaranteed at least budget/(2M) so a cold board can still win its
	// first wave-engine lease. Zero leaves every board at the template's
	// own budget, unarbitrated.
	PowerBudget sim.Watts `json:"power_budget_watts"`
	// Board is the per-board farm template: queue defaults, per-board
	// bufpool arena bounds, SLO rules. Its PowerBudget field is the
	// per-board cap used when the fleet-wide budget is zero.
	Board farm.Config `json:"board"`
	// LoadFactor is the bounded-load expansion c (<= 0 selects 1.25):
	// no board holds more than ceil(c·K/M) of K placed streams.
	LoadFactor float64 `json:"load_factor"`
	// VNodes is the consistent-hash virtual-node count per board (<= 0
	// selects DefaultVNodes).
	VNodes int `json:"vnodes"`
}

// board is one modeled Zynq board: its own farm — wave engine, DVFS
// ladder, power governor, bufpool arena — plus fleet bookkeeping.
type board struct {
	id    string
	farm  *farm.Farm
	up    bool
	epoch int // restore generations
	// budget is the board's current arbitrated power cap.
	budget sim.Watts
}

// placement is one stream's fleet record: where it runs now, its
// migration lineage, and the accounting of retired (pre-migration)
// segments, which leave their boards' farms when the stream moves on.
type placement struct {
	id    string
	board string
	cfg   farm.StreamConfig // effective config of the current segment
	moves int
	dead  bool // lost to an unevacuated board kill

	// Retired-segment accumulators (the live segment's telemetry comes
	// from its farm).
	priorFused   int64
	priorDropped int64
	priorMisses  int64
	priorEnergy  sim.Joules
	priorBusy    sim.Time

	// lastSnap preserves the newest fused frame across a migration (a
	// plain clone), so /snapshot keeps serving through the handoff gap
	// before the continuation's first frame fuses.
	lastSnap *frame.Frame
}

// Fleet coordinates M boards behind consistent-hash placement with
// bounded load, fleet-wide admission control and power arbitration, and
// live stream migration. All methods are safe for concurrent use; the
// control plane is serialized on one mutex while the streams themselves
// fuse concurrently inside their boards' farms.
type Fleet struct {
	cfg  Config
	ring *Ring

	mu         sync.Mutex
	boards     map[string]*board
	order      []string // board ids in construction order
	placements map[string]*placement
	placeOrder []string // stream ids in submission order
	migrations []Migration
	retired    []*farm.Farm // closed farms of killed boards, kept for leak checks
	refused    int64        // fleet-wide admission refusals
	nextID     int64
	closed     bool
}

// New builds a fleet of cfg.Boards boards named board0..board{M-1}.
func New(cfg Config) (*Fleet, error) {
	if cfg.Boards < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 board, got %d", cfg.Boards)
	}
	if cfg.LoadFactor <= 0 {
		cfg.LoadFactor = DefaultLoadFactor
	}
	c := &Fleet{
		cfg:        cfg,
		ring:       NewRing(cfg.VNodes),
		boards:     make(map[string]*board),
		placements: make(map[string]*placement),
	}
	for i := 0; i < cfg.Boards; i++ {
		id := fmt.Sprintf("board%d", i)
		c.boards[id] = &board{id: id, farm: farm.New(c.boardConfig()), up: true,
			budget: c.boardConfig().PowerBudget}
		c.order = append(c.order, id)
		c.ring.Add(id)
	}
	c.mu.Lock()
	c.arbitrateLocked()
	c.mu.Unlock()
	return c, nil
}

// boardConfig derives one board's farm config from the template: with a
// fleet-wide budget the board starts at an even share (arbitration
// re-splits it as demand shifts), otherwise the template's own cap
// applies.
func (c *Fleet) boardConfig() farm.Config {
	fc := c.cfg.Board
	if c.cfg.PowerBudget > 0 {
		fc.PowerBudget = c.cfg.PowerBudget / sim.Watts(c.cfg.Boards)
	}
	return fc
}

// upBoardsLocked returns the live board ids in construction order.
func (c *Fleet) upBoardsLocked() []string {
	out := make([]string, 0, len(c.order))
	for _, id := range c.order {
		if c.boards[id].up {
			out = append(out, id)
		}
	}
	return out
}

// loadLocked counts live (non-dead) placements per board.
func (c *Fleet) loadLocked() map[string]int {
	load := make(map[string]int, len(c.boards))
	for _, p := range c.placements {
		if !p.dead {
			load[p.board]++
		}
	}
	return load
}

// liveCountLocked counts live placements fleet-wide.
func (c *Fleet) liveCountLocked() int {
	n := 0
	for _, p := range c.placements {
		if !p.dead {
			n++
		}
	}
	return n
}

// Submit places and starts a stream on the fleet. An empty id gets a
// fleet-assigned "f<n>". Placement is consistent-hash with bounded load
// over the live boards; a board whose farm refuses admission (its SLO
// error budget is burning) is skipped and the walk continues, so one
// burning board shifts load instead of browning out the fleet — only
// when *every* live board refuses does Submit fail, wrapping
// farm.ErrSLOBurning so HTTP clients still see the 503 backpressure
// contract.
func (c *Fleet) Submit(cfg farm.StreamConfig) (*farm.Stream, string, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, "", ErrClosed
	}
	if cfg.ID == "" {
		for {
			c.nextID++
			cfg.ID = fmt.Sprintf("f%d", c.nextID)
			if _, taken := c.placements[cfg.ID]; !taken {
				break
			}
			cfg.ID = ""
		}
	}
	if _, taken := c.placements[cfg.ID]; taken {
		return nil, "", c.unlockErr(fmt.Errorf("fleet: duplicate stream id %q: %w", cfg.ID, farm.ErrDuplicate))
	}
	load := c.loadLocked()
	capPer := BoundedCap(c.liveCountLocked()+1, len(c.upBoardsLocked()), c.cfg.LoadFactor)
	refusing := map[string]struct{}{}
	for {
		bid, err := c.ring.Place(cfg.ID, load, capPer, func(b string) bool {
			if !c.boards[b].up {
				return false
			}
			_, r := refusing[b]
			return !r
		})
		if err != nil {
			if len(refusing) > 0 {
				c.refused++
				return nil, "", c.unlockErr(fmt.Errorf("fleet: every live board refused admission: %w", farm.ErrSLOBurning))
			}
			return nil, "", c.unlockErr(err)
		}
		s, err := c.boards[bid].farm.Submit(cfg)
		switch {
		case err == nil:
			p := &placement{id: cfg.ID, board: bid, cfg: s.Config()}
			c.placements[cfg.ID] = p
			c.placeOrder = append(c.placeOrder, cfg.ID)
			c.arbitrateLocked()
			c.mu.Unlock()
			return s, bid, nil
		case errors.Is(err, farm.ErrSLOBurning):
			// This board is shedding; walk on.
			refusing[bid] = struct{}{}
		default:
			return nil, "", c.unlockErr(err)
		}
	}
}

// unlockErr releases the fleet lock and passes the error through — the
// error-path unlock helper for methods that hold c.mu across farm calls.
func (c *Fleet) unlockErr(err error) error {
	c.mu.Unlock()
	return err
}

// Get returns a stream and the board it currently runs on.
func (c *Fleet) Get(id string) (*farm.Stream, string, bool) {
	c.mu.Lock()
	p, ok := c.placements[id]
	if !ok || p.dead {
		c.mu.Unlock()
		return nil, "", false
	}
	b := c.boards[p.board]
	c.mu.Unlock()
	s, ok := b.farm.Get(id)
	return s, b.id, ok
}

// Stop stops one stream (waiting for its worker) wherever it runs.
func (c *Fleet) Stop(id string) error {
	s, _, ok := c.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	s.Stop()
	<-s.Done()
	return nil
}

// Wait blocks until every live placement's current segment has finished.
// Unbounded streams must be stopped first.
func (c *Fleet) Wait() {
	for {
		c.mu.Lock()
		var pending *farm.Stream
		for _, id := range c.placeOrder {
			p := c.placements[id]
			if p.dead {
				continue
			}
			if s, ok := c.boards[p.board].farm.Get(id); ok {
				select {
				case <-s.Done():
				default:
					pending = s
				}
			}
			if pending != nil {
				break
			}
		}
		c.mu.Unlock()
		if pending == nil {
			return
		}
		// Wait outside the lock: a migration may move other streams
		// meanwhile, so re-scan after this one drains.
		<-pending.Done()
	}
}

// Close stops every board's farm and refuses further fleet operations.
func (c *Fleet) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	boards := make([]*board, 0, len(c.order))
	for _, id := range c.order {
		boards = append(boards, c.boards[id])
	}
	c.mu.Unlock()
	for _, b := range boards {
		b.farm.Close()
	}
}

// Closed reports whether the fleet has begun shutting down.
func (c *Fleet) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Kill takes a board down. With evacuate, its live streams migrate to
// the surviving boards first (bounded-load ring walk, in stream-id
// order — deterministic); without it they are lost: stopped with the
// board, their placements marked dead. Either way the board's farm is
// closed — every bufpool lease drains — and retained for post-mortem
// reads and leak checks. It returns the ids of the streams lost.
func (c *Fleet) Kill(boardID string, evacuate bool) ([]string, error) {
	c.mu.Lock()
	b, ok := c.boards[boardID]
	if !ok {
		return nil, c.unlockErr(fmt.Errorf("%w: %q", ErrUnknownBoard, boardID))
	}
	if !b.up {
		return nil, c.unlockErr(fmt.Errorf("fleet: board %q already down", boardID))
	}
	b.up = false // no longer a placement or migration target
	resident := c.streamsOnLocked(boardID)
	var lost []string
	if evacuate {
		for _, id := range resident {
			if _, err := c.migrateLocked(id, "", "evacuate:"+boardID); err != nil {
				// No surviving board can take it (all down or at capacity):
				// it goes down with this one.
				lost = append(lost, id)
			}
		}
	} else {
		lost = resident
	}
	for _, id := range lost {
		c.placements[id].dead = true
	}
	farmRef := b.farm
	c.retired = append(c.retired, farmRef)
	c.arbitrateLocked()
	c.mu.Unlock()
	// Close outside the lock: it waits for every resident stream to
	// drain, and control-plane reads should not block behind that.
	farmRef.Close()
	return lost, nil
}

// Restore brings a killed board back: a fresh farm (new epoch) joins
// placement with zero streams and its arbitrated budget share.
func (c *Fleet) Restore(boardID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.boards[boardID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownBoard, boardID)
	}
	if b.up {
		return fmt.Errorf("fleet: board %q already up", boardID)
	}
	b.farm = farm.New(c.boardConfig())
	b.up = true
	b.epoch++
	b.budget = c.boardConfig().PowerBudget
	c.arbitrateLocked()
	return nil
}

// streamsOnLocked returns the live stream ids placed on a board, sorted.
func (c *Fleet) streamsOnLocked(boardID string) []string {
	var out []string
	for id, p := range c.placements {
		if p.board == boardID && !p.dead {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// SetPowerBudget rebinds the fleet-wide power cap and re-arbitrates the
// per-board splits immediately — the lever a power-budget flap pulls.
func (c *Fleet) SetPowerBudget(w sim.Watts) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.PowerBudget = w
	if w <= 0 {
		// Back to the template's unarbitrated per-board cap.
		for _, id := range c.order {
			b := c.boards[id]
			b.budget = c.cfg.Board.PowerBudget
			if b.up {
				b.farm.SetPowerBudget(b.budget)
			}
		}
		return
	}
	c.arbitrateLocked()
}

// Arbitrate re-splits the fleet power budget across the live boards by
// current demand. Submit, Migrate, Kill, Restore and SetPowerBudget all
// run it implicitly; exposing it lets operators (and the chaos harness)
// force a re-split.
func (c *Fleet) Arbitrate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arbitrateLocked()
}

// arbitrateLocked splits the fleet budget over the live boards: half
// evenly — so every board keeps at least budget/(2·live) and a cold
// board can still win its first wave-engine grant — and half
// proportionally to each board's current modeled draw, so the cap
// follows the demand. Callers hold c.mu.
func (c *Fleet) arbitrateLocked() {
	if c.cfg.PowerBudget <= 0 {
		return
	}
	ups := c.upBoardsLocked()
	if len(ups) == 0 {
		return
	}
	demand := make(map[string]sim.Watts, len(ups))
	var total sim.Watts
	for _, id := range ups {
		d := c.boards[id].farm.Governor().Stats().AggregatePower
		demand[id] = d
		total += d
	}
	even := c.cfg.PowerBudget / sim.Watts(len(ups))
	for _, id := range ups {
		b := c.boards[id]
		w := even
		if total > 0 {
			// Both terms round before the add, as on amd64: x/2
			// compiles to x*0.5, which arm64 would fuse too.
			w = sim.Watts(float64(even/2)) + sim.Watts(float64((c.cfg.PowerBudget/2)*(demand[id]/total)))
		}
		b.budget = w
		b.farm.SetPowerBudget(w)
	}
}
