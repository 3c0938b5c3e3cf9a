// Package chaostest is a deterministic chaos harness for the fleet
// coordinator: a seeded fault injector — board kills with and without
// evacuation, restores, power-budget flaps, hotspot bursts, migration
// storms — driven against a live fleet, with every *decision* and every
// *placement outcome* recorded as an event.
//
// The harness is built on one discipline: events record only values
// that are pure functions of the injected fault sequence. Placement is
// consistent hashing over deterministic load counts, evacuation walks
// residents in sorted id order, and fault choices come from the seeded
// generator over sorted board and stream ids — so two runs with the
// same Options produce the identical event sequence, the identical
// survivor set on the identical boards, and (because captured frames
// are a pure function of (Seed, seq)) bit-identical final fused frames
// for every survivor. Wall-clock-dependent values — resume sequences,
// lease grants, arbitrated budget splits, energies — are deliberately
// excluded from events; they vary run to run while the coordinator's
// decisions do not.
package chaostest

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"zynqfusion/internal/farm"
	"zynqfusion/internal/fleet"
	"zynqfusion/internal/sim"
)

// Options configures a chaos run. The zero value is not runnable; use
// Defaults() for a sensible small fleet.
type Options struct {
	// Seed drives the fault injector. Identical Options ⇒ identical
	// event sequence.
	Seed int64
	// Boards, Streams size the fleet under test.
	Boards  int
	Streams int
	// Frames bounds every stream; IntervalMS paces its captures so
	// faults land mid-run.
	Frames     int64
	IntervalMS int
	// DeadlineMS is each stream's per-frame deadline. Defaults() picks
	// one no modeled frame can miss, so any miss is a harness bug.
	DeadlineMS float64
	// Steps is the number of fault-injection steps; StepSleepMS the wall
	// pause between them (lets streams make progress; never recorded).
	Steps       int
	StepSleepMS int
	// PowerBudget is the initial fleet-wide cap the flap fault perturbs.
	PowerBudget sim.Watts
}

// Defaults returns the small-fleet configuration the package tests use:
// 3 boards, 12 mixed-engine streams, 24 fault steps.
func Defaults(seed int64) Options {
	return Options{
		Seed:        seed,
		Boards:      3,
		Streams:     12,
		Frames:      30,
		IntervalMS:  3,
		DeadlineMS:  80, // NEON fuses a 32x24 frame in ~20 modeled ms
		Steps:       24,
		StepSleepMS: 4,
		PowerBudget: 4,
	}
}

// Event is one deterministic chaos event. Kind is one of "kill",
// "restore", "flap", "migrate", "migrate-fail", "lost".
type Event struct {
	Step   int    `json:"step"`
	Kind   string `json:"kind"`
	Board  string `json:"board,omitempty"`
	Stream string `json:"stream,omitempty"`
	// Detail carries deterministic context only: the migration target,
	// the evacuate flag, the flapped budget value.
	Detail string `json:"detail,omitempty"`
}

// Result is a chaos run's outcome. Events, Survivors, Lost, FinalBoards
// and PixelHash are deterministic per Options; SimTime and
// UnaffectedMisses are invariants (reported for threshold assertions,
// not for run-to-run comparison).
type Result struct {
	Events []Event
	// Survivors are the streams still placed at the end (sorted);
	// Lost went down with unevacuated board kills (sorted).
	Survivors []string
	Lost      []string
	// FinalBoards maps each survivor to its final board.
	FinalBoards map[string]string
	// PixelHash maps each survivor to the FNV-64a hash of its final
	// fused frame's PGM bytes — the bit-identity witness.
	PixelHash map[string]uint64
	// SimTime is the aggregate modeled busy time across every stream
	// and segment.
	SimTime sim.Time
	// UnaffectedMisses counts deadline misses on streams that were
	// neither migrated nor lost — chaos must not bleed into them.
	UnaffectedMisses int64
	// Migrations is the fleet's completed-migration count.
	Migrations int
}

// StreamConfigFor is the workload generator: stream i's exact config
// under Options o. Exported so tests can rebuild any chaos stream as an
// unmigrated single-farm reference run and compare pixels bit-for-bit.
// The mix cycles NEON-only, FPGA-preferring (degrades to NEON under the
// flapping budget) and pipelined streams; fused pixels are engine- and
// depth-invariant, so the mix stresses the control plane without
// touching the bit-identity contract. Each queue holds the stream's
// whole frame budget, so drop-oldest never races capture against fusion
// and every stream fuses all of its frames.
func StreamConfigFor(i int, o Options) farm.StreamConfig {
	cfg := farm.StreamConfig{
		ID: fmt.Sprintf("c%d", i), Seed: int64(1000 + i),
		W: 32, H: 24, Frames: o.Frames, QueueCap: int(o.Frames),
		IntervalMS: o.IntervalMS, DeadlineMS: o.DeadlineMS,
	}
	switch i % 3 {
	case 0:
		cfg.Engine = "neon"
	case 1:
		cfg.Engine = "fpga"
	case 2:
		cfg.Engine = "neon"
		cfg.Pipelined = true
		cfg.Depth = 2
	}
	return cfg
}

// Run executes one seeded chaos schedule and returns its result. The
// fleet is fully drained before return; the zero-lost-leases invariant
// is checked across every farm the fleet ever ran (live and retired)
// and reported as an error.
func Run(o Options) (*Result, error) {
	c, err := fleet.New(fleet.Config{Boards: o.Boards, PowerBudget: o.PowerBudget})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	for i := 0; i < o.Streams; i++ {
		if _, _, err := c.Submit(StreamConfigFor(i, o)); err != nil {
			return nil, fmt.Errorf("chaos: seeding stream %d: %w", i, err)
		}
	}

	res := &Result{FinalBoards: map[string]string{}, PixelHash: map[string]uint64{}}
	rng := rand.New(rand.NewSource(o.Seed))
	record := func(step int, kind, board, stream, detail string) {
		res.Events = append(res.Events, Event{Step: step, Kind: kind, Board: board, Stream: stream, Detail: detail})
	}
	// recordMigrations appends the migration records the last operation
	// produced, stripped to their deterministic fields.
	seenMigs := 0
	recordMigrations := func(step int) {
		migs := c.Rollup().Migrations
		for _, m := range migs[seenMigs:] {
			record(step, "migrate", m.To, m.Stream, "from="+m.From+" reason="+m.Reason)
		}
		seenMigs = len(migs)
	}
	liveStreams := func() []string {
		var out []string
		for _, p := range c.Rollup().Placements {
			if !p.Dead {
				out = append(out, p.Stream)
			}
		}
		sort.Strings(out)
		return out
	}
	boardsByState := func(up bool) []string {
		var out []string
		for _, b := range c.Rollup().Boards {
			if b.Up == up {
				out = append(out, b.ID)
			}
		}
		sort.Strings(out)
		return out
	}

	for step := 0; step < o.Steps; step++ {
		if o.StepSleepMS > 0 {
			time.Sleep(time.Duration(o.StepSleepMS) * time.Millisecond)
		}
		switch pick := rng.Intn(100); {
		case pick < 25: // board kill, mostly evacuated
			ups := boardsByState(true)
			if len(ups) < 2 {
				break // never kill the last board
			}
			b := ups[rng.Intn(len(ups))]
			evac := rng.Intn(4) != 0
			lost, err := c.Kill(b, evac)
			if err != nil {
				return nil, fmt.Errorf("chaos step %d: kill %s: %w", step, b, err)
			}
			record(step, "kill", b, "", "evacuate="+strconv.FormatBool(evac))
			recordMigrations(step)
			sort.Strings(lost)
			for _, id := range lost {
				record(step, "lost", b, id, "")
			}
		case pick < 45: // restore a down board
			downs := boardsByState(false)
			if len(downs) == 0 {
				break
			}
			b := downs[rng.Intn(len(downs))]
			if err := c.Restore(b); err != nil {
				return nil, fmt.Errorf("chaos step %d: restore %s: %w", step, b, err)
			}
			record(step, "restore", b, "", "")
		case pick < 62: // power-budget flap
			w := sim.Watts(0)
			if rng.Intn(5) != 0 { // 1 in 5 flaps lifts the cap entirely
				w = sim.Watts(0.5 + float64(4*rng.Float64()))
			}
			c.SetPowerBudget(w)
			record(step, "flap", "", "", strconv.FormatFloat(float64(w), 'g', -1, 64))
		case pick < 80: // hotspot burst: shed the hottest board
			var hot string
			hotLoad := -1
			for _, b := range c.Rollup().Boards {
				if b.Up && (b.Streams > hotLoad || (b.Streams == hotLoad && b.ID < hot)) {
					hot, hotLoad = b.ID, b.Streams
				}
			}
			if hotLoad < 1 {
				break
			}
			var resident []string
			for _, p := range c.Rollup().Placements {
				if !p.Dead && p.Board == hot {
					resident = append(resident, p.Stream)
				}
			}
			sort.Strings(resident)
			n := rng.Intn(3) + 1
			if n > len(resident) {
				n = len(resident)
			}
			for _, id := range resident[:n] {
				if _, err := c.Migrate(id, "", "hotspot"); err != nil {
					record(step, "migrate-fail", hot, id, "")
					continue
				}
			}
			recordMigrations(step)
		default: // migration storm: scatter random streams
			live := liveStreams()
			if len(live) == 0 {
				break
			}
			n := rng.Intn(4) + 1
			for i := 0; i < n; i++ {
				id := live[rng.Intn(len(live))]
				if _, err := c.Migrate(id, "", "storm"); err != nil {
					record(step, "migrate-fail", "", id, "")
				}
			}
			recordMigrations(step)
		}
	}

	// Drain: every surviving stream's current segment runs to its
	// bounded end, then the fleet closes and the lease ledger is
	// audited across live and retired farms.
	c.Wait()
	final := c.Rollup()
	for _, p := range final.Placements {
		if p.Dead {
			res.Lost = append(res.Lost, p.Stream)
			continue
		}
		res.Survivors = append(res.Survivors, p.Stream)
		res.FinalBoards[p.Stream] = p.Board
		pgm, ok := c.AppendSnapshotPGM(p.Stream, nil)
		if !ok {
			return nil, fmt.Errorf("chaos: survivor %s has no final frame", p.Stream)
		}
		h := fnv.New64a()
		h.Write(pgm)
		res.PixelHash[p.Stream] = h.Sum64()
		res.SimTime += p.Busy
		if p.Moves == 0 {
			res.UnaffectedMisses += p.DeadlineMisses
		}
	}
	sort.Strings(res.Survivors)
	sort.Strings(res.Lost)
	res.Migrations = len(final.Migrations)
	c.Close()
	if err := c.CheckLeaks(); err != nil {
		return nil, fmt.Errorf("chaos: lease leak after drain: %w", err)
	}
	return res, nil
}
