package sched

import (
	"fmt"

	"zynqfusion/internal/dvfs"
	"zynqfusion/internal/engine"
	"zynqfusion/internal/kernels"
	"zynqfusion/internal/power"
	"zynqfusion/internal/signal"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/split"
)

// Adaptive is an engine.Engine that routes every kernel row to the ARM,
// NEON or FPGA engine according to a Policy, implementing the adaptive
// system of the paper's conclusion. Structure work (padding, gathers, the
// fusion rule) always runs on the CPU.
//
// When the policy is partition-aware (Partitioner), a row class may be
// split across the NEON and FPGA lanes instead of routed exclusively: the
// partition's share of rows interleaves onto the wave engine while the
// remainder runs on NEON, and the two lanes are charged as running
// concurrently — one A9 core drives the accelerator while the other runs
// SIMD rows. A pass (a run of same-class rows) then costs
// max(cpuTime, fpgaTime) plus the calibrated merge/sync overhead
// (engine.SplitSyncCycles), and the overlapped span is rebated at the
// quiescent board power, since it no longer passes on the wall clock.
// Degenerate (0%/100%) partitions take the classic exclusive path and
// reproduce it bit-for-bit: no merge charge, no overlap.
//
// Energy accounting differs from the fixed ARM+FPGA mode: the adaptive
// system clock-gates the wave engine while rows run on NEON, so only the
// spans actually spent in the FPGA draw the +19.2 mW.
//
// A row is routed once, without data: ChargeAnalyzeRow and
// ChargeSynthesizeRow (kernels.TileKernel) route, probe and observe
// around the routed engine's data-free row and return its chain, so the
// wavelet layer replays a level's routing first and computes every row
// on its engine's chain after; Analyze and Synthesize are that charge
// plus the row on the chain. The per-row path writes no map: routed
// statistics count per lane and publish into RoutedTime and RoutedRows
// when the time is read, and each row class's error-diffusion carry sits
// in a short list.
type Adaptive struct {
	policy  Policy
	fb      Feedback    // policy's feedback hook, if any
	parts   Partitioner // policy's partition surface, if any
	splitFB split.Feedback

	ps        sim.Clock
	op        dvfs.OperatingPoint
	cpuPower  sim.Watts // board power while CPU-side engines compute
	fpgaPower sim.Watts // board power while the wave engine is held
	arm       *engine.ARM
	neon      *engine.NEON
	fpga      *engine.FPGA
	lanes     [numLanes]laneEngine // arm, neon, fpga by lane index

	cpuCycles float64 // structure work

	// Cooperative-split pass state: a pass is a maximal run of same-class
	// rows; its two lanes overlap when both ran.
	passOpen bool
	passKey  rowClass
	pass     laneStat
	carry    []classCarry // error-diffusion accumulators, one per class
	overlap  sim.Time     // closed-pass overlap since the last Reset

	// Drained accumulators (filled on Reset, emptied on DrainEnergy /
	// DrainLanes).
	accTime     sim.Time
	accEnergy   sim.Joules
	laneCPU     sim.Time
	laneFPGA    sim.Time
	laneOverlap sim.Time

	// Per-engine routed statistics since construction, brought up to date
	// whenever the engine's time is read (Elapsed, Reset): the rows
	// themselves count into routedRows and routedTime, indexed by lane.
	RoutedTime map[string]sim.Time
	RoutedRows map[string]int64
	routedTime [numLanes]sim.Time
	routedRows [numLanes]int64
	// SplitPasses counts passes that actually used both lanes.
	SplitPasses int64
}

// laneEngine is one engine the adaptive engine routes rows to: each of
// ARM, NEON and FPGA charges rows without data (kernels.TileKernel) on
// its own timeline, which probe reads.
type laneEngine interface {
	kernels.TileKernel
	Elapsed() sim.Time
}

// Lane indices of the routed engines.
const (
	laneARM = iota
	laneNEON
	laneFPGA
	numLanes
)

// laneNames are the routed engines' names by lane index, the keys of
// RoutedTime and RoutedRows.
var laneNames = [numLanes]string{"arm", "neon", "fpga"}

// classCarry is one row class's error-diffusion accumulator.
type classCarry struct {
	k rowClass
	c float64
}

// rowClass identifies one row workload shape.
type rowClass struct {
	pairs   int
	inverse bool
}

// laneStat accumulates one pass's per-lane rows and times.
type laneStat struct {
	neonRows, fpgaRows int
	neonT, fpgaT       sim.Time
}

// NewAdaptive builds the adaptive engine over fresh ARM/NEON/FPGA engines
// at the nominal (533 MHz) operating point.
func NewAdaptive(p Policy) *Adaptive {
	return NewAdaptiveAt(p, dvfs.Nominal())
}

// NewAdaptiveAt builds the adaptive engine with its CPU-side engines and
// the FPGA host path running at the given PS operating point. Energy
// accounting uses the point's scaled board powers.
func NewAdaptiveAt(p Policy, op dvfs.OperatingPoint) *Adaptive {
	a := &Adaptive{
		policy:     p,
		ps:         op.Clock(),
		op:         op,
		cpuPower:   dvfs.ModePower("arm", op),
		fpgaPower:  dvfs.ModePower("fpga", op),
		arm:        engine.NewARMAt(op),
		neon:       engine.NewNEONAt(false, op),
		fpga:       engine.NewFPGAAt(op),
		RoutedTime: make(map[string]sim.Time),
		RoutedRows: make(map[string]int64),
	}
	a.lanes = [numLanes]laneEngine{a.arm, a.neon, a.fpga}
	a.fb, _ = p.(Feedback)
	a.parts, _ = p.(Partitioner)
	a.splitFB, _ = p.(split.Feedback)
	return a
}

// Name implements engine.Engine.
func (a *Adaptive) Name() string { return "adaptive(" + a.policy.Name() + ")" }

// Policy returns the routing policy.
func (a *Adaptive) Policy() Policy { return a.policy }

// FPGA exposes the wave-engine lane for inspection (tests, statistics).
func (a *Adaptive) FPGA() *engine.FPGA { return a.fpga }

// route resolves one row's lane: a partition-aware policy may split the
// class across the NEON and FPGA lanes; otherwise the classic exclusive
// Pick applies.
func (a *Adaptive) route(pairs int, inverse bool) int {
	if a.parts != nil {
		if p, use := a.parts.Partition(pairs, inverse); use {
			return a.splitRoute(rowClass{pairs: pairs, inverse: inverse}, p.Clamp())
		}
	}
	a.closePass() // leaving partitioned territory ends any open pass
	switch e := a.policy.Pick(pairs, inverse); e {
	case "arm":
		return laneARM
	case "neon":
		return laneNEON
	case "fpga":
		return laneFPGA
	default:
		panic(fmt.Sprintf("sched: policy %q picked unknown engine %q", a.policy.Name(), e))
	}
}

// splitRoute interleaves a partitioned class's rows across the two lanes
// with an error-diffusion accumulator, so any fraction lands exactly over
// a pass and the row order is deterministic. A class change closes the
// running pass (the lanes must sync before the next level/direction
// starts).
func (a *Adaptive) splitRoute(k rowClass, p split.Partition) int {
	if a.passOpen && a.passKey != k {
		a.closePass()
	}
	if !a.passOpen {
		a.passOpen = true
		a.passKey = k
		a.pass = laneStat{}
	}
	carry := a.carryOf(k)
	c := *carry + p.FPGA
	// 1e-9 absorbs float accumulation error so FPGA=1.0 routes every row.
	if c >= 1-1e-9 {
		*carry = c - 1
		return laneFPGA
	}
	*carry = c
	return laneNEON
}

// carryOf returns class k's error-diffusion accumulator, starting it at
// zero on the class's first row. A transform routes a handful of classes
// (one per level, direction and pass orientation), so a scan finds it.
func (a *Adaptive) carryOf(k rowClass) *float64 {
	for i := range a.carry {
		if a.carry[i].k == k {
			return &a.carry[i].c
		}
	}
	a.carry = append(a.carry, classCarry{k: k})
	return &a.carry[len(a.carry)-1].c
}

// closePass ends the running pass: the lanes sync, the overlapped span
// (both lanes busy, charged once on the wall clock) is recorded, the
// merge/stitch overhead is charged to the CPU, and the pass is reported
// to a learning split policy. Single-lane passes close for free — the
// degenerate path stays bit-for-bit the exclusive one.
func (a *Adaptive) closePass() {
	if !a.passOpen {
		return
	}
	ps := a.pass
	k := a.passKey
	a.passOpen = false
	a.pass = laneStat{}
	if ps.neonRows > 0 && ps.fpgaRows > 0 {
		ov := ps.neonT
		if ps.fpgaT < ov {
			ov = ps.fpgaT
		}
		a.overlap += ov
		a.cpuCycles += engine.SplitSyncCycles
		a.SplitPasses++
	}
	if a.splitFB != nil {
		a.splitFB.ObservePass(k.pairs, k.inverse, split.PassObservation{
			NEONRows: ps.neonRows,
			FPGARows: ps.fpgaRows,
			NEONTime: ps.neonT,
			FPGATime: ps.fpgaT,
		})
	}
}

// BeginStage closes any open cooperative-split pass at a pipeline stage
// boundary, which the pipelined executor announces before each station
// runs: the two lanes sync there exactly as they do at a level boundary,
// so a partition never spans the handoff between stages of different
// frames.
func (a *Adaptive) BeginStage(stage string, frame int64) { a.closePass() }

// probe reads a lane's running cost without draining it: the FPGA's
// Elapsed would drain its double buffer, so its timeline is peeked.
func (a *Adaptive) probe(lane int) sim.Time {
	if lane == laneFPGA {
		return a.fpga.Peek()
	}
	return a.lanes[lane].Elapsed()
}

// Analyze implements signal.Kernel: the routed row's charge, then the
// row on the routed engine's chain.
func (a *Adaptive) Analyze(al, ah *signal.Taps, px []float32, lo, hi []float32) {
	kernels.AnalyzeRow(a.ChargeAnalyzeRow(al, ah, len(lo)), al, ah, px, lo, hi)
}

// Synthesize implements signal.Kernel like Analyze.
func (a *Adaptive) Synthesize(sl, sh *signal.Taps, plo, phi []float32, out []float32) {
	kernels.SynthesizeRow(a.ChargeSynthesizeRow(sl, sh, len(out)/2), sl, sh, plo, phi, out)
}

// ChargeAnalyzeRow implements kernels.TileKernel: it routes the row by
// width, charges the routed engine's data-free row between two probes of
// that engine's cost and observes the difference, and returns the
// routed engine's chain.
func (a *Adaptive) ChargeAnalyzeRow(al, ah *signal.Taps, m int) kernels.Chain {
	lane := a.route(m, false)
	before := a.probe(lane)
	c := a.lanes[lane].ChargeAnalyzeRow(al, ah, m)
	a.observe(m, false, lane, a.probe(lane)-before)
	return c
}

// ChargeSynthesizeRow implements kernels.TileKernel for synthesis rows.
func (a *Adaptive) ChargeSynthesizeRow(sl, sh *signal.Taps, m int) kernels.Chain {
	lane := a.route(m, true)
	before := a.probe(lane)
	c := a.lanes[lane].ChargeSynthesizeRow(sl, sh, m)
	a.observe(m, true, lane, a.probe(lane)-before)
	return c
}

func (a *Adaptive) observe(pairs int, inverse bool, lane int, cost sim.Time) {
	a.routedTime[lane] += cost
	a.routedRows[lane]++
	if a.passOpen {
		switch lane {
		case laneNEON:
			a.pass.neonRows++
			a.pass.neonT += cost
		case laneFPGA:
			a.pass.fpgaRows++
			a.pass.fpgaT += cost
		}
	}
	if a.fb != nil {
		a.fb.Observe(pairs, inverse, laneNames[lane], cost)
	}
}

// publishRouted adds the rows routed since it last ran to RoutedTime and
// RoutedRows. A lane gets its keys with its first row, as when the
// maps were written per row.
func (a *Adaptive) publishRouted() {
	for lane, n := range a.routedRows {
		if n == 0 {
			continue
		}
		a.RoutedRows[laneNames[lane]] += n
		a.RoutedTime[laneNames[lane]] += a.routedTime[lane]
		a.routedRows[lane], a.routedTime[lane] = 0, 0
	}
}

// ChargeCPU implements engine.Engine (structure work on the ARM core).
func (a *Adaptive) ChargeCPU(samples int) {
	a.cpuCycles += engine.StructureCyclesPerSample * float64(samples)
}

// ChargeCPUCycles implements engine.Engine.
func (a *Adaptive) ChargeCPUCycles(cycles float64) { a.cpuCycles += cycles }

// Elapsed implements engine.Engine: the CPU-side spans add serially, and
// closed cooperative passes rebate the overlapped span their two lanes
// shared. An open pass's overlap is only known once it closes (Reset
// closes it). Like Reset, it brings RoutedTime and RoutedRows up to date.
func (a *Adaptive) Elapsed() sim.Time {
	a.publishRouted()
	return a.ps.CyclesF(a.cpuCycles) + a.arm.Elapsed() + a.neon.Elapsed() + a.fpga.Elapsed() - a.overlap
}

// Reset implements engine.Engine. The drained span's energy (CPU and NEON
// spans at base power, FPGA spans at the wave-engine power, the
// cooperative overlap rebated at the quiescent power) accumulates for
// DrainEnergy, and the per-lane concurrent accounting for DrainLanes.
func (a *Adaptive) Reset() sim.Time {
	a.closePass()
	a.publishRouted()
	cpu := a.ps.CyclesF(a.cpuCycles)
	a.cpuCycles = 0
	armT := a.arm.Reset()
	neonT := a.neon.Reset()
	fpgaT := a.fpga.Reset()
	overlap := a.overlap
	a.overlap = 0
	// The lanes' pass deltas telescope to at most their drained totals;
	// clamp anyway so the rebate can never exceed either lane.
	if overlap > neonT {
		overlap = neonT
	}
	if overlap > fpgaT {
		overlap = fpgaT
	}
	total := cpu + armT + neonT + fpgaT - overlap
	a.accTime += total
	a.accEnergy += sim.EnergyOver(a.cpuPower, cpu+armT+neonT)
	a.accEnergy += sim.EnergyOver(a.fpgaPower, fpgaT)
	// Both lanes' dynamic power is genuinely spent; only the quiescent
	// board draw over the overlapped span is saved, because that span now
	// passes once on the wall clock instead of twice.
	a.accEnergy -= sim.EnergyOver(power.Idle, overlap)
	a.laneCPU += cpu + armT + neonT
	a.laneFPGA += fpgaT
	a.laneOverlap += overlap
	return total
}

// DrainEnergy returns and clears the accumulated span and energy. It
// drains any un-Reset work first.
func (a *Adaptive) DrainEnergy() (sim.Time, sim.Joules) {
	a.Reset()
	t, e := a.accTime, a.accEnergy
	a.accTime, a.accEnergy = 0, 0
	return t, e
}

// DrainLanes returns and clears the concurrent-lane accounting of the
// spans drained so far: total CPU-side busy time (structure + ARM + NEON),
// FPGA lane busy time, and the overlapped span during which both lanes ran
// (already netted out of the drained totals). It drains any un-Reset work
// first.
func (a *Adaptive) DrainLanes() (cpu, fpga, overlap sim.Time) {
	a.Reset()
	cpu, fpga, overlap = a.laneCPU, a.laneFPGA, a.laneOverlap
	a.laneCPU, a.laneFPGA, a.laneOverlap = 0, 0, 0
	return cpu, fpga, overlap
}

// Power implements engine.Engine: the time-weighted mean power is only
// known after a span is drained, so the instantaneous value reports the
// base power at the operating point. Pipelines use DrainEnergy for exact
// accounting.
func (a *Adaptive) Power() sim.Watts { return a.cpuPower }

// Point reports the PS operating point the adaptive engine accounts at.
func (a *Adaptive) Point() dvfs.OperatingPoint { return a.op }
