// Package dvfs models the voltage/frequency operating points of the ZYNQ
// processing system and the power scaling that goes with them, giving the
// reproduction the axis the paper's energy argument turns on: trading
// deadline slack for joules.
//
// The fixed-platform calibration (533 MHz PS, the board powers in
// internal/power) remains the anchor: at the nominal operating point every
// number this package produces is bit-for-bit identical to the fixed
// model. Away from the anchor, the PS-attributable share of the active
// board power scales with f·V² (dynamic CMOS power), while the quiescent
// board power and the PL wave-engine delta — a separate 100 MHz clock
// domain the PS operating point does not touch — stay fixed.
package dvfs

import (
	"fmt"
	"strings"

	"zynqfusion/internal/power"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/zynq"
)

// OperatingPoint is one PS voltage/frequency pair, cpufreq style.
type OperatingPoint struct {
	// Name identifies the point ("533MHz").
	Name string `json:"name"`
	// Hz is the PS clock frequency at this point.
	Hz float64 `json:"hz"`
	// Volts is the modeled core voltage at this point.
	Volts float64 `json:"volts"`
}

// The operating-point table. The 533 MHz entry is the paper's measured
// configuration (the calibration anchor, at the nominal 1.0 V); the lower
// points follow the usual embedded DVFS ladder of scaled voltages, and
// 667 MHz is the overdrive point above nominal voltage.
var table = []OperatingPoint{
	{Name: "222MHz", Hz: 222e6, Volts: 0.825},
	{Name: "333MHz", Hz: 333e6, Volts: 0.875},
	{Name: "444MHz", Hz: 444e6, Volts: 0.925},
	{Name: "533MHz", Hz: zynq.PSHz, Volts: 1.000},
	{Name: "667MHz", Hz: 667e6, Volts: 1.100},
}

// nominalIndex locates the calibration anchor in the table.
const nominalIndex = 3

// List returns the operating points in ascending frequency order.
func List() []OperatingPoint {
	out := make([]OperatingPoint, len(table))
	copy(out, table)
	return out
}

// Nominal returns the calibration anchor: 533 MHz at 1.0 V, the paper's
// measured configuration.
func Nominal() OperatingPoint { return table[nominalIndex] }

// Min returns the slowest (lowest-voltage) operating point.
func Min() OperatingPoint { return table[0] }

// Max returns the fastest operating point.
func Max() OperatingPoint { return table[len(table)-1] }

// Lookup resolves an operating point by name, case-insensitively; the
// "MHz" suffix is optional ("222", "222mhz" and "222MHz" all match).
func Lookup(name string) (OperatingPoint, bool) {
	key := strings.ToLower(strings.TrimSpace(name))
	key = strings.TrimSuffix(key, "mhz")
	for _, op := range table {
		if strings.TrimSuffix(strings.ToLower(op.Name), "mhz") == key {
			return op, true
		}
	}
	return OperatingPoint{}, false
}

// Names returns the point names in ascending frequency order.
func Names() []string {
	out := make([]string, len(table))
	for i, op := range table {
		out[i] = op.Name
	}
	return out
}

// Faster returns the operating point n steps above op in the table,
// clamping at the fastest point (a point not in the table maps to Max).
// Deadline-paced streams use it to escalate after a missed deadline.
func Faster(op OperatingPoint, n int) OperatingPoint {
	for i, p := range table {
		if p.Name == op.Name {
			i += n
			if i >= len(table) {
				i = len(table) - 1
			}
			if i < 0 {
				i = 0
			}
			return table[i]
		}
	}
	return Max()
}

// Clock returns the PS clock domain at this operating point. At the
// nominal point it is identical to zynq.PS().
func (op OperatingPoint) Clock() sim.Clock { return sim.NewClock("ps", op.Hz) }

// MHz reports the point frequency in MHz.
func (op OperatingPoint) MHz() float64 { return op.Hz / 1e6 }

func (op OperatingPoint) String() string {
	return fmt.Sprintf("%s@%.3fV", op.Name, op.Volts)
}

// Scale is the dynamic-power scaling factor of op relative to the nominal
// point: (f/f0)·(V/V0)². It is exactly 1 at the anchor.
func Scale(op OperatingPoint) float64 {
	n := Nominal()
	v := op.Volts / n.Volts
	return (op.Hz / n.Hz) * v * v
}

// ScalePS scales a calibrated active board power from the 533 MHz anchor
// to op: the dynamic share above the quiescent board power follows f·V²,
// the quiescent share does not move. At the nominal point the anchor is
// returned unchanged (bit-for-bit).
func ScalePS(anchor sim.Watts, op OperatingPoint) sim.Watts {
	s := Scale(op)
	if s == 1 {
		return anchor
	}
	return power.Idle + sim.Watts(float64(anchor-power.Idle)*s)
}

// ModePower returns the board power for a named engine mode at an
// operating point. The PS-attributable share of the ARM/NEON powers
// scales with the point; the FPGA mode adds the fixed PL wave-engine
// delta (its 100 MHz clock domain is not governed by the PS point).
// Unknown modes report the quiescent board power, power.Idle.
func ModePower(mode string, op OperatingPoint) sim.Watts {
	switch strings.ToLower(mode) {
	case "arm":
		return ScalePS(power.ARMActive, op)
	case "neon":
		return ScalePS(power.NEONActive, op)
	case "fpga":
		return ScalePS(power.ARMActive, op) + power.FPGADelta
	default:
		return power.Idle
	}
}

// Residency accumulates time and frame counts per operating point. The
// zero value is ready to use; it is not safe for concurrent use.
type Residency struct {
	time   map[string]sim.Time
	frames map[string]int64
}

// Add charges one frame's span at a point.
func (r *Residency) Add(op OperatingPoint, t sim.Time) {
	if r.time == nil {
		r.time = make(map[string]sim.Time)
		r.frames = make(map[string]int64)
	}
	r.time[op.Name] += t
	r.frames[op.Name]++
}

// Time returns a copy of the per-point accumulated time.
func (r *Residency) Time() map[string]sim.Time {
	out := make(map[string]sim.Time, len(r.time))
	for k, v := range r.time {
		out[k] = v
	}
	return out
}

// Frames returns a copy of the per-point frame counts.
func (r *Residency) Frames() map[string]int64 {
	out := make(map[string]int64, len(r.frames))
	for k, v := range r.frames {
		out[k] = v
	}
	return out
}
