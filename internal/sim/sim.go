// Package sim provides the simulated-time and reporting primitives shared by
// every modeled component (CPU, NEON, FPGA, buses, driver).
//
// All timing produced by this repository is *modeled* time on the paper's
// ZYNQ ZC702 platform, carried as an integer picosecond ledger so that
// cycle counts at 533 MHz (1876 ps) and 100 MHz (10000 ps) combine without
// rounding drift. Wall-clock time of the Go process is never mixed into a
// sim.Time.
package sim

import (
	"fmt"
	"time"
)

// Time is a span of simulated time in picoseconds.
type Time int64

// Common spans.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns t as floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Duration converts t to a time.Duration (nanosecond resolution, for
// display only; sub-nanosecond information is truncated).
func (t Time) Duration() time.Duration { return time.Duration(t / Nanosecond) }

// String formats t with an auto-selected unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.4fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Clock describes one synchronous clock domain.
type Clock struct {
	Name   string
	HertzV float64 // frequency in Hz
}

// NewClock returns a clock domain running at hz Hertz.
func NewClock(name string, hz float64) Clock { return Clock{Name: name, HertzV: hz} }

// Hertz reports the clock frequency.
func (c Clock) Hertz() float64 { return c.HertzV }

// Period returns the duration of one cycle.
func (c Clock) Period() Time { return Time(float64(Second) / c.HertzV) }

// Cycles converts a cycle count in this domain to simulated time.
func (c Clock) Cycles(n int64) Time {
	return Time(float64(n) * float64(Second) / c.HertzV)
}

// CyclesF converts a fractional cycle count to simulated time.
func (c Clock) CyclesF(n float64) Time {
	return Time(n * float64(Second) / c.HertzV)
}

// ToCycles converts a time span to (fractional) cycles of this domain.
func (c Clock) ToCycles(t Time) float64 {
	return t.Seconds() * c.HertzV
}

// Joules is an energy amount.
type Joules float64

// Millijoules returns e in mJ.
func (e Joules) Millijoules() float64 { return float64(e) * 1e3 }

func (e Joules) String() string { return fmt.Sprintf("%.3fmJ", e.Millijoules()) }

// Watts is a power level.
type Watts float64

// Milliwatts returns p in mW.
func (p Watts) Milliwatts() float64 { return float64(p) * 1e3 }

func (p Watts) String() string { return fmt.Sprintf("%.1fmW", p.Milliwatts()) }

// EnergyOver integrates a constant power level over a span.
func EnergyOver(p Watts, t Time) Joules { return Joules(float64(p) * t.Seconds()) }
