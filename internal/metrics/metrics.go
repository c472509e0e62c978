// Package metrics is phideep's wall-clock observability layer: a
// zero-dependency registry of counters, gauges and bounded histograms that
// measure the *real* Go execution of the numeric stack — GEMM calls and
// FLOPs, micro-kernel path selection, parallel-region durations, trainer
// epoch times — alongside the *simulated* timelines that internal/sim and
// internal/device keep for the paper's timing reproduction. One snapshot
// therefore shows both clocks side by side, which is how EXPERIMENTS.md
// relates modeled Xeon Phi seconds to measured host seconds.
//
// # Hot-path cost
//
// Every metric type records through a single atomic operation (or a short
// CAS loop for float accumulation), so recording is lock-free and safe from
// any number of goroutines. Collection is globally gated by Enabled: the
// instrumented packages guard each record site with one atomic bool load
// and a predictable branch, so with metrics disabled (the default) the
// instrumentation costs one load per *kernel call* — not per element — and
// the packed GEMM's allocation-free fork/join stays allocation-free.
// DESIGN.md §"Observability" documents the overhead argument and the
// acceptance bound (< 2% on the 512³ GEMM benchmark).
//
// # Usage
//
// Instrumented packages obtain handles once at init from the Default
// registry and record against the handles:
//
//	var calls = metrics.Default().Counter("kernels.gemm.calls")
//
//	func Gemm(...) {
//		if metrics.Enabled() {
//			calls.Inc()
//		}
//		...
//	}
//
// A component that also reports its own counts (a server's, a feed's or a
// device's Stats) takes an instance handle per event instead, and records
// through it unguarded — the handle keeps the instance value and rolls up
// into the registry series only while collection is enabled (local.go):
//
//	leases := metrics.Default().Counter("feed.leases").Local()
//	leases.Inc()          // one statement per event
//	n := leases.Value()   // this instance's count, collection on or off
//
// Front-ends call SetEnabled(true), run the workload, and export
// Default().Snapshot() as JSON (phitrain -metrics out.json) or as an
// aligned text table (the end-of-run summary).
package metrics

import (
	"math"
	"sync/atomic"
)

// enabled is the global collection gate. Handles still record if called
// while disabled; the gate exists so instrumentation sites can skip their
// record calls (and the time.Now reads around them) with one atomic load.
var enabled atomic.Bool

// Enabled reports whether metrics collection is globally enabled.
// Instrumentation sites use it to guard record calls.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns global metrics collection on or off. The default is off:
// a process that never opts in pays only the per-call-site guard load.
func SetEnabled(v bool) { enabled.Store(v) }

// A Counter is a monotonically increasing integer metric (calls, items,
// cache hits). All methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter. Negative n is permitted but makes the value
// no longer monotone; prefer a Gauge for values that go down.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// reset zeroes the counter in place, preserving handles held by callers.
func (c *Counter) reset() { c.v.Store(0) }

// A FloatCounter accumulates a float64 total (seconds, FLOPs, bytes as a
// float). Add runs a compare-and-swap loop on the raw bits, so it is
// lock-free and safe for concurrent use.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v into the counter.
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *FloatCounter) reset() { c.bits.Store(0) }

// A Gauge is a float64 value that can move in both directions (last
// observed throughput, configured worker count). Set and Value are single
// atomic operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) reset() { g.bits.Store(0) }
