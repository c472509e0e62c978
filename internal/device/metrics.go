package device

import "phideep/internal/metrics"

// Wall-clock observability handles (DESIGN.md §"Observability"). The
// device already keeps *simulated* timelines for the paper's timing
// reproduction; these metrics add the *real* host clock next to them —
// device.sim.* accumulates modeled seconds as charged by the cost model,
// device.wall.* accumulates measured Go execution seconds of the same
// work — so one snapshot compares the two.
//
// Events a Device also reports in Stats — launches, bytes moved, faults,
// retries, failed transfers — count once, in per-device instance handles
// (Local) that roll up into these series while metrics.Enabled() holds.
// The rest record per launch / transfer only while collection is on.
// device.transfers counts completed transfers, unlike Stats.Transfers,
// which also counts abandoned ones.
var (
	mLaunches   = metrics.Default().Counter("device.kernel.launches")
	mTransfers  = metrics.Default().Counter("device.transfers")
	mBytesMoved = metrics.Default().Counter("device.bytes_moved")

	mSimCompute  = metrics.Default().FloatCounter("device.sim.compute_seconds")
	mSimTransfer = metrics.Default().FloatCounter("device.sim.transfer_seconds")

	mWallCompute  = metrics.Default().FloatCounter("device.wall.compute_seconds")
	mWallTransfer = metrics.Default().FloatCounter("device.wall.transfer_seconds")

	// Fault-model counters: injected faults (transient and permanent),
	// retry attempts, transfers abandoned after exhausting their budget,
	// and the simulated backoff stalled onto the transfer engine while
	// waiting to retry.
	mFaults          = metrics.Default().Counter("device.transfer.faults")
	mRetries         = metrics.Default().Counter("device.transfer.retries")
	mFailedTransfers = metrics.Default().Counter("device.transfer.failed")
	mSimBackoff      = metrics.Default().FloatCounter("device.sim.backoff_seconds")
)
