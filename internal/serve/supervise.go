package serve

import (
	"time"

	"phideep/internal/device"
)

// This file is the worker supervisor: the recovery policy that runs when a
// batch faults out of a worker (a device transfer fault that survived the
// retry budgets, or a panic caught at the batch boundary by runSafe).
//
// The sequence per fault: count it, try to re-dispatch the batch once to a
// healthy replica (so one worker's fault stays invisible to callers when
// survivors exist), rebuild the faulted worker on a fresh device under a
// capped-restart circuit, and — when the budget is spent — retire the slot,
// moving the server's health state machine toward Degraded/Down. Whatever
// happens, every request of the batch completes: with the re-dispatched
// answer, or with a typed *WorkerFaultError. Nothing admitted ever hangs.

// workerFaultConfig derives worker slot's fault stream for its current
// incarnation. Each (slot, restart) pair gets its own seed offset — large
// odd primes keep the derived seeds distinct — so a chaos run is
// deterministic per worker and per rebuild, independent of scheduling.
func workerFaultConfig(base device.FaultConfig, slot, incarnation int) device.FaultConfig {
	return base.WithSeed(base.Seed + uint64(slot)*1_000_003 + uint64(incarnation)*7_919)
}

// handleFault is the supervisor entry point, called on the worker's own
// goroutine when runSafe returns an error for batch. It reports whether the
// worker should keep receiving batches: true after a successful rebuild (or
// for the channel drainer that must keep failing batches once the server is
// Down), false when the retired worker should exit and leave the channel to
// the survivors.
func (w *worker) handleFault(batch []*request, cause error) bool {
	s := w.s
	s.st.faultBatches.Inc()
	ferr := w.faultError(cause)
	alive := w.rebuild(cause)

	// Re-dispatch the batch once to a healthy replica. The check-and-send
	// runs under s.mu, which excludes Close's close(s.batches): closed is
	// set under the same lock before the channel closes. The send itself is
	// non-blocking — the channel has Workers slots of headroom beyond
	// QueueDepth precisely so one in-flight re-dispatch per worker fits, but
	// blocking under the lock is never acceptable.
	s.mu.Lock()
	if !s.closed && s.live > 0 && !batch[0].redispatched {
		for _, r := range batch {
			r.redispatched = true
		}
		select {
		case s.batches <- batch:
			s.st.redispatches.Inc()
			batch = nil
		default:
		}
	}
	s.mu.Unlock()
	if batch != nil {
		s.failBatch(batch, ferr)
	}

	if alive {
		return true
	}
	// Retired. If no live worker remains, this goroutine stays behind as
	// the channel drainer so batches flushed after Down still complete
	// (with typed errors) instead of sitting in the channel forever.
	s.mu.Lock()
	last := s.live == 0
	s.mu.Unlock()
	return last
}

// rebuild tears the worker's device state down and constructs a fresh
// incarnation (new device, new replica, new fault stream), consuming the
// restart budget. It reports whether the worker came back; on budget
// exhaustion — including rebuilds that themselves fail — the slot retires.
func (w *worker) rebuild(cause error) bool {
	w.freeQuiet()
	for {
		if w.restarts >= w.s.cfg.maxRestarts() {
			w.retire(cause)
			return false
		}
		w.restarts++
		w.s.st.restarts.Inc()
		err := w.build()
		if err == nil {
			return true
		}
		cause = err
		w.freeQuiet()
	}
}

// retire marks the worker permanently failed and updates the server's
// membership: live worker count drops, health moves to Degraded (or Down
// when this was the last slot), and — at Down — the pending queues flush so
// the drainer completes them with typed errors rather than stranding them.
func (w *worker) retire(cause error) {
	w.retired = true
	w.cause = cause
	s := w.s
	s.mu.Lock()
	s.live--
	s.st.retired.Inc()
	if s.live == 0 {
		for op := 0; op < numOps; op++ {
			s.flushLocked(Op(op), false)
		}
	}
	s.notFull.Broadcast()
	s.mu.Unlock()
}

// faultError wraps cause with the worker's identity for callers.
func (w *worker) faultError(cause error) error {
	return &WorkerFaultError{Worker: w.slot, Restarts: w.restarts, Cause: cause}
}

// failBatch completes every request of batch with err.
func (s *Server) failBatch(batch []*request, err error) {
	now := time.Now()
	for _, r := range batch {
		s.finishRequest(r, nil, err, now)
	}
}

// finishRequest completes one admitted request exactly once. The CAS
// against the request's state decides the race with an abandoning caller
// (deadline/ctx expiry): the winner's outcome stands, a losing worker
// result is discarded safely, and the in-flight ledger that Drain watches
// is settled either way.
func (s *Server) finishRequest(r *request, out []float64, err error, now time.Time) {
	if r.state.CompareAndSwap(reqPending, reqDone) {
		r.out, r.err = out, err
		s.st.latency.Observe(now.Sub(r.enq).Seconds())
	} else {
		s.st.discarded.Inc()
	}
	close(r.done)
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}
