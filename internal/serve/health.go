package serve

import (
	"errors"
	"fmt"
	"time"
)

// Health is the server's availability state machine, driven by the worker
// supervisor and the drain sequence:
//
//	Healthy ──(a worker slot retires)──► Degraded ──(last slot retires)──► Down
//	   │                                     │
//	   └────────────(Drain/Close)────────────┴──► Draining ──► Down
//
// Healthy means every configured worker slot is live. Degraded means at
// least one slot exhausted its restart budget and retired, but survivors
// keep serving. Draining means admission is closed while in-flight work
// completes (graceful shutdown). Down means no live replica remains: new
// requests fail fast with ErrDown and already-admitted ones complete with
// a typed *WorkerFaultError — never a hang. States only move rightward;
// a Down server does not heal (rebuild happens one level up, by
// constructing a fresh Server from the still-valid Model snapshot).
type Health int

const (
	// Healthy: all configured worker slots live.
	Healthy Health = iota
	// Degraded: at least one slot retired; survivors keep serving.
	Degraded
	// Draining: admission closed, in-flight requests completing.
	Draining
	// Down: no live worker slot remains.
	Down
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Draining:
		return "draining"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("Health(%d)", int(h))
	}
}

// ErrDeadline is returned by serving calls whose request deadline
// (Config.RequestTimeout, or a ctx deadline on the *Context variants)
// expired before a worker's answer landed. The abandoned request stays in
// its batch; the late result is discarded safely when it arrives.
var ErrDeadline = errors.New("serve: request deadline exceeded")

// ErrDown is returned by serving calls once every worker slot has retired
// (its restart budget exhausted by repeated faults): with no replica left
// to answer, failing fast beats queueing forever.
var ErrDown = errors.New("serve: no live worker replica")

// WorkerFaultError reports a request completed by the supervisor instead
// of a worker: the executing replica hit a worker-fatal fault — a
// permanent device transfer fault, transient-retry exhaustion, or a panic
// in the batch path — and the batch could not be (re-)dispatched to a
// healthy replica. Completing with this error, rather than dropping the
// request, is the contract that no admitted request ever hangs.
type WorkerFaultError struct {
	// Worker is the faulted slot index.
	Worker int
	// Restarts is the restart count the slot had consumed when it failed
	// the batch.
	Restarts int
	// Cause is the underlying condition: a *device.TransferError or a
	// recovered panic wrapped as an error.
	Cause error
}

// Error implements error.
func (e *WorkerFaultError) Error() string {
	return fmt.Sprintf("serve: worker %d fault (restarts %d): %v", e.Worker, e.Restarts, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As (a *device.TransferError keeps
// its Permanent flag visible through the chain).
func (e *WorkerFaultError) Unwrap() error { return e.Cause }

// healthLocked computes the current state; caller holds s.mu.
func (s *Server) healthLocked() Health {
	switch {
	case s.live == 0:
		return Down
	case s.draining || s.closed:
		return Draining
	case s.live < s.cfg.Workers:
		return Degraded
	default:
		return Healthy
	}
}

// Health returns the server's current availability state.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healthLocked()
}

// Drain gracefully stops the server's intake: admission closes (new calls
// fail with ErrClosed, /healthz flips to draining), the pending queues
// flush immediately, and Drain waits until every already-admitted request
// has completed — including deadline-abandoned ones whose discarded
// results are still in flight — or until timeout elapses, whichever is
// first. A timeout of 0 waits indefinitely. Drain does not release the
// workers; call Close afterwards (which returns quickly once drained).
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if !s.closed && !s.draining {
		s.draining = true
		for op := 0; op < numOps; op++ {
			s.flushLocked(Op(op), false)
		}
		s.notFull.Broadcast()
	}
	s.mu.Unlock()

	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return fmt.Errorf("serve: drain deadline after %v: %d request(s) still in flight", timeout, n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
