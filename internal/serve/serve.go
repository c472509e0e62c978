// Package serve is phideep's online-inference subsystem: it turns a
// trained model into a server that answers concurrent single-example
// encode/reconstruct/predict requests. The ROADMAP north star is a system
// "serving heavy traffic from millions of users"; this package supplies
// the missing half of that story on top of the training stack.
//
// # Architecture
//
// Requests are coalesced by a dynamic micro-batcher: each operation has a
// pending queue that flushes to a worker either when it reaches
// Config.MaxBatch or when the oldest request has waited Config.MaxWait,
// whichever comes first — the batching lever that CHAOS (Viebke et al.)
// shows keeps many-core utilization high, applied to latency-bound
// traffic.
//
// Every model compiles to one forward program (forward.go): an ordered
// list of Dense, Conv and Pool nodes over a parameter table, of which
// each op runs a prefix. Flushed batches execute on a pool of workers,
// each running that program. An F64 worker owns a private simulated
// device (device.Device is not safe for concurrent use) holding the
// parameters, and issues the same blas kernels as training's forward pass
// at any core OptLevel.
//
// At Config.Precision F32 the workers skip the simulated device and run
// the program on the reduced-precision host loop instead: one float32
// weight snapshot is converted per model (lazily, shared read-only) and
// each worker executes the packed f32 kernels with a private activation
// workspace. The request and response surface stays []float64 — rounding
// happens at the staging boundary — and answers differ from the f64 path
// only by float32 rounding, bounded by the cross-precision equivalence
// suite.
//
// Admission is controlled by a bounded queue of Config.QueueDepth
// not-yet-dispatched requests. When the queue is full the configured
// Policy applies: Block waits for space, Shed fails fast with
// ErrOverloaded, and Degrade answers inline from the scalar host
// reference (Params.Encode and friends) — correct but slow, and
// bit-identical to the device path only at core.Baseline.
//
// # Robustness
//
// The serving plane composes with the deterministic PCIe fault model the
// training plane already survives (DESIGN.md §14). Config.Faults arms
// per-worker seeded fault streams on the f64 device path; workers use the
// non-panicking TryCopyIn/TryCopyOut with a bounded serve-level retry on
// top of the device's own, and a supervisor catches worker-fatal faults
// (permanent transfers, retry exhaustion, panics) at the batch boundary:
// the batch is re-dispatched once to a healthy replica or completed with
// a typed *WorkerFaultError, and the worker is rebuilt on a fresh device
// under a capped-restart circuit. Exhausted slots retire, moving the
// health state machine Healthy → Degraded → Down (see Health). Per-request
// deadlines (Config.RequestTimeout, or ctx on the *Context call variants)
// guarantee no caller ever hangs: expired requests return ErrDeadline and
// the late batch result is discarded safely. Drain provides graceful
// shutdown: admission stops while in-flight requests complete.
//
// # Model loading
//
// Weights are immutable copies taken at load time (copy-on-load), so a
// Server never races with continued training on the source model. Load
// from a PHCK checkpoint written by core.Trainer or cmd/phitrain
// (AutoencoderFromCheckpoint and friends), or hand off in-process from a
// trained device model via its Download method:
//
//	model := serve.Autoencoder(cfg, trained.Download())
//	srv, err := serve.New(model, serve.Config{MaxBatch: 16, MaxWait: time.Millisecond})
//
// Each server counts its own events once, in one instance handle per
// event (metrics.go): the handles back the BatcherStats snapshot that
// Server.Stats returns unconditionally, and roll up into the
// internal/metrics series (serve.batch.size, serve.latency.seconds,
// serve.sheds, serve.degrades, serve.tune.adjustments, serve.fault.*,
// serve.restart.*, serve.deadline.*) while collection is enabled. State
// that belongs to one server — queue depth, the adaptive knobs, health —
// is reported in BatcherStats only.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"phideep/internal/core"
	"phideep/internal/device"
	"phideep/internal/sim"
)

// Op identifies a serving operation.
type Op int

const (
	// OpEncode maps an input to its hidden representation (autoencoder,
	// RBM).
	OpEncode Op = iota
	// OpReconstruct round-trips an input through the model (autoencoder,
	// RBM mean-field).
	OpReconstruct
	// OpPredict returns softmax class probabilities (MLP).
	OpPredict

	numOps = 3
)

func (o Op) String() string {
	switch o {
	case OpEncode:
		return "encode"
	case OpReconstruct:
		return "reconstruct"
	case OpPredict:
		return "predict"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Policy selects the admission-control behavior when the request queue is
// full.
type Policy int

const (
	// Block waits until queue space frees up (backpressure onto callers).
	Block Policy = iota
	// Shed fails fast: the request is rejected with ErrOverloaded and no
	// in-flight work is dropped.
	Shed
	// Degrade answers on the caller's goroutine from the scalar host
	// reference instead of queueing — graceful degradation that trades
	// the device's throughput for bounded queueing.
	Degrade
)

func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Shed:
		return "shed"
	case Degrade:
		return "degrade"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Precision selects the numeric width of the worker forward path.
type Precision int

const (
	// F64 (the default) runs the same float64 device path as training.
	F64 Precision = iota
	// F32 runs the reduced-precision host path: workers hold float32
	// weight snapshots (converted copy-on-load) and execute the packed f32
	// kernels directly — double the SIMD lanes per FMA, half the memory
	// traffic. Requests and responses stay []float64 at the API surface;
	// rounding happens at the staging boundary. The Degrade fallback
	// remains the f64 scalar host reference.
	F32
)

func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ErrOverloaded is returned by serving calls under the Shed policy when
// the admission queue is full.
var ErrOverloaded = errors.New("serve: overloaded")

// UnsupportedOpError reports a serving call whose operation the loaded
// model family does not implement — asking an autoencoder to Predict, or a
// classifier to Reconstruct. Every path returns it, including the Degrade
// fallback, which used to assume all operations exist for all families.
type UnsupportedOpError struct {
	Kind string // model family, as reported by Model.Kind
	Op   Op
}

func (e *UnsupportedOpError) Error() string {
	return fmt.Sprintf("serve: %s model does not support %s", e.Kind, e.Op)
}

// ErrClosed is returned by serving calls after Close or Drain.
var ErrClosed = errors.New("serve: server closed")

// Config parameterizes a Server. The zero value of every field selects a
// sensible default (see each field).
type Config struct {
	// Arch is the simulated platform each worker's device models; nil
	// selects the paper's Xeon Phi 5110P.
	Arch *sim.Arch
	// Level is the optimization-ladder step the workers execute at
	// (core.Baseline by default — set core.Improved for the full stack).
	Level core.OptLevel
	// Cores bounds each worker device's physical cores (0 = all).
	Cores int
	// Workers is the number of device-bound workers; each owns a private
	// device and model replica. Default 1.
	Workers int
	// PoolWorkers sizes the Go worker pool backing each device's parallel
	// kernels; 0 runs kernels on the worker goroutine (deterministic and
	// cheap for small models).
	PoolWorkers int
	// MaxBatch is the coalescing limit: a pending queue flushes as soon
	// as it holds this many requests. Default 16.
	MaxBatch int
	// MaxWait is the deadline lever: a pending queue flushes when its
	// oldest request has waited this long, even if the batch is short.
	// Default 1ms.
	MaxWait time.Duration
	// QueueDepth bounds the not-yet-dispatched requests across all
	// operations; at the bound, Policy applies. Default 4×MaxBatch, and
	// it must be at least MaxBatch so a full batch can form.
	QueueDepth int
	// Policy is the full-queue behavior (Block by default).
	Policy Policy
	// Adaptive enables the online batching controller: the effective flush
	// size and deadline start at MaxBatch/MaxWait and are retuned from the
	// live flush stream (flush-full vs flush-deadline ratio, queue depth,
	// shed rate), erasing the latency cliff a static window hits when
	// client concurrency sits below MaxBatch. MaxBatch stays a hard
	// ceiling (worker staging buffers are sized to it) and MaxWait an
	// upper bound. Adjustments are visible as serve.tune.* metrics and in
	// BatcherStats.
	Adaptive bool
	// Precision is the numeric width of the worker forward path: F64 (the
	// default) serves on the simulated device exactly as trained; F32
	// serves from float32 weight snapshots on the packed f32 host kernels,
	// trading ~1e-6-grade per-element differences (see the equivalence
	// suite) for raw latency.
	Precision Precision
	// Seed seeds each worker context's RNG stream (worker i gets
	// Seed + i). Inference paths draw no samples, so this matters only
	// for diagnostics.
	Seed uint64

	// Faults arms the deterministic PCIe fault model on every F64
	// worker's device (a zero Rate leaves it off). Each worker draws from
	// its own derived stream — seeded from Faults.Seed, the slot index,
	// and the rebuild incarnation — so a chaos run replays exactly,
	// independent of goroutine scheduling. The F32 path holds no device
	// and is unaffected. Model upload during replica construction is
	// never fault-injected: faults arm after the replica is built, as a
	// real deployment would fence off provisioning from serving.
	Faults device.FaultConfig
	// FaultRetries bounds the serve-level re-attempts of a staging
	// transfer after the device's own retry budget (Faults.MaxRetries) is
	// exhausted by transient faults — a second line of defense before the
	// fault escalates to the supervisor. Permanent faults escalate
	// immediately. Default 2; negative is invalid.
	FaultRetries int
	// MaxRestarts caps how many times a faulted worker is rebuilt on a
	// fresh device before its slot retires, degrading the server. Default
	// 3. -1 disables rebuilds (retire on first worker-fatal fault); below
	// -1 is invalid.
	MaxRestarts int
	// RequestTimeout is the per-request deadline measured from admission
	// attempt to answer. Expired requests fail with ErrDeadline — whether
	// still waiting for queue space, batched, or in flight on a worker —
	// and a late worker result is discarded safely. 0 disables the
	// deadline; negative is invalid. The *Context call variants compose:
	// the earlier of ctx's deadline and RequestTimeout applies.
	RequestTimeout time.Duration
}

func (c *Config) fillDefaults() error {
	if c.Arch == nil {
		c.Arch = sim.XeonPhi5110P()
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Workers < 0 {
		return fmt.Errorf("serve: negative worker count %d", c.Workers)
	}
	if c.PoolWorkers < 0 {
		return fmt.Errorf("serve: negative pool size %d", c.PoolWorkers)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("serve: negative max batch %d", c.MaxBatch)
	}
	if c.MaxWait == 0 {
		c.MaxWait = time.Millisecond
	}
	if c.MaxWait < 0 {
		return fmt.Errorf("serve: negative max wait %v", c.MaxWait)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.QueueDepth < c.MaxBatch {
		return fmt.Errorf("serve: queue depth %d below max batch %d", c.QueueDepth, c.MaxBatch)
	}
	switch c.Policy {
	case Block, Shed, Degrade:
	default:
		return fmt.Errorf("serve: unknown policy %d", int(c.Policy))
	}
	switch c.Precision {
	case F64, F32:
	default:
		return fmt.Errorf("serve: unknown precision %d", int(c.Precision))
	}
	if c.Faults.Rate > 0 {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if c.FaultRetries == 0 {
		c.FaultRetries = 2
	}
	if c.FaultRetries < 0 {
		return fmt.Errorf("serve: negative fault retries %d", c.FaultRetries)
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	if c.MaxRestarts < -1 {
		return fmt.Errorf("serve: invalid max restarts %d", c.MaxRestarts)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("serve: negative request timeout %v", c.RequestTimeout)
	}
	return nil
}

// maxRestarts is the effective restart budget: the -1 sentinel means zero
// rebuilds.
func (c *Config) maxRestarts() int {
	if c.MaxRestarts < 0 {
		return 0
	}
	return c.MaxRestarts
}

// request lifecycle states, raced between the completing worker (or
// supervisor) and an abandoning caller via the state CAS.
const (
	reqPending int32 = iota
	reqDone
	reqAbandoned
)

// request is one admitted serving call, completed by a worker or the
// supervisor (or answered by the degrade path before admission). in is a
// private copy taken at admission: the caller keeps ownership of its own
// slice and may reuse it immediately after the call returns — even after
// a deadline abandons the request while its batch is still in flight.
type request struct {
	op   Op
	in   []float64
	out  []float64
	err  error
	done chan struct{}
	enq  time.Time

	// state arbitrates completion vs abandonment (reqPending → reqDone by
	// the worker, reqPending → reqAbandoned by a deadline-expired caller);
	// the loser of the CAS race discards its side.
	state atomic.Int32
	// redispatched marks a batch already re-dispatched once after a worker
	// fault; guarded by s.mu. It gates the one-retry supervisor policy and
	// tells the receiving worker the batch already left the admission
	// queue accounting.
	redispatched bool
}

// Server coalesces concurrent inference requests into micro-batches and
// executes them on device-bound workers. Create with New; all exported
// methods are safe for concurrent use.
type Server struct {
	cfg   Config
	model *Model

	mu       sync.Mutex
	notFull  *sync.Cond
	pending  [numOps][]*request
	timerGen [numOps]uint64
	// timers holds the armed flush timer per op so flushes stop it
	// eagerly instead of letting stale generation-guarded timers fire
	// into the lock; timersArmed counts live timers (tested by the churn
	// suite to prove no pile-up).
	timers      [numOps]*time.Timer
	timersArmed int
	queued      int
	// inflight counts admitted requests not yet settled by finishRequest;
	// Drain waits on it reaching zero.
	inflight int
	// live counts worker slots that have not retired; draining marks a
	// Drain in progress. Both feed healthLocked.
	live     int
	draining bool
	closed   bool

	// curBatch/curWait are the effective batching knobs, equal to
	// cfg.MaxBatch/cfg.MaxWait unless the adaptive controller moved them.
	// Guarded by mu, like the tuner itself.
	curBatch int
	curWait  time.Duration
	tuner    *autotuner

	// requests counts admissions; flushFull/flushDeadline split the
	// dispatched batches by flush cause. Guarded by mu.
	requests      int64
	flushFull     int64
	flushDeadline int64

	batches chan []*request
	workers []*worker
	wg      sync.WaitGroup

	st ledger
}

// New builds a server for the model: Workers device-bound replicas plus
// the micro-batcher. The model's weights were already copied at load time,
// so the source of the parameters may keep training.
func New(m *Model, cfg Config) (*Server, error) {
	if m == nil {
		return nil, errors.New("serve: nil model")
	}
	if m.invalid != nil {
		return nil, m.invalid
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		model: m,
		// Workers slots of headroom beyond QueueDepth: flushes send at
		// most queued (≤ QueueDepth) batches, and each worker can have at
		// most one re-dispatched batch in flight, so sends under s.mu
		// never block.
		batches:  make(chan []*request, cfg.QueueDepth+cfg.Workers),
		curBatch: cfg.MaxBatch,
		curWait:  cfg.MaxWait,
		live:     cfg.Workers,
		st:       newLedger(),
	}
	s.notFull = sync.NewCond(&s.mu)
	if cfg.Adaptive {
		s.tuner = newAutotuner(cfg.MaxBatch, cfg.MaxWait)
	}
	for i := 0; i < cfg.Workers; i++ {
		w, err := newWorker(s, i)
		if err != nil {
			for _, prev := range s.workers {
				prev.freeQuiet()
			}
			return nil, fmt.Errorf("serve: worker %d: %w", i, err)
		}
		s.workers = append(s.workers, w)
	}
	for _, w := range s.workers {
		s.wg.Add(1)
		go w.loop()
	}
	return s, nil
}

// Encode maps one example to its hidden representation (autoencoder, RBM).
func (s *Server) Encode(x []float64) ([]float64, error) {
	return s.doCtx(context.Background(), OpEncode, x)
}

// Reconstruct round-trips one example through the model (autoencoder, RBM
// mean-field reconstruction).
func (s *Server) Reconstruct(x []float64) ([]float64, error) {
	return s.doCtx(context.Background(), OpReconstruct, x)
}

// Predict returns the softmax class probabilities for one example (MLP).
func (s *Server) Predict(x []float64) ([]float64, error) {
	return s.doCtx(context.Background(), OpPredict, x)
}

// EncodeContext is Encode honoring ctx: cancellation abandons the request
// (its batch result is discarded safely) and a ctx deadline composes with
// Config.RequestTimeout — the earlier one applies, surfacing as
// ErrDeadline.
func (s *Server) EncodeContext(ctx context.Context, x []float64) ([]float64, error) {
	return s.doCtx(ctx, OpEncode, x)
}

// ReconstructContext is Reconstruct honoring ctx (see EncodeContext).
func (s *Server) ReconstructContext(ctx context.Context, x []float64) ([]float64, error) {
	return s.doCtx(ctx, OpReconstruct, x)
}

// PredictContext is Predict honoring ctx (see EncodeContext).
func (s *Server) PredictContext(ctx context.Context, x []float64) ([]float64, error) {
	return s.doCtx(ctx, OpPredict, x)
}

// Model returns the served model description.
func (s *Server) Model() *Model { return s.model }

// doCtx validates, admits, batches and awaits one request.
func (s *Server) doCtx(ctx context.Context, op Op, x []float64) ([]float64, error) {
	if !s.model.supports(op) {
		return nil, &UnsupportedOpError{Kind: s.model.Kind(), Op: op}
	}
	if len(x) != s.model.InputDim() {
		return nil, fmt.Errorf("serve: input length %d, want %d", len(x), s.model.InputDim())
	}
	// Copy at admission: the request must not alias the caller's slice,
	// which the caller is free to reuse the moment this call returns —
	// and, under a deadline, even before the batch stages.
	in := append([]float64(nil), x...)
	r := &request{op: op, in: in, done: make(chan struct{}), enq: time.Now()}

	var deadline time.Time
	if s.cfg.RequestTimeout > 0 {
		deadline = r.enq.Add(s.cfg.RequestTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}

	admitted, err := s.admit(ctx, r, deadline)
	if err != nil {
		return nil, err
	}
	if !admitted {
		// Degrade policy at a full queue: answer inline from the scalar
		// host reference, outside the lock.
		return s.model.hostInfer(op, in)
	}
	return s.await(ctx, r, deadline)
}

// admit places r in its pending queue, applying the admission policy at a
// full queue. It returns admitted=false with a nil error when the Degrade
// policy should answer inline. Block waits are woken by queue space, Close,
// Drain, the last worker retiring, ctx cancellation, or the request
// deadline (the latter two via one-shot broadcasts armed on first wait).
func (s *Server) admit(ctx context.Context, r *request, deadline time.Time) (bool, error) {
	var waker *time.Timer
	var stopCtx func() bool
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		if waker != nil {
			waker.Stop()
		}
		if stopCtx != nil {
			stopCtx()
		}
	}()
	for {
		if ctx.Err() != nil {
			return false, ctxErr(ctx)
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			s.st.deadlineTimeouts.Inc()
			return false, ErrDeadline
		}
		if s.closed || s.draining {
			return false, ErrClosed
		}
		if s.live == 0 {
			return false, ErrDown
		}
		if s.queued < s.cfg.QueueDepth {
			break
		}
		switch s.cfg.Policy {
		case Shed:
			s.st.sheds.Inc()
			return false, ErrOverloaded
		case Degrade:
			s.st.degrades.Inc()
			return false, nil
		default: // Block
			if waker == nil && !deadline.IsZero() {
				waker = time.AfterFunc(time.Until(deadline), s.notFull.Broadcast)
			}
			if stopCtx == nil && ctx.Done() != nil {
				stopCtx = context.AfterFunc(ctx, s.notFull.Broadcast)
			}
			s.notFull.Wait()
		}
	}
	s.queued++
	s.inflight++
	s.requests++
	s.pending[r.op] = append(s.pending[r.op], r)
	switch {
	case len(s.pending[r.op]) >= s.curBatch:
		s.flushLocked(r.op, true)
	case len(s.pending[r.op]) == 1:
		s.armTimerLocked(r.op)
	}
	return true, nil
}

// await blocks until the request completes or its deadline/ctx expires.
// An expiring caller races the completing worker through the request's
// state CAS: if the caller wins, the eventual result is discarded; if the
// worker already won, the real answer is returned.
func (s *Server) await(ctx context.Context, r *request, deadline time.Time) ([]float64, error) {
	if deadline.IsZero() && ctx.Done() == nil {
		<-r.done
		return r.out, r.err
	}
	var timerC <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timerC = t.C
	}
	select {
	case <-r.done:
		return r.out, r.err
	case <-timerC:
		if s.abandon(r) {
			return nil, ErrDeadline
		}
	case <-ctx.Done():
		if s.abandon(r) {
			return nil, ctxErr(ctx)
		}
	}
	// Lost the abandon race: the worker completed first; its answer is
	// (about to be) published.
	<-r.done
	return r.out, r.err
}

// abandon tries to mark r abandoned; it reports whether the caller won the
// race against the completing worker.
func (s *Server) abandon(r *request) bool {
	if r.state.CompareAndSwap(reqPending, reqAbandoned) {
		s.st.deadlineTimeouts.Inc()
		return true
	}
	return false
}

// ctxErr maps a ctx expiry to the server's error surface: deadline expiry
// becomes ErrDeadline (same class as RequestTimeout), cancellation stays
// context.Canceled.
func ctxErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrDeadline
	}
	return ctx.Err()
}

// armTimerLocked starts the MaxWait flush timer for op's fresh pending
// queue. Caller holds s.mu.
func (s *Server) armTimerLocked(op Op) {
	gen := s.timerGen[op]
	s.timersArmed++
	s.timers[op] = time.AfterFunc(s.curWait, func() { s.deadlineFlush(op, gen) })
}

// flushLocked hands the pending queue of op to the workers, stopping the
// queue's armed flush timer. Caller holds s.mu. The batches channel has a
// slot for every queued request plus re-dispatch headroom, so the send
// cannot block while the lock is held.
func (s *Server) flushLocked(op Op, full bool) {
	if t := s.timers[op]; t != nil {
		if t.Stop() {
			// Stopped before firing; a false return means the timer
			// callback is already running and will settle the ledger
			// itself in deadlineFlush.
			s.timersArmed--
		}
		s.timers[op] = nil
	}
	batch := s.pending[op]
	if len(batch) == 0 {
		return
	}
	s.pending[op] = nil
	s.timerGen[op]++
	s.st.batchSize.Observe(float64(len(batch)))
	if full {
		s.flushFull++
	} else {
		s.flushDeadline++
	}
	s.batches <- batch
	if s.tuner != nil && !s.closed {
		if s.tuner.observe(full, len(batch), s.queued, s.st.sheds.Value()) {
			s.curBatch = s.tuner.batch
			s.curWait = s.tuner.wait
			s.st.adjustments.Inc()
		}
	}
}

// deadlineFlush fires when the oldest request of a pending queue has
// waited MaxWait. gen detects queues already flushed for another reason
// (the timer is stopped eagerly on flush, but Stop can race the firing).
func (s *Server) deadlineFlush(op Op, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timersArmed--
	if s.closed || gen != s.timerGen[op] {
		return
	}
	s.timers[op] = nil
	s.flushLocked(op, false)
}

// Close flushes the pending queues, waits for every in-flight batch to
// complete, and releases the workers' devices. Blocked submitters are
// woken with ErrClosed; no admitted request is dropped. Close is
// idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for op := 0; op < numOps; op++ {
		s.flushLocked(Op(op), false)
	}
	s.notFull.Broadcast()
	s.mu.Unlock()
	close(s.batches)
	s.wg.Wait()
}
