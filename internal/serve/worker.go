package serve

import (
	"errors"
	"fmt"
	"time"

	"phideep/internal/core"
	"phideep/internal/device"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// worker executes homogeneous request batches through the model's forward
// program on one of two loops, fixed at construction by Config.Precision:
//
//   - F64: a private simulated device (devices are not safe for concurrent
//     use) holding the program's parameters, the exact kernels training
//     runs. When Config.Faults is armed, the device injects deterministic
//     transfer faults from the worker's derived stream; staging uses the
//     non-panicking TryCopyIn/TryCopyOut under retryTransfer.
//   - F32: the reduced-precision host loop on the packed f32 kernels and
//     the worker's pool, no device in the loop. Weights are the model's
//     shared f32 snapshot; activations are private.
//
// All workers share the server's immutable Model snapshot read-only. The
// lifecycle fields (restarts, retired, cause) are owned by the worker's
// own goroutine: only loop and the supervisor it calls touch them.
type worker struct {
	s    *Server
	slot int

	// restarts counts rebuilds consumed from Config.MaxRestarts; retired
	// marks the slot permanently failed with cause the final fault.
	restarts int
	retired  bool
	cause    error

	pool  *parallel.Pool
	fwd   *DeviceForward
	fwd32 *hostForward

	// x is the staging input buffer, MaxBatch×InputDim; partial batches
	// compute on its [0,n) row view. stage is its host mirror — CopyIn
	// transfers whole buffers, so short batches ride in with stale tail
	// rows that the sliced forward pass never reads. stage32 plays the
	// same staging role for the f32 loop, with the float64→float32
	// rounding folded into the row copy.
	x       *device.Buffer
	stage   *tensor.Matrix
	stage32 *tensor.Matrix32
}

// newWorker builds worker i's first incarnation.
func newWorker(s *Server, i int) (*worker, error) {
	w := &worker{s: s, slot: i}
	if err := w.build(); err != nil {
		return nil, err
	}
	return w, nil
}

// build constructs the worker's execution state: private pool (optional),
// then either the device-resident f64 program or the host f32 one. The
// supervisor calls it again after teardown to rebuild a faulted worker on
// a fresh device. Fault injection arms only after the parameters are
// uploaded and staging is allocated: model upload happens on the
// panicking transfer path by design — provisioning is fenced off from
// serving, as it would be in a real deployment.
func (w *worker) build() error {
	cfg := w.s.cfg
	if cfg.PoolWorkers > 0 {
		w.pool = parallel.NewPool(cfg.PoolWorkers)
	}
	m := w.s.model

	if cfg.Precision == F32 {
		w.fwd32 = newHostForward(m, w.pool, cfg.Level.KernelLevel(), cfg.MaxBatch)
		w.stage32 = tensor.NewMatrix32(cfg.MaxBatch, m.InputDim())
		return nil
	}

	dev := device.New(cfg.Arch, true, w.pool)
	ctx := core.NewContext(dev, cfg.Level, cfg.Cores, cfg.Seed+uint64(w.slot))
	var err error
	if w.fwd, err = NewDeviceForward(ctx, m, cfg.MaxBatch); err != nil {
		w.free()
		return err
	}
	if w.x, err = dev.Alloc(cfg.MaxBatch, m.InputDim()); err != nil {
		w.free()
		return err
	}
	w.stage = tensor.NewMatrix(cfg.MaxBatch, m.InputDim())
	if cfg.Faults.Rate > 0 {
		if err := dev.EnableFaults(workerFaultConfig(cfg.Faults, w.slot, w.restarts)); err != nil {
			w.free()
			return err
		}
	}
	return nil
}

// loop drains the dispatch channel until the server closes it, handing
// faulted batches to the supervisor. A retired worker normally exits and
// leaves the channel to the survivors; the last retiree instead stays
// behind as the drainer, completing everything with typed errors.
func (w *worker) loop() {
	defer w.s.wg.Done()
	defer w.freeQuiet()
	for batch := range w.s.batches {
		// Re-dispatched batches already left the admission queue's
		// accounting when their first worker received them.
		if !batch[0].redispatched {
			w.s.mu.Lock()
			w.s.queued -= len(batch)
			w.s.notFull.Broadcast()
			w.s.mu.Unlock()
		}
		if w.retired {
			w.s.failBatch(batch, w.faultError(w.cause))
			continue
		}
		if err := w.runSafe(batch); err != nil {
			if !w.handleFault(batch, err) {
				return
			}
		}
	}
}

// runSafe executes one batch with the panic boundary the supervisor
// relies on: any panic escaping the forward path (a device invariant
// tripped mid-batch, a kernel bug) surfaces as an error instead of
// killing the process.
func (w *worker) runSafe(batch []*request) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: worker panic: %v", p)
		}
	}()
	if w.fwd32 != nil {
		w.run32(batch)
		return nil
	}
	return w.run(batch)
}

// run executes one homogeneous batch on the f64 device path: stage the
// rows, one CopyIn, the batched device forward pass on the [0,n) view, one
// CopyOut, then complete every request. Per-row results are independent of
// the batch composition (GEMM partitions and reduces per output row), so
// coalescing never changes an answer bit. Transfer faults that survive
// retryTransfer escalate to the caller (the supervisor); the batch is NOT
// completed here in that case.
func (w *worker) run(batch []*request) error {
	op := batch[0].op
	n := len(batch)
	for i, r := range batch {
		copy(w.stage.RowView(i), r.in)
	}
	dev := w.fwd.ctx.Dev
	if err := w.retryTransfer(func() error {
		_, err := dev.TryCopyIn(w.x, w.stage, 0)
		return err
	}); err != nil {
		return err
	}
	xv := w.x
	if n < w.x.Rows {
		xv = w.x.Slice(0, n)
	}

	out := w.fwd.run(xv, w.s.model.prefix[op])

	res := tensor.NewMatrix(n, out.Cols)
	if err := w.retryTransfer(func() error {
		_, err := dev.TryCopyOut(out, res)
		return err
	}); err != nil {
		return err
	}
	w.complete64(batch, res)
	return nil
}

// retryTransfer runs one staging transfer with the serve-level retry on
// top of the device's own: a transient *TransferError (the device already
// exhausted Faults.MaxRetries) is re-attempted up to Config.FaultRetries
// times; permanent faults and exhaustion escalate to the supervisor.
func (w *worker) retryTransfer(attempt func() error) error {
	for tries := 0; ; tries++ {
		err := attempt()
		if err == nil {
			return nil
		}
		var terr *device.TransferError
		if !errors.As(err, &terr) || terr.Permanent || tries >= w.s.cfg.FaultRetries {
			return err
		}
		w.s.st.faultRetries.Inc()
	}
}

// run32 executes one homogeneous batch on the reduced-precision host path.
// Inputs round to float32 as they stage; the forward pass runs the packed
// f32 kernels on the worker's pool; outputs widen back to float64 on
// completion, so callers see the same []float64 surface as the f64 path.
// As with the device path, per-row results are batch-composition
// independent and bit-deterministic for a fixed worker pool size. No
// device is in the loop, so the fault model does not apply.
func (w *worker) run32(batch []*request) {
	op := batch[0].op
	n := len(batch)
	for i, r := range batch {
		tensor.Round32(w.stage32.RowView(i), r.in)
	}
	xv := w.stage32.RowsView(0, n)

	out := w.fwd32.run(xv, w.s.model.prefix[op])

	now := time.Now()
	for i, r := range batch {
		o := make([]float64, out.Cols)
		tensor.Widen64(o, out.RowView(i))
		w.s.finishRequest(r, o, nil, now)
	}
}

// complete64 copies the device results out to the batch's requests.
func (w *worker) complete64(batch []*request, res *tensor.Matrix) {
	now := time.Now()
	for i, r := range batch {
		o := append([]float64(nil), res.RowView(i)...)
		w.s.finishRequest(r, o, nil, now)
	}
}

// free releases the worker's device resources and pool. The f32 loop
// holds no device; its workspaces are plain host memory.
func (w *worker) free() {
	if w.fwd != nil {
		if w.x != nil {
			w.fwd.ctx.Dev.Free(w.x)
			w.x = nil
		}
		w.fwd.Free()
		w.fwd = nil
	}
	w.fwd32 = nil
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
}

// freeQuiet is free for teardown paths that must survive a device in an
// arbitrary post-fault state: a panic during release is swallowed (the
// simulated resources are process-local; leaking them beats crashing the
// supervisor or hanging Close's wg.Wait).
func (w *worker) freeQuiet() {
	defer func() { _ = recover() }()
	w.free()
}
