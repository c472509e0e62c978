package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/mlp"
	"phideep/internal/parallel"
	"phideep/internal/rbm"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// trainingOracle builds a case's training model at Batch 1 on ctx, loaded
// with the served parameters, and returns its device answer for op on one
// staged example. It is the served program's independent reference: the
// hand-fused training forward pass, not the node list.
type trainingOracle func(t *testing.T, ctx *blas.Context) func(op Op, x *device.Buffer) *device.Buffer

// servedCase is one model under the served-vs-training-device check.
type servedCase struct {
	name   string
	model  *Model
	oracle trainingOracle
}

func aeCase(name string, cfg autoencoder.Config, p *autoencoder.Params) servedCase {
	return servedCase{name, Autoencoder(cfg, p), func(t *testing.T, ctx *blas.Context) func(Op, *device.Buffer) *device.Buffer {
		cfg.Batch = 1
		m, err := autoencoder.Build(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Free)
		m.Upload(p)
		return func(op Op, x *device.Buffer) *device.Buffer {
			m.Forward(x)
			if op == OpEncode {
				return m.Hidden()
			}
			return m.Output()
		}
	}}
}

// rbmCase's oracle is the deterministic CD-1 gradient pass (no sampling):
// its positive-phase hidden probabilities are Encode, and its first
// reconstruction is the mean-field Reconstruct.
func rbmCase(name string, cfg rbm.Config, p *rbm.Params) servedCase {
	return servedCase{name, RBM(cfg, p), func(t *testing.T, ctx *blas.Context) func(Op, *device.Buffer) *device.Buffer {
		cfg.Batch = 1
		m, err := rbm.Build(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Free)
		m.Upload(p)
		return func(op Op, x *device.Buffer) *device.Buffer {
			m.Gradient(x)
			if op == OpEncode {
				return m.HiddenProbs()
			}
			return m.Reconstruction()
		}
	}}
}

func mlpCase(name string, cfg mlp.Config, p *mlp.Params) servedCase {
	return servedCase{name, MLP(cfg, p), func(t *testing.T, ctx *blas.Context) func(Op, *device.Buffer) *device.Buffer {
		cfg.Batch = 1
		m, err := mlp.Build(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Free)
		m.Upload(p)
		return func(_ Op, x *device.Buffer) *device.Buffer {
			m.Forward(x)
			return m.Probs()
		}
	}}
}

func convnetCase(name string, cfg convnet.Config, p *convnet.Params) servedCase {
	return servedCase{name, Convnet(cfg, p), func(t *testing.T, ctx *blas.Context) func(Op, *device.Buffer) *device.Buffer {
		cfg.Batch = 1
		m, err := convnet.Build(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Free)
		m.Upload(p)
		return func(_ Op, x *device.Buffer) *device.Buffer {
			m.Forward(x)
			return m.Probs()
		}
	}}
}

// checkServed serves xs concurrently through every op of the case's model
// at lvl, coalescing up to 4 per batch, and compares each answer (a) with
// the training model's device forward pass at Batch 1 on the same level —
// bitwise, proving neither the node list nor batching composition changes
// a bit — and (b) with the scalar host reference: bitwise at Baseline,
// 1e-12 relative at the blocked levels, which reorder the k-summation.
func checkServed(t *testing.T, lvl core.OptLevel, c servedCase, xs [][]float64) {
	t.Helper()
	srv, err := New(c.model, Config{Level: lvl, Workers: 2, MaxBatch: 4, MaxWait: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dev := device.New(sim.XeonPhi5110P(), true, nil)
	oracle := c.oracle(t, core.NewContext(dev, lvl, 0, 99))
	dim := c.model.InputDim()
	xbuf := dev.MustAlloc(1, dim)
	defer dev.Free(xbuf)

	for _, op := range c.model.Ops() {
		served := make([][]float64, len(xs))
		var wg sync.WaitGroup
		for i := range xs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out, err := srv.doCtx(context.Background(), op, xs[i])
				if err != nil {
					t.Errorf("%s %s: %v", c.name, op, err)
					return
				}
				served[i] = out
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		for i, x := range xs {
			dev.CopyIn(xbuf, tensor.FromSlice(1, dim, x), 0)
			out := oracle(op, xbuf)
			ref := tensor.NewMatrix(1, out.Cols)
			dev.CopyOut(out, ref)
			want := ref.RowView(0)
			hostWant, err := c.model.hostInfer(op, x)
			if err != nil {
				t.Fatal(err)
			}
			if len(served[i]) != len(want) {
				t.Fatalf("%s %s: served %d outputs, training model %d", c.name, op, len(served[i]), len(want))
			}
			for j := range want {
				if served[i][j] != want[j] {
					t.Fatalf("%s %s %s: served[%d][%d] = %g, training device = %g", c.name, op, lvl, i, j, served[i][j], want[j])
				}
				if lvl == core.Baseline {
					if served[i][j] != hostWant[j] {
						t.Fatalf("%s %s Baseline: served[%d][%d] = %g, host reference = %g", c.name, op, i, j, served[i][j], hostWant[j])
					}
				} else if !closeRel(served[i][j], hostWant[j], 1e-12) {
					t.Fatalf("%s %s %s: served[%d][%d] = %g, host reference = %g beyond 1e-12", c.name, op, lvl, i, j, served[i][j], hostWant[j])
				}
			}
		}
	}
}

// TestDeviceForwardChargesTrainingTime pins the simulated cost: on a
// timing-only device, one pass of a served program issues the same
// kernels and charges exactly the simulated time of the training model's
// Forward at the same batch and level.
func TestDeviceForwardChargesTrainingTime(t *testing.T) {
	const batch = 8
	aeCfg := autoencoder.Config{Visible: 64, Hidden: 32, Batch: batch}
	tied := aeCfg
	tied.Tied = true
	mlpCfg := mlp.Config{Sizes: []int{64, 32, 16, 10}, Batch: batch}
	convCfg := convTestConfig()
	convCfg.Batch = batch
	type forwarder interface {
		Forward(*device.Buffer)
		Free()
	}
	cases := []struct {
		name  string
		model *Model
		train func(*blas.Context) (forwarder, error)
	}{
		{"autoencoder", Autoencoder(aeCfg, nil), func(ctx *blas.Context) (forwarder, error) { return autoencoder.Build(ctx, aeCfg) }},
		{"tied-autoencoder", Autoencoder(tied, nil), func(ctx *blas.Context) (forwarder, error) { return autoencoder.Build(ctx, tied) }},
		{"mlp", MLP(mlpCfg, nil), func(ctx *blas.Context) (forwarder, error) { return mlp.Build(ctx, mlpCfg) }},
		{"convnet", Convnet(convCfg, nil), func(ctx *blas.Context) (forwarder, error) { return convnet.Build(ctx, convCfg) }},
	}
	for _, lvl := range core.OptLevels {
		for _, c := range cases {
			// charge builds a model on a fresh timing-only device, stages
			// one batch and returns the time and launches of one pass.
			charge := func(build func(*blas.Context) (forwarder, error)) (float64, int) {
				dev := device.New(sim.XeonPhi5110P(), false, nil)
				m, err := build(core.NewContext(dev, lvl, 0, 1))
				if err != nil {
					t.Fatal(err)
				}
				defer m.Free()
				x := dev.MustAlloc(batch, c.model.InputDim())
				dev.CopyIn(x, nil, 0)
				start, ops := dev.Now(), dev.Stats().Ops
				m.Forward(x)
				return dev.Now() - start, dev.Stats().Ops - ops
			}
			want, wantOps := charge(c.train)
			got, gotOps := charge(func(ctx *blas.Context) (forwarder, error) {
				f, err := NewDeviceForward(ctx, c.model, batch)
				return deviceForwarder{f}, err
			})
			if got != want || gotOps != wantOps {
				t.Errorf("%s %s: served pass %d launches, %g s; training Forward %d launches, %g s",
					c.name, lvl, gotOps, got, wantOps, want)
			}
		}
	}
}

// deviceForwarder gives a DeviceForward the training models' Forward
// signature.
type deviceForwarder struct{ *DeviceForward }

func (f deviceForwarder) Forward(x *device.Buffer) { f.Infer(x) }

// TestHostForwardPackedMatchesUnpacked pins the bit-identity of serving on
// pre-packed weights: the f32 host loop on the model's shared panels
// answers exactly what it answers multiplying the unpacked f32 weights
// with kernels.Gemm, at every kernel level, pool size, node prefix and
// batch size. The AE's 520 visibles cross the packed GEMM's kc and nc
// block edges.
func TestHostForwardPackedMatchesUnpacked(t *testing.T) {
	const maxBatch = 5
	ae := autoencoder.Config{Visible: 520, Hidden: 40, Seed: 3}
	tied := ae
	tied.Tied = true
	gauss := rbm.Config{Visible: 30, Hidden: 20, GaussianVisible: true, Seed: 4}
	models := []struct {
		name string
		m    *Model
	}{
		{"autoencoder", Autoencoder(ae, nil)},
		{"tied-autoencoder", Autoencoder(tied, nil)},
		{"gaussian-rbm", RBM(gauss, nil)},
		{"convnet", Convnet(convTestConfig(), nil)},
	}
	pool3 := parallel.NewPool(3)
	defer pool3.Close()
	r := rng.New(11)
	for _, c := range models {
		x := tensor.NewMatrix(maxBatch, c.m.InputDim()).Randomize(r, 0, 1).To32()
		for _, lvl := range kernels.Levels {
			for _, pool := range []*parallel.Pool{nil, pool3} {
				packed := newHostForward(c.m, pool, lvl, maxBatch)
				if lvl.IsBlocked() != (packed.packed != nil) {
					t.Fatalf("%s %v: pre-packed = %v, want it exactly at the blocked levels", c.name, lvl, packed.packed != nil)
				}
				plain := newHostForward(c.m, pool, lvl, maxBatch)
				plain.packed = nil
				for upto := 1; upto <= len(c.m.prog.nodes); upto++ {
					for _, n := range []int{1, maxBatch} {
						want := plain.run(x.RowsView(0, n), upto)
						got := packed.run(x.RowsView(0, n), upto)
						if !tensor.Equal(want, got, 0) {
							t.Fatalf("%s %v pool=%v nodes=%d batch=%d: pre-packed differs from Gemm by %g",
								c.name, lvl, pool != nil, upto, n, tensor.MaxAbsDiff(want, got))
						}
					}
				}
			}
		}
	}
}
