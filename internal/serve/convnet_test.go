package serve

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"phideep/internal/blas"
	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func convTestConfig() convnet.Config {
	return convnet.Config{
		Side: 8, Filters1: 3, Kernel1: 3, Filters2: 4, Kernel2: 3,
		Pool: 2, Classes: 5, Batch: 4, Seed: 1,
	}
}

// TestConvnetServedMatchesDirectDevice is the convnet acceptance check: at
// every OptLevel, coalesced served predictions are bitwise equal to the
// training convnet's device forward pass at Batch 1 on the same level, and
// match the scalar host reference bitwise at Baseline (1e-12 relative at
// the blocked levels, which regroup the K-summation).
func TestConvnetServedMatchesDirectDevice(t *testing.T) {
	cfg := convTestConfig()
	c := convnetCase("convnet", cfg, convnet.NewParams(cfg, 81))
	xs := randExamples(9, cfg.InputDim(), 82)
	for _, lvl := range core.OptLevels {
		t.Run(lvl.String(), func(t *testing.T) { checkServed(t, lvl, c, xs) })
	}
}

// TestConvnetServedF32 checks the reduced-precision serving path against
// the f64 host reference within the float32 budget.
func TestConvnetServedF32(t *testing.T) {
	cfg := convTestConfig()
	p := convnet.NewParams(cfg, 91)
	srv, err := New(Convnet(cfg, p), Config{
		Level:     core.Improved,
		Precision: F32,
		MaxBatch:  4,
		MaxWait:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i, x := range randExamples(6, cfg.InputDim(), 92) {
		probs, err := srv.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		want := p.PredictProbs(cfg, x)
		sum := 0.0
		for j := range want {
			if d := math.Abs(probs[j] - want[j]); d > 1e-4 {
				t.Fatalf("f32 probs[%d][%d] = %g, f64 reference %g (diff %g)", i, j, probs[j], want[j], d)
			}
			sum += probs[j]
		}
		if !closeRel(sum, 1, 1e-6) {
			t.Fatalf("probs sum %g", sum)
		}
	}
}

// TestUnsupportedOpTyped is the regression test for the Degrade fallback
// bug: an op the model family does not implement must return
// *UnsupportedOpError on every path — the normal admission path and the
// degraded full-queue path, which used to fall through to another family's
// forward pass (or panic).
func TestUnsupportedOpTyped(t *testing.T) {
	cfg := convTestConfig()
	srv, err := New(Convnet(cfg, nil), Config{Policy: Degrade})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := make([]float64, cfg.InputDim())
	var uerr *UnsupportedOpError

	// Normal path.
	if _, err := srv.Encode(x); !errors.As(err, &uerr) {
		t.Fatalf("convnet Encode error = %v, want *UnsupportedOpError", err)
	}
	if uerr.Kind != "convnet" || uerr.Op != OpEncode {
		t.Fatalf("error fields %+v", uerr)
	}

	// Degraded path: saturate the queue so the request is answered inline,
	// where the old code indexed into a nil model family.
	release := forceFull(srv)
	defer release()
	if _, err := srv.Reconstruct(x); !errors.As(err, &uerr) {
		t.Fatalf("degraded convnet Reconstruct error = %v, want *UnsupportedOpError", err)
	}
	if uerr.Op != OpReconstruct {
		t.Fatalf("degraded error op %v", uerr.Op)
	}
	// A supported op must still be answered inline while degraded.
	out, err := srv.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != cfg.Classes {
		t.Fatalf("degraded predict returned %d classes, want %d", len(out), cfg.Classes)
	}
}

// TestConvnetCheckpointLoad round-trips convnet parameters through a PHCK
// file into a server.
func TestConvnetCheckpointLoad(t *testing.T) {
	cfg := convTestConfig()
	p := convnet.NewParams(cfg, 101)
	var blob bytes.Buffer
	if err := p.Save(&blob); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "convnet.phck")
	if err := core.WriteCheckpoint(path, &core.Checkpoint{Step: 3, Model: blob.Bytes()}); err != nil {
		t.Fatal(err)
	}

	m, err := ConvnetFromCheckpoint(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind() != "convnet" {
		t.Fatalf("kind %q", m.Kind())
	}
	srv, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := randExamples(1, cfg.InputDim(), 102)[0]
	got, err := srv.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	want := p.PredictProbs(cfg, x)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("checkpoint-served predict[%d] = %g, want %g", j, got[j], want[j])
		}
	}

	if _, err := ConvnetFromCheckpoint(cfg, filepath.Join(t.TempDir(), "missing.phck")); err == nil {
		t.Fatal("missing checkpoint should fail")
	}
}

// TestConvnetF32MatchesReference bounds the convnet on the f32 host loop
// against the float64 scalar reference: per-class probability error within
// the reduced-precision budget at every kernel ladder level.
func TestConvnetF32MatchesReference(t *testing.T) {
	cfg := convTestConfig()
	p := convnet.NewParams(cfg, 31)
	const n = 5
	xs := randExamples(n, cfg.InputDim(), 32)
	x32 := tensor.NewMat[float32](n, cfg.InputDim())
	for i, x := range xs {
		tensor.Convert(x32.RowView(i), x)
	}
	m := Convnet(cfg, p)
	for _, lvl := range kernels.Levels {
		probs := newHostForward(m, nil, lvl, n).run(x32, len(m.prog.nodes))
		for i, x := range xs {
			want := p.PredictProbs(cfg, x)
			got := probs.RowView(i)
			for j := range want {
				if d := math.Abs(float64(got[j]) - want[j]); d > 1e-4 {
					t.Fatalf("level %v row %d class %d: f32 %g vs f64 %g", lvl, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestConvnetPartialBatch checks that both forward loops run fewer rows
// than their workspace on row views, matching per-example references.
func TestConvnetPartialBatch(t *testing.T) {
	cfg := convTestConfig()
	p := convnet.NewParams(cfg, 41)
	m := Convnet(cfg, p)
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	f, err := NewDeviceForward(blas.NewContext(dev, kernels.ParallelBlocked, 1), m, cfg.Batch)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Free()

	n := cfg.Batch - 1
	xs := randExamples(n, cfg.InputDim(), 42)
	x := tensor.NewMatrix(n, cfg.InputDim())
	for i := range xs {
		copy(x.RowView(i), xs[i])
	}
	dx := dev.MustAlloc(n, cfg.InputDim())
	dev.CopyIn(dx, x, 0)
	out := f.Infer(dx)
	if out.Rows != n || out.Cols != cfg.Classes {
		t.Fatalf("inference output %dx%d", out.Rows, out.Cols)
	}
	for i := 0; i < n; i++ {
		want := p.PredictProbs(cfg, x.RowView(i))
		got := out.Mat.RowView(i)
		for j := range want {
			if d := math.Abs(got[j] - want[j]); d > 1e-12 {
				t.Fatalf("row %d class %d: %g vs %g", i, j, got[j], want[j])
			}
		}
	}

	out32 := newHostForward(m, nil, kernels.ParallelBlocked, cfg.Batch).run(x.To32(), len(m.prog.nodes))
	if out32.Rows != n {
		t.Fatalf("f32 inference rows %d", out32.Rows)
	}
}
