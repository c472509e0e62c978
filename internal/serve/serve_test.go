package serve

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"phideep/internal/autoencoder"
	"phideep/internal/core"
	"phideep/internal/mlp"
	"phideep/internal/rbm"
	"phideep/internal/rng"
)

func aeTestConfig() autoencoder.Config {
	return autoencoder.Config{Visible: 12, Hidden: 7, Lambda: 1e-4, Rho: 0.05, Beta: 0.1}
}

func randExamples(n, dim int, seed uint64) [][]float64 {
	r := rng.New(seed)
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = r.Float64()
		}
	}
	return xs
}

func closeRel(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d == 0 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(scale, 1)
}

// TestFlushOnFull pins the max-batch trigger: with an effectively infinite
// deadline, exactly MaxBatch concurrent requests must coalesce into one
// full flush.
func TestFlushOnFull(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{
		MaxBatch: 4,
		MaxWait:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	xs := randExamples(4, cfg.Visible, 2)
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func(x []float64) {
			defer wg.Done()
			if _, err := srv.Encode(x); err != nil {
				t.Errorf("Encode: %v", err)
			}
		}(x)
	}
	wg.Wait()

	st := srv.Stats()
	if st.Batches != 1 || st.FlushFull != 1 || st.FlushDeadline != 0 {
		t.Fatalf("want one full flush, got %+v", st)
	}
	if st.AvgBatchSize != 4 {
		t.Fatalf("avg batch size %g, want 4", st.AvgBatchSize)
	}
	if st.Requests != 4 || st.Completed != 4 {
		t.Fatalf("requests/completed %d/%d, want 4/4", st.Requests, st.Completed)
	}
}

// TestFlushOnDeadline pins the max-wait trigger: a partial batch must
// flush on the deadline, never reaching MaxBatch.
func TestFlushOnDeadline(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{
		MaxBatch: 64,
		MaxWait:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	xs := randExamples(3, cfg.Visible, 3)
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func(x []float64) {
			defer wg.Done()
			if _, err := srv.Encode(x); err != nil {
				t.Errorf("Encode: %v", err)
			}
		}(x)
	}
	wg.Wait()

	st := srv.Stats()
	if st.FlushFull != 0 {
		t.Fatalf("unexpected full flush: %+v", st)
	}
	if st.FlushDeadline < 1 {
		t.Fatalf("no deadline flush: %+v", st)
	}
	if st.Completed != 3 {
		t.Fatalf("completed %d, want 3", st.Completed)
	}
}

// forceFull artificially saturates the admission queue (white-box) and
// returns a release func. In-flight and pending work is unaffected:
// workers subtract their batch sizes from the inflated count.
func forceFull(s *Server) (release func()) {
	s.mu.Lock()
	s.queued += s.cfg.QueueDepth
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.queued -= s.cfg.QueueDepth
		s.notFull.Broadcast()
		s.mu.Unlock()
	}
}

// TestShedOverload pins the Shed policy: a full queue rejects new requests
// with ErrOverloaded while already-admitted requests still complete.
func TestShedOverload(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{
		MaxBatch: 8,
		MaxWait:  20 * time.Millisecond,
		Policy:   Shed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Admit two requests; they sit pending until the deadline flush.
	xs := randExamples(3, cfg.Visible, 4)
	results := make(chan error, 2)
	for _, x := range xs[:2] {
		go func(x []float64) {
			_, err := srv.Encode(x)
			results <- err
		}(x)
	}
	// Wait until both are admitted before saturating.
	for srv.Stats().Requests < 2 {
		time.Sleep(time.Millisecond)
	}

	release := forceFull(srv)
	if _, err := srv.Encode(xs[2]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full-queue Encode error = %v, want ErrOverloaded", err)
	}
	release()

	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("in-flight request dropped: %v", err)
		}
	}
	st := srv.Stats()
	if st.Sheds != 1 {
		t.Fatalf("sheds %d, want 1", st.Sheds)
	}
	if st.Completed != 2 {
		t.Fatalf("completed %d, want 2", st.Completed)
	}
}

// TestDegradeOverload pins the Degrade policy: a full queue answers from
// the scalar host path, bit-identical to Params.Encode.
func TestDegradeOverload(t *testing.T) {
	cfg := aeTestConfig()
	p := autoencoder.NewParams(cfg, 7)
	srv, err := New(Autoencoder(cfg, p), Config{Policy: Degrade})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := randExamples(1, cfg.Visible, 5)[0]
	release := forceFull(srv)
	got, err := srv.Encode(x)
	release()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, cfg.Hidden)
	p.Encode(x, want)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("degraded encode[%d] = %g, want %g", j, got[j], want[j])
		}
	}
	if st := srv.Stats(); st.Degrades != 1 || st.Requests != 0 {
		t.Fatalf("stats %+v, want one degrade and no admissions", st)
	}
}

// TestBlockOverload pins the Block policy: a full queue parks the caller
// until space frees, then the request completes normally.
func TestBlockOverload(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{
		MaxWait: time.Millisecond,
		Policy:  Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := randExamples(1, cfg.Visible, 6)[0]
	release := forceFull(srv)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Encode(x)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("blocked request returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked request never completed after release")
	}
}

// TestServedMatchesReference is the main equivalence check for the
// dense model kinds: at every OptLevel, coalesced served answers for every
// op equal the training model's own device forward pass bitwise and track
// the scalar host reference (see checkServed).
func TestServedMatchesReference(t *testing.T) {
	aeCfg := aeTestConfig()
	tied := aeCfg
	tied.Tied = true
	rbmCfg := rbm.Config{Visible: 10, Hidden: 6}
	gauss := rbmCfg
	gauss.GaussianVisible = true
	mlpCfg := mlp.Config{Sizes: []int{12, 8, 5, 3}}
	cases := []servedCase{
		aeCase("autoencoder", aeCfg, autoencoder.NewParams(aeCfg, 11)),
		aeCase("tied-autoencoder", tied, autoencoder.NewParams(tied, 13)),
		rbmCase("rbm", rbmCfg, rbm.NewParams(rbmCfg, 21)),
		rbmCase("gaussian-rbm", gauss, rbm.NewParams(gauss, 23)),
		mlpCase("mlp", mlpCfg, mlp.NewParams(mlpCfg, 31)),
	}
	for _, lvl := range core.OptLevels {
		t.Run(lvl.String(), func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					checkServed(t, lvl, c, randExamples(13, c.model.InputDim(), 12))
				})
			}
		})
	}
}

// TestRBMServed checks the RBM encode/reconstruct path against the host
// reference at the Improved level.
func TestRBMServed(t *testing.T) {
	cfg := rbm.Config{Visible: 10, Hidden: 6}
	p := rbm.NewParams(cfg, 21)
	srv, err := New(RBM(cfg, p), Config{Level: core.Improved, MaxBatch: 4, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i, x := range randExamples(5, cfg.Visible, 22) {
		enc, err := srv.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := srv.Reconstruct(x)
		if err != nil {
			t.Fatal(err)
		}
		wantEnc := make([]float64, cfg.Hidden)
		p.Encode(x, wantEnc)
		wantRec := make([]float64, cfg.Visible)
		p.Reconstruct(x, wantRec, cfg.GaussianVisible)
		for j := range wantEnc {
			if !closeRel(enc[j], wantEnc[j], 1e-12) {
				t.Fatalf("encode[%d][%d] = %g, want %g", i, j, enc[j], wantEnc[j])
			}
		}
		for j := range wantRec {
			if !closeRel(rec[j], wantRec[j], 1e-12) {
				t.Fatalf("reconstruct[%d][%d] = %g, want %g", i, j, rec[j], wantRec[j])
			}
		}
	}
}

// TestMLPServed checks the classifier path against PredictProbs, and that
// unsupported ops fail cleanly on both sides.
func TestMLPServed(t *testing.T) {
	cfg := mlp.Config{Sizes: []int{8, 5, 3}}
	p := mlp.NewParams(cfg, 31)
	srv, err := New(MLP(cfg, p), Config{Level: core.Improved, MaxBatch: 4, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i, x := range randExamples(5, 8, 32) {
		probs, err := srv.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		want := p.PredictProbs(cfg, x)
		sum := 0.0
		for j := range want {
			if !closeRel(probs[j], want[j], 1e-12) {
				t.Fatalf("probs[%d][%d] = %g, want %g", i, j, probs[j], want[j])
			}
			sum += probs[j]
		}
		if !closeRel(sum, 1, 1e-9) {
			t.Fatalf("probs sum %g", sum)
		}
	}
	if _, err := srv.Encode(make([]float64, 8)); err == nil {
		t.Fatal("mlp Encode should be unsupported")
	}

	aeCfg := aeTestConfig()
	aeSrv, err := New(Autoencoder(aeCfg, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer aeSrv.Close()
	if _, err := aeSrv.Predict(make([]float64, aeCfg.Visible)); err == nil {
		t.Fatal("autoencoder Predict should be unsupported")
	}
}

// TestCheckpointLoad round-trips parameters through a PHCK file into a
// server and checks the served answers against the original parameters.
func TestCheckpointLoad(t *testing.T) {
	cfg := aeTestConfig()
	p := autoencoder.NewParams(cfg, 41)
	var blob bytes.Buffer
	if err := p.Save(&blob); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.phck")
	if err := core.WriteCheckpoint(path, &core.Checkpoint{Step: 5, Model: blob.Bytes()}); err != nil {
		t.Fatal(err)
	}

	m, err := AutoencoderFromCheckpoint(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := randExamples(1, cfg.Visible, 42)[0]
	got, err := srv.Encode(x)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, cfg.Hidden)
	p.Encode(x, want)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("checkpoint-served encode[%d] = %g, want %g", j, got[j], want[j])
		}
	}

	if _, err := AutoencoderFromCheckpoint(cfg, filepath.Join(t.TempDir(), "missing.phck")); err == nil {
		t.Fatal("missing checkpoint should fail")
	}
}

// TestCopyOnLoad verifies serving never sees mutations made to the source
// parameters after the Model was constructed.
func TestCopyOnLoad(t *testing.T) {
	cfg := aeTestConfig()
	p := autoencoder.NewParams(cfg, 51)
	m := Autoencoder(cfg, p)
	x := randExamples(1, cfg.Visible, 52)[0]
	want := make([]float64, cfg.Hidden)
	p.Encode(x, want)

	// Trash the source after load.
	p.W1.Fill(1e9)
	p.B1[0] = -1e9

	srv, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got, err := srv.Encode(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("served encode[%d] = %g, want %g (weights not copied on load)", j, got[j], want[j])
		}
	}
}

// TestClose pins shutdown: pending work completes, later calls fail with
// ErrClosed, and Close is idempotent.
func TestClose(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, nil), Config{MaxBatch: 64, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	x := randExamples(1, cfg.Visible, 61)[0]
	done := make(chan error, 1)
	go func() {
		_, err := srv.Encode(x)
		done <- err
	}()
	for srv.Stats().Requests < 1 {
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("pending request dropped by Close: %v", err)
	}
	if _, err := srv.Encode(x); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Encode error = %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
}

// TestConcurrentStress drives many clients across ops and workers — the
// race detector's playground (ci runs this package with -race).
func TestConcurrentStress(t *testing.T) {
	cfg := aeTestConfig()
	p := autoencoder.NewParams(cfg, 71)
	srv, err := New(Autoencoder(cfg, p), Config{
		Level:    core.Improved,
		Workers:  3,
		MaxBatch: 8,
		MaxWait:  500 * time.Microsecond,
		Policy:   Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			xs := randExamples(perClient, cfg.Visible, uint64(100+c))
			for i, x := range xs {
				var out []float64
				var err error
				if i%2 == 0 {
					out, err = srv.Encode(x)
				} else {
					out, err = srv.Reconstruct(x)
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if len(out) == 0 {
					t.Errorf("client %d: empty result", c)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Completed != clients*perClient {
		t.Fatalf("completed %d, want %d", st.Completed, clients*perClient)
	}
	if st.Batches == 0 || st.AvgBatchSize < 1 {
		t.Fatalf("no batching recorded: %+v", st)
	}
}

// TestConfigValidation sweeps the rejection paths.
func TestConfigValidation(t *testing.T) {
	cfg := aeTestConfig()
	m := Autoencoder(cfg, nil)
	bad := []Config{
		{Workers: -1},
		{PoolWorkers: -1},
		{MaxBatch: -2},
		{MaxWait: -time.Second},
		{MaxBatch: 8, QueueDepth: 4},
		{Policy: Policy(9)},
	}
	for i, c := range bad {
		if _, err := New(m, c); err == nil {
			t.Fatalf("config %d should be rejected: %+v", i, c)
		}
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil model should be rejected")
	}
	srv, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Encode(make([]float64, cfg.Visible+1)); err == nil {
		t.Fatal("wrong input length should be rejected")
	}
}
