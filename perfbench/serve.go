package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"phideep"
)

// Serve workload: open-loop Poisson arrivals from one seeded generator into
// two in-process servers — an AE 1024→256 at f32 (encode 85%, reconstruct
// 15%) and a convnet at f64 on the simulated Phi (30% of requests). A light
// phase (low) is followed by a heavier one (high) at about half the
// capacity of a 2-vCPU host.
const (
	serveLowRate        = 1500.0 // requests/s offered in the low phase
	serveHighRate       = 4500.0 // requests/s offered in the high phase
	serveConvnetShare   = 0.30
	serveReconShare     = 0.15 // of the AE requests
	serveLatencyLimitMS = 25.0 // goodput counts answers within this limit
	serveMaxLagMS       = 250.0
	serveCheckShare     = 1.0 / 16 // sampled answers checked against the host references
	servePool           = 256      // distinct inputs per model
	serveAEBatch        = 32
	serveConvnetBatch   = 16
	serveSetups         = 5
)

// Serving operations of the schedule.
const (
	opEncode = iota
	opReconstruct
	opPredict
)

var opNames = [...]string{"serve.Server.Encode", "serve.Server.Reconstruct", "serve.Server.Predict"}

// arrival is one scheduled request: due At after its phase starts.
type arrival struct {
	At    time.Duration
	Op    int
	Input int  // index into the op's input pool
	Check bool // compare the answer with the host reference
}

// servePlan is everything the serve workload derives from its seed.
type servePlan struct {
	PatchSeed, DigitSeed, ModelSeed uint64
	Low, High                       []arrival
}

func newServePlan(seed uint64, seconds float64) servePlan {
	phase := time.Duration(seconds / 2 * float64(time.Second))
	return servePlan{
		PatchSeed: derive(seed, "serve.patches"),
		DigitSeed: derive(seed, "serve.digits"),
		ModelSeed: derive(seed, "serve.model"),
		Low:       schedule(derive(seed, "serve.low"), serveLowRate, phase),
		High:      schedule(derive(seed, "serve.high"), serveHighRate, phase),
	}
}

// schedule draws Poisson arrivals at rate over dur, with the op mix, input
// choice and check sample all from one seeded generator.
func schedule(seed uint64, rate float64, dur time.Duration) []arrival {
	r := phideep.NewRNG(seed)
	var out []arrival
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		a := arrival{At: at, Op: opEncode}
		switch u := r.Float64(); {
		case u < serveConvnetShare:
			a.Op = opPredict
		case u < serveConvnetShare+(1-serveConvnetShare)*serveReconShare:
			a.Op = opReconstruct
		}
		a.Input = r.Intn(servePool)
		a.Check = r.Float64() < serveCheckShare
		out = append(out, a)
	}
}

// serveEnv is one built serving set-up: input pools, parameters and the
// two servers.
type serveEnv struct {
	aeCfg  phideep.AutoencoderConfig
	cnnCfg phideep.ConvnetConfig
	aeP    *phideep.AutoencoderParams
	cnnP   *phideep.ConvnetParams
	ae     *phideep.Server
	cnn    *phideep.Server
	pools  [2]*phideep.Matrix // natural patches for the AE, digits for the convnet
}

func newServeEnv(p servePlan) (*serveEnv, error) {
	e := &serveEnv{
		aeCfg: phideep.AutoencoderConfig{Visible: 1024, Hidden: 256, Lambda: 1e-4, Beta: 0.1, Rho: 0.05},
		cnnCfg: phideep.ConvnetConfig{Side: 16, Filters1: 6, Kernel1: 5, Filters2: 12, Kernel2: 3, Pool: 2,
			Classes: 10, Lambda: 1e-4, Seed: p.ModelSeed},
	}
	patches := phideep.NewNaturalPatches(32, servePool, p.PatchSeed)
	e.pools[0] = phideep.NewMatrix(servePool, patches.Dim())
	patches.Chunk(0, servePool, e.pools[0]) // includes the lazy image build
	digits := phideep.NewDigits(16, servePool, p.DigitSeed, 0.05)
	e.pools[1] = phideep.NewMatrix(servePool, digits.Dim())
	digits.Chunk(0, servePool, e.pools[1])
	e.aeP = phideep.NewAutoencoderParams(e.aeCfg, p.ModelSeed)
	e.cnnP = phideep.NewConvnetParams(e.cnnCfg, p.ModelSeed)

	var err error
	e.ae, err = phideep.NewServer(phideep.ServeAutoencoder(e.aeCfg, e.aeP), phideep.ServeConfig{
		Level: phideep.Improved, Workers: 1, MaxBatch: serveAEBatch, MaxWait: time.Millisecond,
	}, phideep.WithPrecision(phideep.PrecisionF32))
	if err != nil {
		return nil, err
	}
	e.cnn, err = phideep.NewServer(phideep.ServeConvnet(e.cnnCfg, e.cnnP), phideep.ServeConfig{
		Level: phideep.Improved, Workers: 1, MaxBatch: serveConvnetBatch, MaxWait: time.Millisecond,
	})
	if err != nil {
		e.ae.Close()
		return nil, err
	}
	// Warm-up: a few full batches of every op, concurrently.
	var wg sync.WaitGroup
	errs := make([]error, 3*4*serveAEBatch)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.call(arrival{Op: i % 3, Input: i % servePool}, nil)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.ae.Close()
	e.cnn.Close()
}

// call issues one request; the span (when tracing) covers the server call.
func (e *serveEnv) call(a arrival, rec *recorder) ([]float64, error) {
	id := rec.begin(opNames[a.Op], 0)
	defer rec.end(id)
	switch a.Op {
	case opEncode:
		return e.ae.Encode(e.pools[0].RowView(a.Input))
	case opReconstruct:
		return e.ae.Reconstruct(e.pools[0].RowView(a.Input))
	default:
		return e.cnn.Predict(e.pools[1].RowView(a.Input))
	}
}

// phaseResult is the load generator's account of one phase.
type phaseResult struct {
	sent, failed int
	latMS        []float64 // from due time, answered requests only
	good         int       // answered within serveLatencyLimitMS
	elapsedS     float64   // first due time to last answer
	maxLagMS     float64   // how late the generator sent, at worst
	answers      [][]float64
	errs         []error
	stats        [2][2]phideep.BatcherStats // [ae|cnn][before|after]
}

// runPhase replays sched open-loop: every request is sent at its due time
// on its own goroutine, whatever the state of earlier ones, and timed from
// when it was due.
func (e *serveEnv) runPhase(sched []arrival, rec *recorder) phaseResult {
	n := len(sched)
	res := phaseResult{sent: n, answers: make([][]float64, n), errs: make([]error, n)}
	lat := make([]float64, n)
	res.stats[0][0], res.stats[1][0] = e.ae.Stats(), e.cnn.Stats()
	var wg sync.WaitGroup
	start := time.Now()
	var maxLag time.Duration
	for i, a := range sched {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		maxLag = max(maxLag, time.Since(due))
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			out, err := e.call(a, rec)
			lat[i] = float64(time.Since(due).Nanoseconds()) / 1e6
			res.errs[i] = err
			if a.Check {
				res.answers[i] = out
			}
		}(i, a, due)
	}
	wg.Wait()
	res.elapsedS = since(start)
	res.maxLagMS = float64(maxLag.Nanoseconds()) / 1e6
	res.stats[0][1], res.stats[1][1] = e.ae.Stats(), e.cnn.Stats()
	for i, err := range res.errs {
		if err != nil {
			res.failed++
			continue
		}
		res.latMS = append(res.latMS, lat[i])
		if lat[i] <= serveLatencyLimitMS {
			res.good++
		}
	}
	return res
}

// check compares the sampled answers of a phase with the host references
// (AE f32 within 1e-4 absolute; convnet f64 within 1e-12 relative, the
// serve tests' tolerance) and returns the number of mismatches.
func (e *serveEnv) check(sched []arrival, res phaseResult, refs map[[2]int][]float64) int {
	bad := 0
	for i, a := range sched {
		if !a.Check || res.errs[i] != nil {
			continue
		}
		key := [2]int{a.Op, a.Input}
		want, ok := refs[key]
		if !ok {
			want = e.reference(a)
			refs[key] = want
		}
		got := res.answers[i]
		ok = len(got) == len(want)
		for j := 0; ok && j < len(want); j++ {
			if a.Op == opPredict {
				ok = closeRel(got[j], want[j], 1e-12)
			} else {
				ok = math.Abs(got[j]-want[j]) <= 1e-4
			}
		}
		if !ok {
			bad++
		}
	}
	return bad
}

func (e *serveEnv) reference(a arrival) []float64 {
	switch a.Op {
	case opEncode:
		y := make([]float64, e.aeCfg.Hidden)
		e.aeP.Encode(e.pools[0].RowView(a.Input), y)
		return y
	case opReconstruct:
		z := make([]float64, e.aeCfg.Visible)
		e.aeP.Reconstruct(e.pools[0].RowView(a.Input), z, false)
		return z
	default:
		return e.cnnP.PredictProbs(e.cnnCfg, e.pools[1].RowView(a.Input))
	}
}

func closeRel(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d == 0 || d <= tol*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
}

// serveSimSeconds is the simulated Phi time of the schedule's convnet
// requests served in full batches, each with its PCIe staging in and out,
// on a timing-only Phi at Improved.
func serveSimSeconds(cfg phideep.ConvnetConfig, p *phideep.ConvnetParams, requests int) (float64, error) {
	m := phideep.NewMachine(phideep.XeonPhi5110P())
	defer m.Close()
	ctx := phideep.NewContext(m.Dev, phideep.Improved, 0, 0)
	model, err := phideep.NewConvnetInference(ctx, cfg, serveConvnetBatch, p)
	if err != nil {
		return 0, err
	}
	defer model.Free()
	x, err := m.Dev.Alloc(serveConvnetBatch, cfg.Side*cfg.Side)
	if err != nil {
		return 0, err
	}
	defer m.Dev.Free(x)
	start := m.Dev.Now()
	for left := requests; left > 0; left -= serveConvnetBatch {
		m.Dev.CopyIn(x, nil, 0)
		xv := x
		if left < serveConvnetBatch {
			xv = x.Slice(0, left)
		}
		m.Dev.CopyOut(model.Infer(xv), nil)
	}
	return m.Dev.Now() - start, nil
}

// runServe builds the serving set-up serveSetups times (keeping the last),
// then runs the low and high phases and checks the sampled answers.
func runServe(rc runConfig) (outcome, error) {
	p := newServePlan(rc.seed, rc.seconds)
	out := outcome{layer: map[string]float64{}}
	var setups []float64
	var env *serveEnv
	for i := 0; i < serveSetups; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC() // set-up time must not depend on when earlier garbage is collected
		t0 := time.Now()
		var err error
		if env, err = newServeEnv(p); err != nil {
			return out, err
		}
		setups = append(setups, since(t0))
	}
	phases := []struct {
		name  string
		sched []arrival
	}{{"low", p.Low}, {"high", p.High}}
	var results []phaseResult
	for _, ph := range phases {
		results = append(results, env.runPhase(ph.sched, rc.rec))
	}
	env.close()

	refs := map[[2]int][]float64{}
	convnetRequests := 0
	for i, ph := range phases {
		r := results[i]
		bad := env.check(ph.sched, r, refs)
		if bad > 0 {
			fmt.Printf("serve: check failed: %d sampled %s answers differ from the host references\n", bad, ph.name)
		}
		out.attempted += r.sent
		out.failed += r.failed + bad
		for _, a := range ph.sched {
			if a.Op == opPredict {
				convnetRequests++
			}
		}
		pre := "loadgen." + ph.name
		out.layer[pre+".sent"] = float64(r.sent)
		out.layer[pre+".failed"] = float64(r.failed)
		out.layer[pre+".max_lag_ms"] = r.maxLagMS
		out.layer[pre+".p50_ms"] = quantile(r.latMS, 0.50)
		out.layer[pre+".p90_ms"] = quantile(r.latMS, 0.90)
		out.layer[pre+".p99_ms"] = quantile(r.latMS, 0.99)
		for k, model := range []string{"ae", "convnet"} {
			b, a := r.stats[k][0], r.stats[k][1]
			batches := float64(a.Batches - b.Batches)
			completed := float64(a.Completed - b.Completed)
			pre := "serve." + ph.name + "." + model
			if batches == 0 || completed == 0 {
				continue
			}
			// Server mean latency over the phase alone, from the running means.
			serverMS := (a.MeanLatencySeconds*float64(a.Completed) - b.MeanLatencySeconds*float64(b.Completed)) / completed * 1e3
			out.layer[pre+".avg_batch"] = completed / batches
			out.layer[pre+".flush_full_share"] = float64(a.FlushFull-b.FlushFull) / batches
			out.layer[pre+".server_mean_ms"] = serverMS
			out.layer[pre+".client_overhead_ms"] = meanFor(ph.sched, r, k == 1) - serverMS
		}
		fmt.Printf("serve: %s: %d sent, %d failed, p50 %.3f ms, p99 %.3f ms, goodput %.1f/s, max lag %.2f ms\n",
			ph.name, r.sent, r.failed, quantile(r.latMS, 0.5), quantile(r.latMS, 0.99), float64(r.good)/r.elapsedS, r.maxLagMS)
		if r.maxLagMS > serveMaxLagMS {
			return out, fmt.Errorf("%w: the load generator fell %.1f ms behind its %s schedule (bound %g ms)",
				errInvalid, r.maxLagMS, ph.name, serveMaxLagMS)
		}
	}
	sim, err := serveSimSeconds(env.cnnCfg, env.cnnP, convnetRequests)
	if err != nil {
		return out, err
	}
	// The bounded latency comes from the light phase: the heavier phase's
	// latencies spread too far between runs to bound.
	low, high := results[0], results[1]
	out.e2e = map[string]float64{
		"setup_s":        median(setups),
		"peak_rss_mb":    peakRSSMB(),
		"examples_per_s": float64(high.good) / high.elapsedS,
		"sim_s":          sim,
		"p50_ms":         quantile(low.latMS, 0.50),
	}
	return out, nil
}

// meanFor is the mean client latency (from due time) of the answered
// requests of one server in a phase.
func meanFor(sched []arrival, r phaseResult, convnet bool) float64 {
	sum, n := 0.0, 0
	j := 0
	for i, a := range sched {
		if r.errs[i] != nil {
			continue
		}
		if (a.Op == opPredict) == convnet {
			sum += r.latMS[j]
			n++
		}
		j++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
