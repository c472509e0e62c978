package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"phideep"
)

// Train workload geometry: the paper's AE and Gaussian-RBM pre-training on
// 12×12 natural patches (144→256, batch 200, 2000-example chunks), then a
// LeNet-style convnet on labelled 16×16 digits at batch 32, all numeric at
// f64 on the simulated Phi at Improved.
const (
	trainPatches     = 20000
	trainPatchChunk  = 2000
	trainPatchBatch  = 200
	trainHidden      = 256
	trainDigits      = 4096
	trainDigitChunk  = 1024
	trainDigitBatch  = 32
	trainFaultRate   = 0.1 // per PCIe transfer attempt; transient, so retried
	trainConvnetSide = 16
)

// trainPlan is everything the train workload derives from its seed.
type trainPlan struct {
	PatchSeed, DigitSeed, ModelSeed uint64
	Faults                          phideep.FaultConfig
}

func newTrainPlan(seed uint64) trainPlan {
	return trainPlan{
		PatchSeed: derive(seed, "train.patches"),
		DigitSeed: derive(seed, "train.digits"),
		ModelSeed: derive(seed, "train.model"),
		// Up to 8 retries: a transfer abandoned during model upload would
		// abort the job.
		Faults: phideep.FaultConfig{Rate: trainFaultRate, MaxRetries: 8, Seed: derive(seed, "train.faults")},
	}
}

// trainJob is one pass of the fixed training job.
type trainJob struct {
	setupS, wallS       float64 // set-up; summed Trainer run time
	examples, steps     int
	failedSteps         int
	simS                float64 // simulated Phi makespan of the whole job
	convnetExamplesPerS float64
	maxOutstanding      int
	checkErrs           []string
}

// runTrain repeats the fixed training job until the window closes (at
// least minJobs times). Every job must reach the same simulated makespan.
func runTrain(rc runConfig) (outcome, error) {
	p := newTrainPlan(rc.seed)
	var setups, rates, convRates, lat []float64
	out := outcome{layer: map[string]float64{}}
	sim := math.NaN()
	maxOut := 0
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for n := 0; n < minJobs || time.Now().Before(deadline); n++ {
		j, err := runTrainJob(p, rc.rec, &lat)
		if err != nil {
			return out, err
		}
		if n > 0 && j.simS != sim {
			j.checkErrs = append(j.checkErrs, fmt.Sprintf("simulated makespan %.9g differs from the first job's %.9g", j.simS, sim))
			j.failedSteps = j.steps
		}
		for _, e := range j.checkErrs {
			fmt.Printf("train: check failed: %s\n", e)
		}
		sim = j.simS
		out.attempted += j.steps
		out.failed += j.failedSteps
		setups = append(setups, j.setupS)
		rates = append(rates, float64(j.examples)/j.wallS)
		convRates = append(convRates, j.convnetExamplesPerS)
		maxOut = max(maxOut, j.maxOutstanding)
	}
	fmt.Printf("train: %d jobs, examples/s per job %v\n", len(rates), rates)
	out.e2e = map[string]float64{
		"setup_s":        median(setups),
		"peak_rss_mb":    peakRSSMB(),
		"examples_per_s": median(rates),
		"sim_s":          sim,
		"p50_ms":         quantile(lat, 0.50),
	}
	out.layer["convnet.examples_per_s"] = median(convRates)
	out.layer["feed.max_outstanding"] = float64(maxOut)
	return out, nil
}

// runTrainJob builds fresh sources, a fresh numeric Phi and the three
// models (the timed set-up, including the lazy natural-image build), then
// trains AE, RBM and convnet for one epoch each through one feed consumer
// per phase. lat collects the wall latency of every training step.
func runTrainJob(p trainPlan, rec *recorder, lat *[]float64) (trainJob, error) {
	var j trainJob
	runtime.GC() // set-up time must not depend on when earlier garbage is collected
	t0 := time.Now()
	patches := phideep.NewNaturalPatches(12, trainPatches, p.PatchSeed)
	patches.Chunk(0, 1, phideep.NewMatrix(1, patches.Dim())) // force the lazy image build
	digits := phideep.NewDigits(trainConvnetSide, trainDigits, p.DigitSeed, 0.05)
	mach := phideep.NewMachine(phideep.XeonPhi5110P(), phideep.WithNumeric(), phideep.WithWorkers(runtime.NumCPU()))
	defer mach.Close()
	// Faults arm before the parameter uploads: double buffering hides most
	// retries of training chunks, while a retried upload delays the whole
	// job, so the simulated makespan depends on the seed.
	if err := mach.Dev.EnableFaults(p.Faults); err != nil {
		return j, err
	}
	ctx := phideep.NewContext(mach.Dev, phideep.Improved, 0, p.ModelSeed)
	ae, err := phideep.BuildAutoencoder(ctx, phideep.AutoencoderConfig{
		Visible: patches.Dim(), Hidden: trainHidden, Lambda: 1e-4, Beta: 0.1, Rho: 0.05,
		Batch: trainPatchBatch, Seed: p.ModelSeed,
	})
	if err != nil {
		return j, err
	}
	defer ae.Free()
	rbm, err := phideep.BuildRBM(ctx, phideep.RBMConfig{
		Visible: patches.Dim(), Hidden: trainHidden, SampleHidden: true, GaussianVisible: true,
		Batch: trainPatchBatch, Seed: p.ModelSeed,
	})
	if err != nil {
		return j, err
	}
	defer rbm.Free()
	cnn, err := phideep.BuildConvnet(ctx, phideep.ConvnetConfig{
		Side: trainConvnetSide, Filters1: 6, Kernel1: 5, Filters2: 12, Kernel2: 3, Pool: 2, Classes: 10,
		Lambda: 1e-4, Batch: trainDigitBatch, Seed: p.ModelSeed,
	})
	if err != nil {
		return j, err
	}
	defer cnn.Free()
	j.setupS = since(t0)

	phases := []struct {
		name    string
		src     phideep.Source
		model   any
		lr      float64
		chunk   int
		labeled bool
	}{
		{"autoencoder", patches, ae, 0.5, trainPatchChunk, false},
		{"rbm", patches, rbm, 0.005, trainPatchChunk, false},
		{"convnet", digits, cnn, 0.1, trainDigitChunk, true},
	}
	for _, ph := range phases {
		var src tracedSource
		if l, ok := ph.src.(phideep.Labeled); ok && ph.labeled {
			src = tracedSource{l, rec}
		} else {
			src = tracedSource{unlabeled{ph.src}, rec}
		}
		plan, err := phideep.PlanChunks(phideep.PlanRequest{
			SourceLen: src.Len(), Batch: batchOf(ph.model), ChunkExamples: ph.chunk, FreeBytes: phideep.PlanNoMemLimit,
		})
		if err != nil {
			return j, err
		}
		var fd *phideep.Feed
		if ph.labeled {
			fd, err = phideep.NewLabeledFeed(src, phideep.FeedConfig{Plan: plan})
		} else {
			fd, err = phideep.NewFeed(src, phideep.FeedConfig{Plan: plan})
		}
		if err != nil {
			return j, err
		}
		consumer, err := fd.Subscribe("perfbench." + ph.name)
		if err != nil {
			return j, err
		}
		tr := &phideep.Trainer{Dev: mach.Dev, Cfg: phideep.TrainConfig{
			Epochs: 1, LR: ph.lr, BufferDepth: 2, Prefetch: true, Feed: consumer,
		}}
		id, prev := rec.enter(spanRun)
		t := time.Now()
		var res *phideep.TrainResult
		if ph.labeled {
			res, err = tr.RunLabeled(labeledStepTimer{ph.model.(phideep.LabeledTrainable), ph.name + ".Step", rec, lat}, src)
		} else {
			res, err = tr.Run(stepTimer{ph.model.(phideep.Trainable), ph.name + ".Step", rec, lat}, src)
		}
		wall := since(t)
		rec.leave(id, prev)
		consumer.Close()
		if err != nil {
			return j, fmt.Errorf("%s: %w", ph.name, err)
		}
		j.wallS += wall
		j.examples += res.Examples
		j.steps += res.Steps
		j.simS = res.SimSeconds // the device clock accumulates across phases
		j.maxOutstanding = max(j.maxOutstanding, fd.Stats().MaxOutstanding)
		if ph.labeled {
			j.convnetExamplesPerS = float64(res.Examples) / wall
		}
		if !isFinite(res.FirstLoss) || !isFinite(res.FinalLoss) || !(res.FinalLoss < res.FirstLoss) {
			j.checkErrs = append(j.checkErrs, fmt.Sprintf("%s loss did not fall: first %g, final %g", ph.name, res.FirstLoss, res.FinalLoss))
			j.failedSteps += res.Steps
		}
	}
	return j, nil
}

// batchOf returns a model's minibatch size.
func batchOf(m any) int { return m.(interface{ BatchSize() int }).BatchSize() }

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
