package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"phideep"
)

// Cluster workload geometry: 8 dual-E5620 nodes over GbE train an AE
// 256→64 with local SGD (sync every 4 steps), each node leasing one
// 100-row chunk per step from one shared feed over on-the-fly rendered
// 16×16 digits, under a seeded crash/stall fault plan with WaitAll.
const (
	clusterNodes     = 8
	clusterPerNode   = 100
	clusterSteps     = 200
	clusterDigits    = 8000
	clusterSyncEvery = 4
	clusterLR        = 0.5
	clusterSetups    = 3
)

// clusterPlan is everything the cluster workload derives from its seed.
type clusterPlan struct {
	DigitSeed, ModelSeed uint64
	Faults               phideep.ClusterFaultPlan
}

func newClusterPlan(seed uint64) clusterPlan {
	return clusterPlan{
		DigitSeed: derive(seed, "cluster.digits"),
		ModelSeed: derive(seed, "cluster.model"),
		// Crashed nodes rejoin after the default 8 steps; the rest of the
		// faults are 4× straggler stalls.
		Faults: phideep.ClusterFaultPlan{Rate: 0.02, CrashFrac: 0.5, Seed: derive(seed, "cluster.faults")},
	}
}

// runCluster repeats the fixed cluster run until the window closes (at
// least minJobs times). Every run must reach the same simulated makespan.
func runCluster(rc runConfig) (outcome, error) {
	p := newClusterPlan(rc.seed)
	var setups, rates, lat []float64
	out := outcome{layer: map[string]float64{}}
	sim := math.NaN()
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for n := 0; n < minJobs || time.Now().Before(deadline); n++ {
		// Set up clusterSetups times and keep the last, so setup_s is a
		// median over several builds even when few jobs fit the window.
		var cl *phideep.Cluster
		for k := 0; k < clusterSetups; k++ {
			if cl != nil {
				cl.Free()
			}
			runtime.GC() // set-up time must not depend on when earlier garbage is collected
			t0 := time.Now()
			var err error
			if cl, err = newBenchCluster(p, rc.rec); err != nil {
				return out, err
			}
			setups = append(setups, since(t0))
		}

		failed := 0
		t1 := time.Now()
		for s := 0; s < clusterSteps; s++ {
			id, prev := rc.rec.enter(spanClusterStep)
			t := time.Now()
			loss := cl.Step(nil, clusterLR)
			lat = append(lat, since(t)*1e3)
			rc.rec.leave(id, prev)
			if !isFinite(loss) {
				failed++
			}
		}
		wall := since(t1)
		rep := cl.Report()
		cl.Free()

		var errs []string
		if failed > 0 {
			errs = append(errs, fmt.Sprintf("%d steps with a non-finite loss", failed))
		}
		if f := rep.Feed; f == nil || f.Leases != f.Commits+f.Aborts+f.Outstanding {
			errs = append(errs, fmt.Sprintf("feed ledger does not balance: %+v", f))
		}
		if rep.LiveNodes < 1 {
			errs = append(errs, "no live node at the end of the run")
		}
		if n > 0 && rep.SimSeconds != sim {
			errs = append(errs, fmt.Sprintf("simulated makespan %.9g differs from the first run's %.9g", rep.SimSeconds, sim))
		}
		if len(errs) > 0 && failed == 0 {
			failed = clusterSteps
		}
		for _, e := range errs {
			fmt.Printf("cluster: check failed: %s\n", e)
		}
		sim = rep.SimSeconds
		out.attempted += clusterSteps
		out.failed += failed

		examples, down, stall := 0, 0.0, 0.0
		for _, nr := range rep.PerNode {
			examples += nr.Steps * clusterPerNode
			down += nr.DownSeconds
			stall += nr.StallSeconds
		}
		rates = append(rates, float64(examples)/wall)
		out.layer["cluster.checkpoints"] = float64(rep.Checkpoints)
		out.layer["cluster.rejoins"] = float64(rep.Rejoins)
		out.layer["cluster.down_sim_s"] = down
		out.layer["cluster.stall_sim_s"] = stall
		out.layer["feed.max_outstanding"] = float64(rep.Feed.MaxOutstanding)
	}
	fmt.Printf("cluster: %d runs, examples/s per run %v\n", len(rates), rates)
	out.e2e = map[string]float64{
		"setup_s":        median(setups),
		"peak_rss_mb":    peakRSSMB(),
		"examples_per_s": median(rates),
		"sim_s":          sim,
		"p50_ms":         quantile(lat, 0.50),
	}
	return out, nil
}

// newBenchCluster builds the feed over freshly rendered digits and the
// 8-node cluster that streams from it.
func newBenchCluster(p clusterPlan, rec *recorder) (*phideep.Cluster, error) {
	digits := phideep.NewDigits(16, clusterDigits, p.DigitSeed, 0.05)
	fd, err := phideep.NewFeed(tracedSource{unlabeled{digits}, rec},
		phideep.FeedConfig{Plan: phideep.ChunkPlan{SourceLen: clusterDigits, Batch: clusterPerNode, ChunkExamples: clusterPerNode}})
	if err != nil {
		return nil, err
	}
	faults := p.Faults
	return phideep.NewCluster(phideep.XeonE5620Dual(), phideep.OpenMPMKL, phideep.ClusterConfig{
		Model:       phideep.AutoencoderConfig{Visible: 256, Hidden: 64, Lambda: 1e-4},
		Nodes:       clusterNodes,
		GlobalBatch: clusterNodes * clusterPerNode,
		SyncEvery:   clusterSyncEvery,
		Net:         phideep.GigabitEthernet(),
		Faults:      &faults,
		Policy:      phideep.WaitAll,
		Feed:        fd,
	}, true, p.ModelSeed)
}
