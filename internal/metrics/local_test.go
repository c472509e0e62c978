package metrics

import (
	"sync"
	"testing"
)

// TestLocalCountsWhileDisabled: with collection off an instance handle
// still counts and its registry series does not move.
func TestLocalCountsWhileDisabled(t *testing.T) {
	defer SetEnabled(Enabled())
	SetEnabled(false)
	r := NewRegistry()
	c := r.Counter("c").Local()
	f := r.FloatCounter("f").Local()
	h := r.Histogram("h", 1, 2, 4).Local()
	c.Add(3)
	c.Inc()
	f.Add(1.5)
	h.Observe(2)
	h.Observe(4)
	if c.Value() != 4 || f.Value() != 1.5 || h.Count() != 2 || h.Sum() != 6 || h.Mean() != 3 {
		t.Fatalf("instance values: counter %d, float %g, histogram count %d sum %g mean %g",
			c.Value(), f.Value(), h.Count(), h.Sum(), h.Mean())
	}
	s := r.Snapshot()
	if s.Counters["c"] != 0 || s.Floats["f"] != 0 || s.Histograms["h"].Count != 0 {
		t.Fatalf("registry moved with collection off: %+v", s)
	}
}

// TestLocalRollsUpWhileEnabled: with collection on the registry series
// gets every increment of every instance handle, concurrent ones included.
func TestLocalRollsUpWhileEnabled(t *testing.T) {
	defer SetEnabled(Enabled())
	SetEnabled(true)
	r := NewRegistry()
	const instances, perG = 4, 1000
	cs := make([]*LocalCounter, instances)
	fs := make([]*LocalFloat, instances)
	hs := make([]*LocalHistogram, instances)
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = r.Counter("c").Local()
		fs[i] = r.FloatCounter("f").Local()
		hs[i] = r.Histogram("h", 1, 2).Local()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				cs[i].Inc()
				fs[i].Add(1)
				hs[i].Observe(float64(i))
			}
		}(i)
	}
	wg.Wait()
	s := r.Snapshot()
	var sumC int64
	var sumF, sumH float64
	for i := range cs {
		if cs[i].Value() != perG || fs[i].Value() != perG || hs[i].Count() != perG {
			t.Fatalf("instance %d: counter %d, float %g, histogram %d; want %d each",
				i, cs[i].Value(), fs[i].Value(), hs[i].Count(), perG)
		}
		sumC += cs[i].Value()
		sumF += fs[i].Value()
		sumH += hs[i].Sum()
	}
	if s.Counters["c"] != sumC || s.Floats["f"] != sumF {
		t.Fatalf("registry counter %d float %g, want %d and %g", s.Counters["c"], s.Floats["f"], sumC, sumF)
	}
	if hs := s.Histograms["h"]; hs.Count != instances*perG || hs.Sum != sumH {
		t.Fatalf("registry histogram count %d sum %g, want %d and %g", hs.Count, hs.Sum, instances*perG, sumH)
	}
}

// TestResetLeavesLocalsAlone: Registry.Reset rewinds the series only, and
// LocalCounter.Reset rewinds the instance only.
func TestResetLeavesLocalsAlone(t *testing.T) {
	defer SetEnabled(Enabled())
	SetEnabled(true)
	r := NewRegistry()
	c := r.Counter("c").Local()
	f := r.FloatCounter("f").Local()
	h := r.Histogram("h", 1).Local()
	c.Add(5)
	f.Add(2)
	h.Observe(1)
	r.Reset()
	if c.Value() != 5 || f.Value() != 2 || h.Count() != 1 {
		t.Fatalf("Registry.Reset touched instances: counter %d, float %g, histogram %d", c.Value(), f.Value(), h.Count())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("LocalCounter.Reset left %d", c.Value())
	}
	c.Inc()
	if got := r.Snapshot().Counters["c"]; got != 1 {
		t.Fatalf("registry counter = %d after Reset and one Inc, want 1", got)
	}
}

// TestLocalAllocFree: recording through an instance handle allocates
// nothing with collection off (the default for every hot path).
func TestLocalAllocFree(t *testing.T) {
	defer SetEnabled(Enabled())
	SetEnabled(false)
	r := NewRegistry()
	c := r.Counter("c").Local()
	f := r.FloatCounter("f").Local()
	h := r.Histogram("h", ExpBuckets(1e-6, 2, 24)...).Local()
	if n := testing.AllocsPerRun(100, func() { c.Inc(); c.Add(2) }); n != 0 {
		t.Errorf("LocalCounter: %g allocs per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { f.Add(0.5) }); n != 0 {
		t.Errorf("LocalFloat: %g allocs per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(3e-4) }); n != 0 {
		t.Errorf("LocalHistogram: %g allocs per run", n)
	}
}
