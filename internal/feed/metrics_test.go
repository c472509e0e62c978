package feed

import (
	"testing"

	"phideep/internal/data"
	"phideep/internal/metrics"
)

// TestTwoFeedsOneLedgerEach: two feeds in one process each report only
// their own protocol events, and every feed.* series grows by exactly the
// sum of the two feeds' Stats.
func TestTwoFeedsOneLedgerEach(t *testing.T) {
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(true)
	before := metrics.Default().Snapshot()

	// Feed i runs 3+i lease/commit rounds on a fast consumer while a
	// second consumer never leases, so leases past IngestAhead stall;
	// every other commit is a skip, and each feed seeks once.
	feeds := make([]*Feed, 2)
	for i := range feeds {
		f, err := New(data.Null{D: 4, N: 200}, Config{Plan: plan(t, 200, 10, 10), Window: 1, IngestAhead: 2})
		if err != nil {
			t.Fatal(err)
		}
		fast, _ := f.Subscribe("fast")
		f.Subscribe("slow")
		for k := 0; k < 3+i; k++ {
			l, err := fast.Lease()
			if err != nil {
				t.Fatal(err)
			}
			if err := fast.Commit(l, 0, k%2 == 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := fast.Seek(0); err != nil {
			t.Fatal(err)
		}
		feeds[i] = f
	}

	after := metrics.Default().Snapshot()
	s0, s1 := feeds[0].Stats(), feeds[1].Stats()
	if s0.Leases != 3 || s1.Leases != 4 || s0.Seeks != 1 || s1.Seeks != 1 || s0.Skips != 1 || s1.Skips != 2 {
		t.Fatalf("instance stats mix feeds: %+v / %+v", s0, s1)
	}
	if s0.Stalls == 0 {
		t.Fatalf("plan exercised no stalls: %+v", s0)
	}
	for name, want := range map[string]int{
		"feed.leases":  s0.Leases + s1.Leases,
		"feed.commits": s0.Commits + s1.Commits,
		"feed.skips":   s0.Skips + s1.Skips,
		"feed.stalls":  s0.Stalls + s1.Stalls,
		"feed.seeks":   s0.Seeks + s1.Seeks,
	} {
		if got := after.Counters[name] - before.Counters[name]; got != int64(want) {
			t.Errorf("%s grew by %d, want %d", name, got, want)
		}
	}
}
