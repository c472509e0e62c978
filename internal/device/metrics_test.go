package device

import (
	"testing"

	"phideep/internal/kernels"
	"phideep/internal/metrics"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// TestTwoDevicesOneLedgerEach: two devices in one process each report only
// their own launches, bytes and faults, and every series they roll up into
// grows by exactly the sum of their Stats — device.transfer.faults by both
// fault classes. ResetTime rewinds the instance counts, not the series.
func TestTwoDevicesOneLedgerEach(t *testing.T) {
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(true)
	before := metrics.Default().Snapshot()

	op := sim.Op{Kind: sim.OpElem, Elems: 64, Level: kernels.Naive}
	host := tensor.NewMatrix(8, 8)
	devs := []*Device{newNumericPhi(), newNumericPhi()}
	for i, d := range devs {
		if err := d.EnableFaults(FaultConfig{Rate: 0.3, PermanentFrac: 0.3, MaxRetries: 1, Seed: uint64(11 + i)}); err != nil {
			t.Fatal(err)
		}
		b := d.MustAlloc(8, 8)
		for k := 0; k < 20*(i+1); k++ {
			d.TryCopyIn(b, host, 0) // abandoned transfers are part of the plan
			d.Exec(op, []*Buffer{b}, []*Buffer{b}, nil)
		}
	}

	after := metrics.Default().Snapshot()
	s0, s1 := devs[0].Stats(), devs[1].Stats()
	if s0.Ops != 20 || s1.Ops != 40 {
		t.Fatalf("instance launches mix devices: %d / %d", s0.Ops, s1.Ops)
	}
	if s0.FaultsPermanent+s1.FaultsPermanent == 0 || s0.FaultsTransient+s1.FaultsTransient == 0 {
		t.Fatalf("fault plan exercised one class only: %+v / %+v", s0, s1)
	}
	for name, want := range map[string]int64{
		"device.kernel.launches":  int64(s0.Ops + s1.Ops),
		"device.bytes_moved":      s0.BytesMoved + s1.BytesMoved,
		"device.transfer.retries": int64(s0.Retries + s1.Retries),
		"device.transfer.failed":  int64(s0.FailedTransfers + s1.FailedTransfers),
		"device.transfer.faults":  int64(s0.FaultsTransient + s0.FaultsPermanent + s1.FaultsTransient + s1.FaultsPermanent),
	} {
		if got := after.Counters[name] - before.Counters[name]; got != want {
			t.Errorf("%s grew by %d, want %d", name, got, want)
		}
	}

	devs[0].ResetTime()
	if st := devs[0].Stats(); st.Ops != 0 || st.BytesMoved != 0 || st.FaultsTransient != 0 || st.FaultsPermanent != 0 ||
		st.Retries != 0 || st.FailedTransfers != 0 {
		t.Fatalf("ResetTime left instance counts %+v", st)
	}
	if got := metrics.Default().Snapshot().Counters["device.kernel.launches"]; got != after.Counters["device.kernel.launches"] {
		t.Fatalf("ResetTime rewound the registry: %d, was %d", got, after.Counters["device.kernel.launches"])
	}
}
