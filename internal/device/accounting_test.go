package device

import (
	"errors"
	"testing"

	"hybridstore/internal/obs"
)

// TestVecRejectsBothBackings: a Vec must name exactly one backing —
// device buffer or host slice. Both set is an ambiguous launch (which
// image would the kernel read?) and must fail loudly, not pick one.
func TestVecRejectsBothBackings(t *testing.T) {
	g, _ := newGPU()
	buf, v, err := fillFloats(g, 64, 8, func(i int) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()

	bad := v
	bad.Data = make([]byte, 64*8)
	cfg := LaunchConfig{Blocks: 2, ThreadsPerBlock: 32}
	if _, err := reduceSum(g, bad, cfg); !errors.Is(err, ErrBadLaunch) {
		t.Errorf("both Buf and Data: err = %v, want ErrBadLaunch", err)
	}
	if _, err := g.Launch(Kernel{Vals: bad, Where: true, Lo: 0, Hi: 1, Config: cfg}); !errors.Is(err, ErrBadLaunch) {
		t.Errorf("fused reduce: err = %v, want ErrBadLaunch", err)
	}
	if err := g.Scatter(bad, []int{0}, make([]byte, 8)); !errors.Is(err, ErrBadLaunch) {
		t.Errorf("scatter: err = %v, want ErrBadLaunch", err)
	}

	none := v
	none.Buf = nil
	if _, err := reduceSum(g, none, cfg); err == nil {
		t.Error("neither Buf nor Data: want an error, got nil")
	}
}

// TestAccountingConformance: after a mixed workload, the per-instance
// GPU.Stats() meters and the process-wide device.* counters must have
// moved by exactly the same amounts, and every byte that crossed the bus
// must be visible. This is the regression test for the Scatter hole
// where value bytes were shipped H2D but never counted.
func TestAccountingConformance(t *testing.T) {
	before := obs.TakeSnapshot()
	g, _ := newGPU()

	n := 4096
	buf, v, err := fillFloats(g, n, 8, func(i int) float64 { return float64(i) })
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	cfg := LaunchConfig{Blocks: 16, ThreadsPerBlock: 64}
	if _, err := reduceSum(g, v, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Launch(Kernel{Vals: v, Where: true, Lo: 10, Hi: 20, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	host := make([]byte, n*8)
	if err := g.CopyToHost(host, buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Gather(buf, 8, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	positions := []int{0, 7, 9}
	vals := make([]byte, len(positions)*8)
	if err := g.Scatter(v, positions, vals); err != nil {
		t.Fatal(err)
	}
	// Streamed commands count the moment they execute, same as sync ones.
	s := g.NewStream()
	if err := s.CopyToDevice(buf, 0, host); err != nil {
		t.Fatal(err)
	}
	if _, err := reduceSum(s, v, cfg); err != nil {
		t.Fatal(err)
	}
	s.Wait()

	st := g.Stats()
	after := obs.TakeSnapshot()
	delta := func(name string) int64 { return after.Counter(name) - before.Counter(name) }

	if got := delta("device.h2d_bytes"); got != st.HostToDeviceBytes {
		t.Errorf("process h2d_bytes moved %d, instance says %d", got, st.HostToDeviceBytes)
	}
	if got := delta("device.d2h_bytes"); got != st.DeviceToHostBytes {
		t.Errorf("process d2h_bytes moved %d, instance says %d", got, st.DeviceToHostBytes)
	}
	if got := delta("device.h2d_ops"); got != st.HostToDeviceOps {
		t.Errorf("process h2d_ops moved %d, instance says %d", got, st.HostToDeviceOps)
	}
	if got := delta("device.d2h_ops"); got != st.DeviceToHostOps {
		t.Errorf("process d2h_ops moved %d, instance says %d", got, st.DeviceToHostOps)
	}
	if got := delta("device.kernels"); got != st.KernelLaunches {
		t.Errorf("process kernels moved %d, instance says %d", got, st.KernelLaunches)
	}

	// Scatter's value bytes are part of the H2D total: initial fill +
	// stream re-upload + scattered values.
	wantH2D := int64(n*8)*2 + int64(len(vals))
	if st.HostToDeviceBytes != wantH2D {
		t.Errorf("h2d_bytes = %d, want %d (scatter values counted)", st.HostToDeviceBytes, wantH2D)
	}
	if st.DeviceToHostOps == 0 || st.KernelLaunches == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
}
