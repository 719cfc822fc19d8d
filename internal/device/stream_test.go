package device

import (
	"fmt"
	"math"
	"testing"
)

// streamFixture uploads n floats synchronously (so the stream lanes start
// empty) and returns the device vector.
func streamFixture(t *testing.T, g *GPU, n int) (*Buffer, Vec) {
	t.Helper()
	buf, v, err := fillFloats(g, n, 8, func(i int) float64 { return float64(i % 13) })
	if err != nil {
		t.Fatal(err)
	}
	return buf, v
}

func TestStreamChargesOverlapNotSum(t *testing.T) {
	g, clk := newGPU()
	n := 1 << 20
	buf, v := streamFixture(t, g, n)
	defer buf.Free()

	host := make([]byte, n*8)
	s := g.NewStream()
	clk.Reset()
	if err := s.CopyToDevice(buf, 0, host); err != nil {
		t.Fatal(err)
	}
	if _, err := reduceSum(s, v, DefaultReduceConfig()); err != nil {
		t.Fatal(err)
	}
	if clk.ElapsedNs() != 0 {
		t.Fatalf("enqueue charged %.0fns before Wait", clk.ElapsedNs())
	}
	tr, cp := s.transferNs, s.computeNs
	if tr <= 0 || cp <= 0 {
		t.Fatalf("lanes = (%.0f, %.0f), want both positive", tr, cp)
	}
	s.Wait()
	want := g.Profile().OverlapNs(tr, cp, DefaultStreamStages)
	if math.Abs(clk.ElapsedNs()-want) > 1 {
		t.Errorf("Wait charged %.0fns, want overlap %.0fns", clk.ElapsedNs(), want)
	}
	if want >= tr+cp {
		t.Errorf("overlap %.0fns did not beat serial %.0fns", want, tr+cp)
	}
}

func TestStreamDepthOneMatchesSynchronous(t *testing.T) {
	g, clk := newGPU()
	n := 100_000
	buf, v := streamFixture(t, g, n)
	defer buf.Free()

	s := g.NewStreamDepth(1)
	clk.Reset()
	if err := s.CopyToDevice(buf, 0, make([]byte, n*8)); err != nil {
		t.Fatal(err)
	}
	if _, err := reduceSum(s, v, DefaultReduceConfig()); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	tr, cp := s.transferNs, s.computeNs
	if math.Abs(clk.ElapsedNs()-(tr+cp)) > 1 {
		t.Errorf("depth-1 stream charged %.0fns, want serial %.0fns", clk.ElapsedNs(), tr+cp)
	}
}

func TestStreamWaitIsIdempotent(t *testing.T) {
	g, clk := newGPU()
	buf, v := streamFixture(t, g, 50_000)
	defer buf.Free()

	s := g.NewStream()
	if _, err := reduceSum(s, v, LaunchConfig{Blocks: 16, ThreadsPerBlock: 64}); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	first := clk.ElapsedNs()
	s.Wait()
	s.Wait()
	if clk.ElapsedNs() != first {
		t.Errorf("repeated Wait moved the clock: %.0f -> %.0f", first, clk.ElapsedNs())
	}
}

// Wait's span detail keeps the bytes fmt's "%.0f" wrote, for every
// charge a stream can see and the values no charge should be.
func TestStreamChargedDetail(t *testing.T) {
	for _, ns := range []float64{0, math.Copysign(0, -1), 0.5, 1.5, 2.5, 1234.4999, 1e21, 3.7e9, -12.6, math.Inf(1), math.NaN()} {
		if got, want := chargedDetail(ns), fmt.Sprintf("charged_ns=%.0f", ns); got != want {
			t.Errorf("chargedDetail(%v) = %q, want %q", ns, got, want)
		}
	}
}

func TestStreamScatterSplitsLanes(t *testing.T) {
	g, _ := newGPU()
	buf, v := streamFixture(t, g, 10_000)
	defer buf.Free()

	s := g.NewStream()
	positions := []int{1, 5, 9, 4096}
	vals := make([]byte, len(positions)*8)
	if err := s.Scatter(v, positions, vals); err != nil {
		t.Fatal(err)
	}
	tr, cp := s.transferNs, s.computeNs
	wantTransfer := g.Profile().TransferNs(int64(len(vals)))
	if math.Abs(tr-wantTransfer) > 1 {
		t.Errorf("transfer lane %.0fns, want value-shipping cost %.0fns", tr, wantTransfer)
	}
	if cp <= 0 {
		t.Errorf("compute lane %.0fns, want positive kernel share", cp)
	}
}

func TestStreamResultsMatchSynchronous(t *testing.T) {
	g, _ := newGPU()
	buf, v := streamFixture(t, g, 30_000)
	defer buf.Free()

	want, err := reduceSum(g, v, DefaultReduceConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := g.NewStream()
	got, err := reduceSum(s, v, DefaultReduceConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Wait()
	if got != want {
		t.Errorf("stream reduce = %v, sync reduce = %v", got, want)
	}
}
