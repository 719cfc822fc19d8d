package device

import (
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
	tr, cp := s.Lanes()
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
	tr, cp := s.Lanes()
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

func TestStreamEventChargesPrefixOnly(t *testing.T) {
	g, clk := newGPU()
	buf, v := streamFixture(t, g, 200_000)
	defer buf.Free()

	s := g.NewStream()
	if _, err := reduceSum(s, v, DefaultReduceConfig()); err != nil {
		t.Fatal(err)
	}
	e := s.Record()
	if err := s.CopyToDevice(buf, 0, make([]byte, 200_000*8)); err != nil {
		t.Fatal(err)
	}

	clk.Reset()
	s.WaitEvent(e)
	prefix := g.Profile().OverlapNs(e.transferNs, e.computeNs, DefaultStreamStages)
	if math.Abs(clk.ElapsedNs()-prefix) > 1 {
		t.Errorf("WaitEvent charged %.0fns, want prefix %.0fns", clk.ElapsedNs(), prefix)
	}

	s.Wait()
	tr, cp := s.Lanes()
	total := g.Profile().OverlapNs(tr, cp, DefaultStreamStages)
	if math.Abs(clk.ElapsedNs()-total) > 1 {
		t.Errorf("Wait after event charged to %.0fns, want %.0fns", clk.ElapsedNs(), total)
	}

	// An event from before the settle charges nothing more, and a foreign
	// stream's event is ignored outright.
	before := clk.ElapsedNs()
	s.WaitEvent(e)
	other := g.NewStream()
	other.WaitEvent(e)
	if clk.ElapsedNs() != before {
		t.Errorf("stale/foreign event moved the clock: %.0f -> %.0f", before, clk.ElapsedNs())
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
	tr, cp := s.Lanes()
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
