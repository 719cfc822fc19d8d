package device

import (
	"sync"
	"testing"

	"hybridstore/internal/perfmodel"
)

// TestCacheDupUploadRace is the regression test for the concurrent-miss
// accounting bug: two cold Acquires race on the same key, both upload,
// and the loser discards its copy. The loser must stay a miss (it paid
// the bus) and count as a duplicate upload — hits+misses must equal the
// acquire count, never exceed it.
func TestCacheDupUploadRace(t *testing.T) {
	g, _ := newGPU()
	c := NewFragCache(g)
	key := FragKey{Table: "race", Frag: 1, Col: 0, Rows: 256}
	data := hostFloats(256)

	// Both goroutines reach the middle of their uploads before either
	// installs: the barrier guarantees the second installer finds the
	// winner's entry already resident.
	var barrier sync.WaitGroup
	barrier.Add(2)
	var wg sync.WaitGroup
	hits := make([]bool, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pin, hit, err := c.Acquire(key, 1, len(data), func(b *Buffer) error {
				barrier.Done()
				barrier.Wait()
				return g.CopyToDevice(b, 0, data)
			})
			if err != nil {
				t.Error(err)
				return
			}
			hits[i] = hit
			if pin.Buffer() == nil {
				t.Error("nil buffer from racing acquire")
			}
			pin.Release()
		}(i)
	}
	wg.Wait()

	if hits[0] || hits[1] {
		t.Fatalf("a racing cold acquire reported a hit (hits=%v); both paid the bus", hits)
	}
	st := c.Stats()
	if st.Hits+st.Misses != 2 {
		t.Fatalf("hits %d + misses %d = %d, want 2 (one per acquire)", st.Hits, st.Misses, st.Hits+st.Misses)
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Misses)
	}
	if st.DupUploads != 1 {
		t.Fatalf("dup uploads = %d, want exactly 1 (the race loser)", st.DupUploads)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (loser's copy discarded)", st.Entries)
	}
	// Both goroutines shipped the image: the bus was charged twice.
	if got, want := g.Stats().HostToDeviceBytes, int64(2*len(data)); got != want {
		t.Fatalf("H2D bytes = %d, want %d (both uploads crossed the bus)", got, want)
	}
	// The survivor serves subsequent lookups as a plain hit.
	pin, hit := acquireUpload(t, c, key, 1, data)
	pin.Release()
	if !hit {
		t.Fatal("post-race acquire missed; the winner's image should be resident")
	}
}

// TestGatherChargesOverlapOnce pins the transfer-pricing fix: a Gather
// costs exactly one combined OverlapNs(transfer, kernel, 1) charge —
// symmetric with Scatter — rather than separate kernel and transfer
// charges drifting apart from the stream paths.
func TestGatherChargesOverlapOnce(t *testing.T) {
	g, clk := newGPU()
	const n, width = 1024, 16
	buf, err := g.Alloc(n * width)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	if err := g.CopyToDevice(buf, 0, make([]byte, n*width)); err != nil {
		t.Fatal(err)
	}
	positions := []int{1, 3, 5, 7, 11}

	before := clk.ElapsedNs()
	out, err := g.Gather(buf, width, positions)
	if err != nil {
		t.Fatal(err)
	}
	got := clk.ElapsedNs() - before

	prof := g.Profile()
	want := prof.OverlapNs(
		prof.TransferNs(int64(len(out))),
		prof.GatherKernelNs(int64(len(positions)), int64(n), width), 1)
	if got != want {
		t.Fatalf("gather charged %v ns, want single overlap charge %v ns", got, want)
	}
}

// TestEnvCardsChargeLanesNotShared pins the fleet clock model: card work
// accrues on private lane clocks, Sync folds one card serially, and
// SettleMax folds a concurrent phase at the maximum lane delta.
func TestEnvCardsChargeLanesNotShared(t *testing.T) {
	shared := &perfmodel.Clock{}
	env := NewEnv(2, perfmodel.DefaultDevice(), shared)

	buf0, err := env.Card(0).GPU().Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	defer buf0.Free()
	if err := env.Card(0).GPU().CopyToDevice(buf0, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if shared.ElapsedNs() != 0 {
		t.Fatalf("card work leaked onto the shared clock: %v ns", shared.ElapsedNs())
	}
	lane0 := env.Card(0).lane.ElapsedNs()
	if lane0 <= 0 {
		t.Fatal("card 0 lane did not advance")
	}

	// Card 1 does twice the work; SettleMax folds the longer lane only.
	buf1, err := env.Card(1).GPU().Alloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	defer buf1.Free()
	if err := env.Card(1).GPU().CopyToDevice(buf1, 0, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	lane1 := env.Card(1).lane.ElapsedNs()
	if lane1 <= lane0 {
		t.Fatalf("lane1 %v should exceed lane0 %v", lane1, lane0)
	}
	env.SettleMax()
	if got := shared.ElapsedNs(); got != lane1 {
		t.Fatalf("SettleMax advanced shared by %v, want max lane %v", got, lane1)
	}
	// Settled lanes fold nothing further.
	env.SettleMax()
	if got := shared.ElapsedNs(); got != lane1 {
		t.Fatalf("second SettleMax moved shared to %v, want unchanged %v", got, lane1)
	}

	// New work on one card folds exactly that card's delta at the next settle.
	before := shared.ElapsedNs()
	if err := env.Card(0).GPU().CopyToDevice(buf0, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	d := env.Card(0).lane.ElapsedNs() - lane0
	env.SettleMax()
	if got := shared.ElapsedNs() - before; got != d {
		t.Fatalf("SettleMax advanced shared by %v, want lane delta %v", got, d)
	}
}

// TestEnvPerCardRegistryCounters pins that an Env's cards register
// device.<i>.* counters and mirror every transfer onto them.
func TestEnvPerCardRegistryCounters(t *testing.T) {
	shared := &perfmodel.Clock{}
	env := NewEnv(2, perfmodel.DefaultDevice(), shared)
	for i := 0; i < 2; i++ {
		gpu := env.Card(i).GPU()
		buf, err := gpu.Alloc(1024 * (i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := gpu.CopyToDevice(buf, 0, make([]byte, 1024*(i+1))); err != nil {
			t.Fatal(err)
		}
		buf.Free()
		st := gpu.Stats()
		if st.HostToDeviceBytes != int64(1024*(i+1)) {
			t.Fatalf("card %d H2D bytes = %d, want %d", i, st.HostToDeviceBytes, 1024*(i+1))
		}
	}
	// Fleet aggregation sums the cards.
	if got, want := env.Stats().HostToDeviceBytes, int64(1024+2048); got != want {
		t.Fatalf("fleet H2D bytes = %d, want %d", got, want)
	}
}
