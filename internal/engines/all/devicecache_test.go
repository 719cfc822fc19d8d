package all

import (
	"math"
	"math/rand"
	"testing"

	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// TestDeviceCacheProperty is the fragment-cache correctness property:
// with device caching enabled, randomized interleavings of point writes,
// merges and scans must return exactly what a host-side ground-truth
// array computes — i.e. cached execution is indistinguishable from
// uncached except in bus traffic. Runs on the one engine that consumes
// the cache, the reference engine.
func TestDeviceCacheProperty(t *testing.T) {
	const n = 600
	before := obs.TakeSnapshot()
	t.Run("core", func(t *testing.T) {
		env := engine.NewEnv()
		tbl := loadItems(t, core.New(env, core.Options{ChunkRows: 128, DeviceCache: true}), n)
		defer tbl.Free()
		seal := func() {
			if err := tbl.(interface{ Merge() error }).Merge(); err != nil {
				t.Fatalf("Merge: %v", err)
			}
		}
		seal()

		prices := make([]float64, n)
		for row := uint64(0); row < n; row++ {
			rec, err := tbl.Get(row)
			if err != nil {
				t.Fatalf("Get(%d): %v", row, err)
			}
			prices[row] = rec[workload.ItemPriceCol].F
		}

		r := rand.New(rand.NewSource(68))
		for i := 0; i < 60; i++ {
			switch op := r.Intn(10); {
			case op < 3: // point write
				row := uint64(r.Intn(n))
				val := math.Floor(r.Float64()*900) / 100
				if err := tbl.Update(row, workload.ItemPriceCol, schema.FloatValue(val)); err != nil {
					t.Fatalf("Update(%d): %v", row, err)
				}
				prices[row] = val
			case op == 3: // fold deltas in, invalidating written fragments
				seal()
			default: // scan; mostly closed predicates so the device path engages
				var p exec.Pred
				if r.Intn(4) == 0 {
					p = randomPred(r)
				} else {
					lo := r.Float64() * 8
					p = exec.Between(lo, lo+r.Float64()*4)
				}
				var wantSum float64
				var wantN int64
				for _, x := range prices {
					if p.Match(x) {
						wantSum += x
						wantN++
					}
				}
				gotSum, gotN, err := sumWhere(tbl, workload.ItemPriceCol, p)
				if err != nil {
					t.Fatalf("SumFloat64Where(%v): %v", p, err)
				}
				if gotN != wantN {
					t.Errorf("op %d: %v: count = %d, want %d", i, p, gotN, wantN)
				}
				if math.Abs(gotSum-wantSum) > 1e-6 {
					t.Errorf("op %d: %v: sum = %v, want %v", i, p, gotSum, wantSum)
				}
			}
		}
	})
	// The suite must actually have exercised the cache, not just host
	// fallbacks: both cold uploads and warm reuses have to appear.
	after := obs.TakeSnapshot()
	if after.Counter("device.cache.misses") <= before.Counter("device.cache.misses") {
		t.Error("device.cache.misses did not advance: cache path never ran")
	}
	if after.Counter("device.cache.hits") <= before.Counter("device.cache.hits") {
		t.Error("device.cache.hits did not advance: no scan reused a resident image")
	}
}

// TestDeviceCacheWarmScanZeroBusBytes pins the headline behaviour: a
// repeated device scan over unchanged fragments costs zero H2D bytes,
// and a merged write re-ships exactly the written fragment, not the
// table.
func TestDeviceCacheWarmScanZeroBusBytes(t *testing.T) {
	const (
		chunkRows = 128
		coldFrags = 4
		n         = (coldFrags + 1) * chunkRows // one chunk stays hot
	)
	env := engine.NewEnv()
	tbl := loadItems(t, core.New(env, core.Options{ChunkRows: chunkRows, HotChunks: 1, DeviceCache: true}), n)
	defer tbl.Free()
	p := exec.Between(0, 1000) // closed, admits every zone

	scan := func() (float64, int64) {
		t.Helper()
		sum, cnt, err := sumWhere(tbl, workload.ItemPriceCol, p)
		if err != nil {
			t.Fatalf("SumFloat64Where: %v", err)
		}
		return sum, cnt
	}

	sum1, n1 := scan()
	cold := env.GPU.Stats().HostToDeviceBytes
	if cold != coldFrags*chunkRows*8 {
		t.Fatalf("cold scan shipped %d H2D bytes, want %d (every cold fragment once)", cold, coldFrags*chunkRows*8)
	}

	sum2, n2 := scan()
	if warm := env.GPU.Stats().HostToDeviceBytes - cold; warm != 0 {
		t.Errorf("warm scan shipped %d H2D bytes, want 0", warm)
	}
	if sum1 != sum2 || n1 != n2 {
		t.Errorf("warm scan answer drifted: (%v, %d) vs (%v, %d)", sum2, n2, sum1, n1)
	}

	// Write one row and fold it into the base: only that row's fragment
	// may cross the bus again.
	if err := tbl.Update(chunkRows+5, workload.ItemPriceCol, schema.FloatValue(3.25)); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := tbl.(interface{ Merge() error }).Merge(); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	base := env.GPU.Stats().HostToDeviceBytes
	sum3, n3 := scan()
	reshipped := env.GPU.Stats().HostToDeviceBytes - base
	if reshipped != chunkRows*8 {
		t.Errorf("post-write scan re-shipped %d bytes, want exactly one fragment (%d)", reshipped, chunkRows*8)
	}
	if n3 != n1 {
		t.Errorf("post-write count = %d, want %d", n3, n1)
	}
	wantSum := sum1 // replaced price for row chunkRows+5
	{
		rec, err := tbl.Get(chunkRows + 5)
		if err != nil {
			t.Fatal(err)
		}
		if rec[workload.ItemPriceCol].F != 3.25 {
			t.Fatalf("merge lost the update: price = %v", rec[workload.ItemPriceCol].F)
		}
	}
	old := workload.ItemPrice(chunkRows + 5)
	wantSum += 3.25 - old
	if math.Abs(sum3-wantSum) > 1e-6 {
		t.Errorf("post-write sum = %v, want %v", sum3, wantSum)
	}
}
