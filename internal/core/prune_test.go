package core

import (
	"math"
	"testing"

	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// TestPruneStatsSealCoreFreeze verifies that freezing a chunk seals
// exact per-column zone maps on the cold fragments: the hot NSM region
// carries running (unsealed) bounds, the cold fragments sealed ones.
func TestPruneStatsSealCoreFreeze(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 2}, 500)
	defer tbl.Free()
	var coldSealed, hotChunks int
	for _, c := range tbl.chunks {
		if c.state == hot {
			hotChunks++
			z := c.nsm.Stats(workload.ItemPriceCol)
			if z == nil || !z.Valid() {
				t.Fatal("hot chunk has no running price zone")
			}
			if z.Sealed() {
				t.Error("hot chunk zone must not be sealed")
			}
			continue
		}
		frag, err := tbl.fragmentForCol(c, workload.ItemPriceCol)
		if err != nil {
			t.Fatal(err)
		}
		z := frag.Stats(workload.ItemPriceCol)
		if z == nil || !z.Sealed() {
			t.Fatalf("cold chunk [%d,%d) price zone not sealed", c.rows.Begin, c.rows.End)
		}
		min, max, ok := z.Float64Bounds()
		if !ok {
			t.Fatal("sealed zone has no bounds")
		}
		wantMin := workload.ItemPrice(c.rows.Begin)
		wantMax := workload.ItemPrice(c.rows.Begin + uint64(c.filled()) - 1)
		if min != wantMin || max != wantMax {
			t.Errorf("cold zone bounds [%v,%v], want [%v,%v]", min, max, wantMin, wantMax)
		}
		coldSealed++
	}
	if coldSealed == 0 || hotChunks == 0 {
		t.Fatalf("expected both regions populated: cold=%d hot=%d", coldSealed, hotChunks)
	}
}

// TestPruneStatsSurviveRegroup verifies that Adapt's regrouping re-seals
// the rebuilt cold fragments.
func TestPruneStatsSurviveRegroup(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1}, 400)
	defer tbl.Free()
	for i := 0; i < 40; i++ {
		tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 1, 2}})
		tbl.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{workload.ItemPriceCol}})
	}
	changed, err := tbl.Adapt()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Skip("advisor kept the grouping; nothing regrouped")
	}
	for _, c := range tbl.chunks {
		if c.state != cold {
			continue
		}
		frag, err := tbl.fragmentForCol(c, workload.ItemPriceCol)
		if err != nil {
			t.Fatal(err)
		}
		if z := frag.Stats(workload.ItemPriceCol); z == nil || !z.Sealed() {
			t.Fatalf("regrouped chunk [%d,%d) lost its sealed price zone", c.rows.Begin, c.rows.End)
		}
	}
}

// TestPruneDeviceSkipsKernelLaunch places the price column on the
// device and issues a predicate no fragment can match: zero reduction
// kernels may launch, and the pruned counter must advance. A predicate
// that matches a single chunk then launches kernels only for it.
func TestPruneDeviceSkipsKernelLaunch(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1, DevicePlacement: true}, 512)
	defer tbl.Free()
	if err := tbl.PlaceColumn(workload.ItemPriceCol); err != nil {
		t.Fatal(err)
	}

	before := obs.TakeSnapshot()
	sum, n, err := tbl.SumFloat64Where(workload.ItemPriceCol, exec.Between(1000, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if sum != 0 || n != 0 {
		t.Fatalf("impossible predicate returned sum=%v n=%d", sum, n)
	}
	mid := obs.TakeSnapshot()
	if got := mid.Counter("device.kernels") - before.Counter("device.kernels"); got != 0 {
		t.Errorf("impossible predicate launched %d kernels", got)
	}
	if mid.Counter("exec.zonemap.pruned") <= before.Counter("exec.zonemap.pruned") {
		t.Error("exec.zonemap.pruned did not advance")
	}

	// Prices are monotone: Between(1.0, 1.27) hits only chunk 0's rows
	// (prices 1.00..2.27 across its 128 rows — exactly rows 0..27 match).
	sum, n, err = tbl.SumFloat64Where(workload.ItemPriceCol, exec.Between(1.0, 1.27))
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	var wantN int64
	for i := uint64(0); i < 512; i++ {
		if p := workload.ItemPrice(i); p >= 1.0 && p <= 1.27 {
			want += p
			wantN++
		}
	}
	if n != wantN || math.Abs(sum-want) > 1e-9 {
		t.Fatalf("selective device sum = (%v, %d), want (%v, %d)", sum, n, want, wantN)
	}
	after := obs.TakeSnapshot()
	// Only the surviving chunk's fused kernel pair may have launched.
	if got := after.Counter("device.kernels") - mid.Counter("device.kernels"); got != 2 {
		t.Errorf("selective predicate launched %d kernels, want 2", got)
	}
}

// TestPruneMVCCPatchExactUnderPruning updates rows far outside the
// sealed bounds and checks the snapshot patch stays exact when base
// fragments are pruned.
func TestPruneMVCCPatchExactUnderPruning(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1}, 512)
	defer tbl.Free()
	if err := tbl.Update(10, workload.ItemPriceCol, schema.FloatValue(5000)); err != nil {
		t.Fatal(err)
	}
	// The base fragments top out below 7; only the delta version matches.
	sum, n, err := tbl.SumFloat64Where(workload.ItemPriceCol, exec.Gt(1000))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || sum != 5000 {
		t.Fatalf("patched result = (%v, %d), want (5000, 1)", sum, n)
	}
	// The inverse range excludes the updated row and includes its old
	// base value's fragment — the patch must subtract it.
	sum, n, err = tbl.SumFloat64Where(workload.ItemPriceCol, exec.Lt(1000))
	if err != nil {
		t.Fatal(err)
	}
	want := workload.ExpectedItemPriceSum(512) - workload.ItemPrice(10)
	if n != 511 || math.Abs(sum-want) > 1e-9 {
		t.Fatalf("complement result = (%v, %d), want (%v, 511)", sum, n, want)
	}
}
