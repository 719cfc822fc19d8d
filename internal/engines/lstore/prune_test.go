package lstore

import (
	"math"
	"testing"

	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// TestPruneStatsSealLstoreMerge verifies that the merge pass seals a
// zone beside the compressed base image with the settled (tail-patched)
// bounds.
func TestPruneStatsSealLstoreMerge(t *testing.T) {
	tbl := load(t, 400)
	defer tbl.Free()
	// A tail update must be folded into the sealed bounds.
	if err := tbl.Update(7, workload.ItemPriceCol, schema.FloatValue(250)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	z := tbl.cols[workload.ItemPriceCol].zone
	if z == nil || !z.Snapshot().Sealed {
		t.Fatal("merge did not seal the price zone")
	}
	min, max, ok := z.Float64Bounds()
	if !ok {
		t.Fatal("sealed zone has no bounds")
	}
	if min != workload.ItemPrice(0) || max != 250 {
		t.Fatalf("sealed bounds [%v,%v], want [%v,250]", min, max, workload.ItemPrice(0))
	}
}

// TestPruneLstoreSkipsDecompression checks that a predicate the sealed
// zone rules out never decompresses the base image: the pruned-bytes
// counter advances by exactly the sealed region's size and the answer
// comes from the appendable region and tail patch alone.
func TestPruneLstoreSkipsDecompression(t *testing.T) {
	tbl := load(t, 400)
	defer tbl.Free()
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	// Post-merge insert and tail update live outside the sealed region's
	// bounds and must still be found.
	if _, err := tbl.Insert(workload.Item(400)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(3, workload.ItemPriceCol, schema.FloatValue(700)); err != nil {
		t.Fatal(err)
	}

	before := obs.TakeSnapshot()
	r, err := tbl.Scan(exec.Plan{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: exec.Gt(600)})
	sum, n := r.Sum, r.Count
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || sum != 700 {
		t.Fatalf("tail-only result = (%v, %d), want (700, 1)", sum, n)
	}
	after := obs.TakeSnapshot()
	// 400 sealed rows skipped without decompression, plus the one-row
	// appendable piece the host operator pruned by its running zone.
	wantBytes := int64(400*8 + 8)
	if got := after.Counter("exec.zonemap.pruned_bytes_total") - before.Counter("exec.zonemap.pruned_bytes_total"); got != wantBytes {
		t.Errorf("pruned %d bytes, want %d", got, wantBytes)
	}

	// The complementary scan decompresses and patches exactly.
	r, err = tbl.Scan(exec.Plan{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: exec.Lt(600)})
	sum, n = r.Sum, r.Count
	if err != nil {
		t.Fatal(err)
	}
	want := workload.ExpectedItemPriceSum(401) - workload.ItemPrice(3)
	if n != 400 || math.Abs(sum-want) > 1e-9 {
		t.Fatalf("complement = (%v, %d), want (%v, 400)", sum, n, want)
	}
}
