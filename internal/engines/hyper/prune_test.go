package hyper

import (
	"math"
	"testing"

	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// TestPruneStatsSealHyperCompact verifies that compaction seals the
// fused chunk's vector zones and that a later in-place update widens
// the zone and clears the seal.
func TestPruneStatsSealHyperCompact(t *testing.T) {
	tbl := load(t, 128, 512)
	defer tbl.Free()
	if _, err := tbl.Compact(); err != nil {
		t.Fatal(err)
	}
	var fused *chunk
	for _, c := range tbl.chunks {
		if c.frozen {
			fused = c
		}
	}
	if fused == nil {
		t.Fatal("compaction produced no frozen chunk")
	}
	z := fused.vectors[workload.ItemPriceCol].Stats(workload.ItemPriceCol)
	if z == nil || !z.Sealed() {
		t.Fatal("fused price vector zone not sealed")
	}
	min, max, ok := z.Float64Bounds()
	if !ok {
		t.Fatal("sealed zone has no bounds")
	}
	wantMin := workload.ItemPrice(fused.rows.Begin)
	wantMax := workload.ItemPrice(fused.rows.Begin + uint64(fused.len()) - 1)
	if min != wantMin || max != wantMax {
		t.Fatalf("sealed bounds [%v,%v], want [%v,%v]", min, max, wantMin, wantMax)
	}

	// An in-place update through the frozen chunk widens and unseals.
	if err := tbl.Update(fused.rows.Begin, workload.ItemPriceCol, schema.FloatValue(900)); err != nil {
		t.Fatal(err)
	}
	z = fused.vectors[workload.ItemPriceCol].Stats(workload.ItemPriceCol)
	if z.Sealed() {
		t.Error("zone stayed sealed across an in-place update")
	}
	if _, max, _ = z.Float64Bounds(); max < 900 {
		t.Errorf("zone max %v did not widen to cover the update", max)
	}
}

// TestPruneHyperCompactedScan checks the whole pruned path over the
// compacted table: an out-of-range predicate prunes every chunk yet
// answers exactly, and the pruned counter advances.
func TestPruneHyperCompactedScan(t *testing.T) {
	tbl := load(t, 128, 512)
	defer tbl.Free()
	if _, err := tbl.Compact(); err != nil {
		t.Fatal(err)
	}
	before := obs.TakeSnapshot()
	r, err := tbl.Scan(exec.Plan{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: exec.Gt(500)})
	sum, n := r.Sum, r.Count
	if err != nil {
		t.Fatal(err)
	}
	if sum != 0 || n != 0 {
		t.Fatalf("impossible predicate returned (%v, %d)", sum, n)
	}
	after := obs.TakeSnapshot()
	if after.Counter("exec.zonemap.pruned") <= before.Counter("exec.zonemap.pruned") {
		t.Error("exec.zonemap.pruned did not advance")
	}

	r, err = tbl.Scan(exec.Plan{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: exec.Lt(2)})
	sum, n = r.Sum, r.Count
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	var wantN int64
	for i := uint64(0); i < 512; i++ {
		if p := workload.ItemPrice(i); p < 2 {
			want += p
			wantN++
		}
	}
	if n != wantN || math.Abs(sum-want) > 1e-9 {
		t.Fatalf("selective sum = (%v, %d), want (%v, %d)", sum, n, want, wantN)
	}
}
