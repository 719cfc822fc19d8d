package hyper

import (
	"math"
	"testing"

	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
	"hybridstore/internal/workload"
)

// TestPruneHyperChunkScan checks the whole pruned path over the chunk
// vectors' append-maintained zones: an out-of-range predicate prunes
// every chunk yet answers exactly, and the pruned counter advances.
func TestPruneHyperChunkScan(t *testing.T) {
	tbl := load(t, 512)
	defer tbl.Free()
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
