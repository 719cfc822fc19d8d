package es2

import (
	"math"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
	"hybridstore/internal/workload"
)

func load(t *testing.T, n uint64) *Table {
	t.Helper()
	e := New(engine.NewEnv())
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	et := tbl.(*Table)
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := et.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return et
}

func TestTwoStepFragmentation(t *testing.T) {
	tbl := load(t, 2000)
	defer tbl.Free()
	// Step 1 default: all-singleton groups; step 2: 4 stripes of 512,
	// each partition with its replica in the second layout.
	snap := tbl.Snapshot()
	for _, l := range snap.Layouts {
		if got := len(l.Fragments); got != 5*4 {
			t.Fatalf("%s partitions = %d, want 20", l.Name, got)
		}
	}
	if !snap.Layouts[0].Combined {
		t.Fatal("two-step fragmentation must classify as combined")
	}
	// Everything on secondary (DFS) storage.
	for _, l := range snap.Layouts {
		for _, f := range l.Fragments {
			if f.Space != 2 { // mem.Secondary
				t.Fatalf("fragment space = %v", f.Space)
			}
			if f.Lin != layout.DSM {
				t.Fatalf("fragment lin = %v, want PAX-formatted DSM", f.Lin)
			}
		}
	}
}

func TestDataBalancedAcrossNodes(t *testing.T) {
	tbl := load(t, 4096)
	defer tbl.Free()
	var bytes []int64
	for _, n := range tbl.nodes {
		bytes = append(bytes, n.Used())
	}
	if len(bytes) != Nodes {
		t.Fatalf("nodes = %d", len(bytes))
	}
	var min, max int64 = bytes[0], bytes[0]
	for _, b := range bytes {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if min == 0 {
		t.Fatalf("a node stores nothing: %v", bytes)
	}
	if float64(max) > 2.0*float64(min) {
		t.Fatalf("placement skewed: %v", bytes)
	}
}

func TestDistributedSecondaryIndex(t *testing.T) {
	tbl := load(t, 400)
	defer tbl.Free()
	row, ok := tbl.pkIndex.Lookup(250)
	if !ok || row != 250 {
		t.Fatalf("pk 250 -> %d, %v", row, ok)
	}
	if _, ok := tbl.pkIndex.Lookup(9999); ok {
		t.Fatal("missing key found")
	}
	if _, err := tbl.Insert(workload.Item(250)); err == nil {
		t.Fatal("duplicate pk accepted")
	}
	rec, err := tbl.Get(row)
	if err != nil || !rec.Equal(workload.Item(250)) {
		t.Fatalf("Get = %v, %v", rec, err)
	}
}

func TestAdaptRefragments(t *testing.T) {
	tbl := load(t, 1200)
	defer tbl.Free()
	for i := 0; i < 100; i++ {
		tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 1, 2}})
	}
	changed, err := tbl.Adapt()
	if err != nil || !changed {
		t.Fatalf("Adapt = %v, %v", changed, err)
	}
	if first := tbl.Snapshot().Layouts[0].Fragments[0]; len(first.Cols) != 3 {
		t.Fatalf("first partition covers %v, want the fused {0,1,2}", first.Cols)
	}
	// Data intact and a fat DSM (PAX) partition now exists.
	res, err := tbl.Scan(exec.Plan{Op: exec.KindSum, Col: workload.ItemPriceCol})
	sum := res.Sum
	if err != nil || math.Abs(sum-workload.ExpectedItemPriceSum(1200)) > 1e-6 {
		t.Fatalf("sum = %v, %v", sum, err)
	}
	var fat bool
	for _, f := range tbl.Snapshot().Layouts[0].Fragments {
		if f.Fat && f.Lin == layout.DSM {
			fat = true
		}
	}
	if !fat {
		t.Fatal("no PAX-formatted fat partition after regrouping")
	}
	// Stable afterwards.
	changed, err = tbl.Adapt()
	if err != nil || changed {
		t.Fatalf("second Adapt = %v, %v", changed, err)
	}
}

func TestClusterDistributedLocality(t *testing.T) {
	tbl := load(t, 100)
	defer tbl.Free()
	e := New(engine.NewEnv())
	c, err := engine.Classify(e, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if c.Locality != taxonomy.Distributed {
		t.Fatalf("locality = %v", c.Locality)
	}
}
