package hyper

import (
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

func load(t *testing.T, n uint64) *Table {
	t.Helper()
	e := New(engine.NewEnv())
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	ht := tbl.(*Table)
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := ht.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return ht
}

func TestChunkVectorHierarchy(t *testing.T) {
	tbl := load(t, 500)
	defer tbl.Free()
	snap := tbl.Snapshot()
	// Every fragment is a thin single-attribute vector.
	for _, f := range snap.Layouts[0].Fragments {
		if f.Fat || len(f.Cols) != 1 {
			t.Fatalf("fragment %+v is not a thin vector", f)
		}
	}
	// ceil(500/ChunkRows) = 4 chunks × 5 attributes.
	if got := len(snap.Layouts[0].Fragments); got != 20 {
		t.Fatalf("vectors = %d, want 20", got)
	}
	if !snap.Layouts[0].Combined {
		t.Fatal("partition→chunk→vector must classify as combined partitioning")
	}
}
