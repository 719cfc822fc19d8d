package cogadb

import (
	"errors"
	"math"
	"testing"

	"hybridstore/internal/device"
	"hybridstore/internal/engine"
	"hybridstore/internal/mem"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

func load(t *testing.T, env *engine.Env, n uint64) *Table {
	t.Helper()
	e := New(env, 0)
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	ct := tbl.(*Table)
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := ct.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return ct
}

// hasReplica reports whether column c has a device replica.
func hasReplica(t *Table, c int) bool { _, ok := t.replicas[c]; return ok }

// samples returns how many observations a pair has accumulated.
func samples(h *hype, op, placement string) uint64 {
	if m := h.models[key(op, placement)]; m != nil {
		return m.samples
	}
	return 0
}

func TestPlaceAllOrNothing(t *testing.T) {
	env := engine.NewEnv()
	tbl := load(t, env, 500)
	defer tbl.Free()
	if hasReplica(tbl, workload.ItemPriceCol) {
		t.Fatal("column placed before Place")
	}
	if err := tbl.Place(workload.ItemPriceCol); err != nil {
		t.Fatal(err)
	}
	if !hasReplica(tbl, workload.ItemPriceCol) {
		t.Fatal("Place did not take")
	}
	// Idempotent.
	if err := tbl.Place(workload.ItemPriceCol); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Place(99); err == nil {
		t.Fatal("bad column accepted")
	}
	// The snapshot exposes the mixed host/device location.
	spaces := map[mem.Space]bool{}
	for _, l := range tbl.Snapshot().Layouts {
		for _, f := range l.Fragments {
			spaces[f.Space] = true
		}
	}
	if !spaces[mem.Host] || !spaces[mem.Device] {
		t.Fatalf("spaces = %v", spaces)
	}
}

func TestPlaceFallsBackOnDeviceExhaustion(t *testing.T) {
	env := engine.NewEnv()
	// A tiny device: the column cannot fit.
	prof := perfmodel.DefaultDevice()
	prof.GlobalMemory = 64
	env.GPU = device.New(prof, env.Clock)
	tbl := load(t, env, 500)
	defer tbl.Free()
	err := tbl.Place(workload.ItemPriceCol)
	if !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if hasReplica(tbl, workload.ItemPriceCol) {
		t.Fatal("failed placement left column marked placed")
	}
	// Queries still work on the host.
	sum, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil || math.Abs(sum-workload.ExpectedItemPriceSum(500)) > 1e-6 {
		t.Fatalf("sum = %v, %v", sum, err)
	}
}

func TestReplicaStaysCoherent(t *testing.T) {
	env := engine.NewEnv()
	tbl := load(t, env, 300)
	defer tbl.Free()
	if err := tbl.Place(workload.ItemPriceCol); err != nil {
		t.Fatal(err)
	}
	// Write-through on update.
	if err := tbl.Update(10, workload.ItemPriceCol, schema.FloatValue(500)); err != nil {
		t.Fatal(err)
	}
	// Write-through on insert.
	if _, err := tbl.Insert(workload.Item(300)); err != nil {
		t.Fatal(err)
	}
	want := workload.ExpectedItemPriceSum(301) - workload.ItemPrice(10) + 500
	// Force enough queries that HyPE tries both placements.
	for i := 0; i < 30; i++ {
		sum, err := tbl.SumFloat64(workload.ItemPriceCol)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sum-want) > 1e-6 {
			t.Fatalf("iteration %d: sum = %v, want %v", i, sum, want)
		}
	}
	cpu, gpu := tbl.Runs()
	if cpu == 0 || gpu == 0 {
		t.Fatalf("HyPE never balanced: cpu=%d gpu=%d", cpu, gpu)
	}
}

func TestEvict(t *testing.T) {
	env := engine.NewEnv()
	tbl := load(t, env, 200)
	defer tbl.Free()
	if err := tbl.Place(workload.ItemPriceCol); err != nil {
		t.Fatal(err)
	}
	used := env.GPU.Allocator().Used()
	if used == 0 {
		t.Fatal("placement allocated nothing")
	}
	tbl.evictLocked(workload.ItemPriceCol)
	if hasReplica(tbl, workload.ItemPriceCol) || env.GPU.Allocator().Used() != 0 {
		t.Fatal("eviction did not free device memory")
	}
	tbl.evictLocked(workload.ItemPriceCol) // idempotent
}

func TestHypeLearnsToPreferTheFasterDevice(t *testing.T) {
	env := engine.NewEnv()
	tbl := load(t, env, 60_000)
	defer tbl.Free()
	if err := tbl.Place(workload.ItemPriceCol); err != nil {
		t.Fatal(err)
	}
	// At this size the device kernel is far cheaper under the simulated
	// clock; after warmup HyPE should route most sums to the GPU.
	for i := 0; i < 40; i++ {
		if _, err := tbl.SumFloat64(workload.ItemPriceCol); err != nil {
			t.Fatal(err)
		}
	}
	cpu, gpu := tbl.Runs()
	if gpu <= cpu {
		t.Fatalf("HyPE preferred the slower placement: cpu=%d gpu=%d", cpu, gpu)
	}
}

func TestHypeCostModel(t *testing.T) {
	h := newHype(0.1)
	if samples(h, "sum", "cpu") != 0 {
		t.Fatal("fresh model has samples")
	}
	h.Observe("sum", "cpu", 100, 1000) // 10 ns/elt
	h.Observe("sum", "gpu", 100, 100)  // 1 ns/elt
	if samples(h, "sum", "cpu") != 1 {
		t.Fatal("sample not recorded")
	}
	picks := map[string]int{}
	for i := 0; i < 100; i++ {
		picks[h.Choose("sum", 1000, []string{"cpu", "gpu"})]++
	}
	if picks["gpu"] <= picks["cpu"] {
		t.Fatalf("choices = %v, want gpu-dominant", picks)
	}
	if picks["cpu"] == 0 {
		t.Fatal("no exploration happened")
	}
	// Zero-length observations are ignored.
	h.Observe("sum", "cpu", 0, 1)
	if samples(h, "sum", "cpu") != 1 {
		t.Fatal("zero-n observation recorded")
	}
	if h.Choose("sum", 10, nil) != "" {
		t.Fatal("empty placement list")
	}
	if h.String() == "" {
		t.Fatal("empty String")
	}
}

func TestBadEpsilonDefaults(t *testing.T) {
	h := newHype(7)
	if h.epsilon != 0.05 {
		t.Fatalf("epsilon = %v", h.epsilon)
	}
}
