package hybridstore

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"hybridstore/internal/exec/pool"
	"hybridstore/internal/workload"
)

// TestConcurrentHTAPStress drives the reference engine with concurrent
// transactional writers, point readers, analytic scanners, inserters and
// a background adaptor/merger — the paper's HTAP picture, all at once.
// Run under -race this validates the engine's concurrency contract; the
// final state must equal a sequential model.
func TestConcurrentHTAPStress(t *testing.T) {
	db := Open(Options{ChunkRows: 256, HotChunks: 2})
	tbl, err := db.CreateTable("item", ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Free()
	const base = 2000
	for i := uint64(0); i < base; i++ {
		if _, err := tbl.Insert(Item(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	model := map[uint64]float64{}
	for i := uint64(0); i < base; i++ {
		model[i] = workload.ItemPrice(i)
	}
	inserted := uint64(base)

	// Writers: single-op update transactions against the base region.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				row := uint64(r.Int63n(base))
				val := math.Floor(r.Float64() * 100)
				if err := tbl.Update(row, ItemPriceColumn, FloatValue(val)); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				model[row] = val
				mu.Unlock()
			}
		}(w)
	}

	// Readers: point reads and Q1 lookups must always see a coherent
	// record (generated shape, whatever the price currently is).
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 300; i++ {
				row := uint64(r.Int63n(base))
				rec, err := tbl.Get(row)
				if err != nil {
					t.Error(err)
					return
				}
				if rec[0].I != int64(row) {
					t.Errorf("row %d materialized id %d", row, rec[0].I)
					return
				}
				if _, err := tbl.GetByPK(int64(row)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// Scanners: aggregates run throughout (answers vary while writers
	// run; they only must not error, race or crash).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := tbl.SumFloat64(ItemPriceColumn); err != nil {
					t.Error(err)
					return
				}
				if _, err := tbl.GroupSumFloat64(1, ItemPriceColumn); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// An inserter extends the relation (rows ≥ base, untouched by
	// writers).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < 500; i++ {
			row := base + i
			if _, err := tbl.Insert(Item(row)); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			model[row] = workload.ItemPrice(row)
			inserted++
			mu.Unlock()
		}
	}()

	// A background maintainer adapts and merges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := tbl.Adapt(); err != nil {
				t.Error(err)
				return
			}
			if err := tbl.Merge(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: the table equals the model.
	if tbl.Rows() != inserted {
		t.Fatalf("rows = %d, want %d", tbl.Rows(), inserted)
	}
	var want float64
	for _, v := range model {
		want += v
	}
	got, err := tbl.SumFloat64(ItemPriceColumn)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("final sum = %v, want %v", got, want)
	}
	for probe := uint64(0); probe < inserted; probe += 97 {
		rec, err := tbl.Get(probe)
		if err != nil || rec[ItemPriceColumn].F != model[probe] {
			t.Fatalf("Get(%d) = %v, %v; want price %v", probe, rec, err, model[probe])
		}
	}
}

// TestConcurrentMorselPoolStress hammers the process-wide morsel pool
// from several independent DBs at once: every engine routes its analytic
// operators through the same resident workers and recycled buffers, so
// concurrent queries across databases must neither race nor cross-feed
// results. Run under -race this validates the pool's sharing contract.
func TestConcurrentMorselPoolStress(t *testing.T) {
	// Small morsels force real multi-morsel scheduling on this machine;
	// extra workers force cross-query stealing.
	pool.SetMorselSize(128)
	pool.SetWorkers(4)
	t.Cleanup(func() {
		pool.SetMorselSize(0)
		pool.SetWorkers(0)
	})

	const dbs, rows = 3, 3000
	type fixture struct {
		tbl  *Table
		want float64
	}
	fixtures := make([]fixture, dbs)
	for d := range fixtures {
		db := Open(Options{ChunkRows: 256, HotChunks: 2, Policy: MorselDriven})
		tbl, err := db.CreateTable("item", ItemSchema())
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Free()
		// Distinct data per DB: shift the generator so a buffer leaking
		// across queries produces a visibly wrong sum.
		shift := uint64(d * 100_000)
		for i := uint64(0); i < rows; i++ {
			if _, err := tbl.Insert(Item(shift + i)); err != nil {
				t.Fatal(err)
			}
			fixtures[d].want += workload.ItemPrice(shift + i)
		}
		fixtures[d].tbl = tbl
	}

	// Churn the pool size while the queries run: in-flight jobs keep the
	// slot bound they were submitted with, so resizing must stay safe.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		sizes := []int{2, 4, 1, 3}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				pool.SetWorkers(sizes[i%len(sizes)])
			}
		}
	}()

	var wg sync.WaitGroup
	for d := range fixtures {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(d, w int) {
				defer wg.Done()
				f := fixtures[d]
				r := rand.New(rand.NewSource(int64(d*10 + w)))
				for i := 0; i < 30; i++ {
					got, err := f.tbl.SumFloat64(ItemPriceColumn)
					if err != nil {
						t.Error(err)
						return
					}
					if math.Abs(got-f.want) > 1e-6 {
						t.Errorf("db %d: concurrent sum = %v, want %v", d, got, f.want)
						return
					}
					groups, err := f.tbl.GroupSumFloat64(1, ItemPriceColumn)
					if err != nil || len(groups) == 0 {
						t.Errorf("db %d: group sum = %v, %v", d, groups, err)
						return
					}
					row := uint64(r.Int63n(rows))
					if _, err := f.tbl.Get(row); err != nil {
						t.Error(err)
						return
					}
				}
			}(d, w)
		}
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}

// TestStatsDuringStructuralWrites reads the table's physical state while
// inserts open and freeze chunks and placement moves columns. Under -race
// this pins that Stats and DeviceColumns take the table lock: they used
// to read the chunk list, the counters and the device-column map bare,
// and a concurrent map read and write aborts the process.
func TestStatsDuringStructuralWrites(t *testing.T) {
	db := Open(Options{ChunkRows: 64, HotChunks: 1})
	tbl, err := db.CreateTable("item", ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Free()
	const rows = 4000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); i < rows; i++ {
			if _, err := tbl.Insert(Item(i)); err != nil {
				t.Error(err)
				return
			}
			if i%500 == 499 {
				if err := tbl.PlaceColumn(ItemPriceColumn); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		st := tbl.Stats()
		if st.HotChunks > 1 || uint64(st.HotChunks+st.ColdChunks) > rows/64+1 || len(tbl.DeviceColumns()) > 1 {
			t.Fatalf("incoherent stats %+v", st)
		}
	}
	if st := tbl.Stats(); st.Rows != rows || st.Freezes != st.ColdChunks || len(st.DeviceColumns) != 1 {
		t.Fatalf("final stats %+v", st)
	}
}
