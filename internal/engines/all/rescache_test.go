package all

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/rescache"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// stampTable is the surface the result-cache property needs beside the
// contract's scan entry: the engine's base-state stamp.
type stampTable interface {
	VersionStamp() (rescache.Stamp, bool)
}

// TestResultCacheRacingWriters is the correctness property of
// stamped result caching: under 16 racing writers (each also moving
// the base epoch via merge mid-flight), a cached answer
// served under stamp S must be
// byte-for-byte identical to a fresh execution bracketed by the same
// stamp. Readers run the double-stamp bracket —
//
//	s1 := VersionStamp()
//	cached, hadCached := cache.Lookup(key, s1)
//	fresh := SumFloat64Where(col, p)   // real execution
//	s2 := VersionStamp()
//	if s1 == s2: fresh is a pure function of the stamped state
//	             → any cached answer must match it exactly, and fresh
//	               may be published under that stamp
//
// — so every hit the cache ever serves is checked against a live
// recomputation over provably identical base state. Runs on core, the
// one engine that produces stamps (and the one the facade and the
// server open), and is meant for -race. A quiesced epilogue guarantees
// the property is actually exercised: with writers stopped, stamps are
// stable and repeats MUST hit.
func TestResultCacheRacingWriters(t *testing.T) {
	const (
		n       = 384
		writers = 16
		readers = 4
		part    = n / writers
		rounds  = 30
	)
	preds := []exec.Pred{
		exec.Lt(40),
		exec.Gt(60),
		exec.Between(10, 80),
		exec.Between(13, 13), // normalizes to eq(13)
	}
	makers := []struct {
		name string
		make func(env *engine.Env) engine.Engine
		// maintain moves the base outside the write path: merge.
		maintain func(tbl engine.Table) error
	}{
		{"core", func(env *engine.Env) engine.Engine {
			// The engine-internal cache stays OFF: the bracket drives an
			// external cache so a wrong hit is caught by construction.
			return core.New(env, core.Options{ChunkRows: 64})
		}, func(tbl engine.Table) error { return tbl.(*core.Table).Merge() }},
	}
	for _, m := range makers {
		m := m
		t.Run(m.name, func(t *testing.T) {
			env := engine.NewEnv()
			tbl := loadItems(t, m.make(env), n)
			defer tbl.Free()
			st, ok := tbl.(stampTable)
			if !ok {
				t.Fatalf("%s does not implement VersionStamp", m.name)
			}
			cache := rescache.New(1<<20, 0)
			keys := make([]rescache.Key, len(preds))
			for i, p := range preds {
				keys[i] = rescache.Key{
					Table: "item", Op: rescache.OpSumWhere,
					Col: workload.ItemPriceCol, Pred: exec.Normalize(p), HasPred: true,
				}
			}

			// bracket runs one checked query; it reports whether a cached
			// answer was validated against a fresh execution.
			bracket := func(i int) (validatedHit bool) {
				s1, ok1 := st.VersionStamp()
				var cached rescache.Value
				hadCached := false
				if ok1 {
					cached, hadCached = cache.Lookup(keys[i], s1)
				}
				sum, cnt, err := sumWhere(tbl, workload.ItemPriceCol, preds[i])
				if err != nil {
					t.Error(err)
					return false
				}
				s2, ok2 := st.VersionStamp()
				if !ok1 || !ok2 || !s1.Equal(s2) {
					return false // state moved (or unstampable): nothing provable
				}
				if hadCached {
					if math.Float64bits(cached.Sum) != math.Float64bits(sum) || cached.Count != cnt {
						t.Errorf("pred %d: cached (%v,%d) != fresh (%v,%d) under equal stamps",
							i, cached.Sum, cached.Count, sum, cnt)
					}
					return true
				}
				cache.Put(keys[i], s1, rescache.Value{Sum: sum, Count: cnt})
				return false
			}

			// Racing phase: writers bump versions mid-flight while readers
			// run the bracket. Written prices are integer-valued so any
			// fold order sums exactly.
			var writersWg, readersWg sync.WaitGroup
			stop := make(chan struct{})
			var validated atomic.Int64
			for w := 0; w < writers; w++ {
				w := w
				writersWg.Add(1)
				go func() {
					defer writersWg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < rounds; i++ {
						row := uint64(w*part + r.Intn(part))
						v := schema.FloatValue(float64(r.Intn(100)))
						if err := tbl.Update(row, workload.ItemPriceCol, v); err != nil {
							t.Error(err)
							return
						}
						if i%10 == 0 {
							if err := m.maintain(tbl); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
			}
			for g := 0; g < readers; g++ {
				g := g
				readersWg.Add(1)
				go func() {
					defer readersWg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if bracket((i + g) % len(preds)) {
							validated.Add(1)
						}
					}
				}()
			}
			// Writers run to completion; readers race them throughout and
			// are stopped only after every writer finished.
			writersDone := make(chan struct{})
			go func() { writersWg.Wait(); close(writersDone) }()
			for {
				select {
				case <-writersDone:
				default:
					if bracket(0) {
						validated.Add(1)
					}
					continue
				}
				break
			}
			close(stop)
			readersWg.Wait()

			// Quiesced epilogue: fold everything (clears core's deltas so
			// its stamps are valid again), then every pred must validate a
			// hit — stamps are stable, so the second bracket call of each
			// pred serves the first call's published entry.
			if err := m.maintain(tbl); err != nil {
				t.Fatal(err)
			}
			for i := range preds {
				bracket(i) // publish (or validate a racing-phase entry)
				if !bracket(i) {
					t.Fatalf("pred %d: no validated hit on a quiesced table", i)
				}
				validated.Add(1)
			}
			if validated.Load() == 0 {
				t.Fatal("property never exercised: zero validated hits")
			}

			// The normalized between(13,13) key IS the eq(13) key: a probe
			// spelled the other way hits the same entry.
			eqKey := rescache.Key{
				Table: "item", Op: rescache.OpSumWhere,
				Col: workload.ItemPriceCol, Pred: exec.Normalize(exec.Eq(13)), HasPred: true,
			}
			if eqKey != keys[3] {
				t.Fatal("normalize failed to unify eq(13) and between(13,13) keys")
			}
		})
	}
}
