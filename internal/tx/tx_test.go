package tx

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"hybridstore/internal/schema"
)

func rec(v int64) schema.Record { return schema.Record{schema.IntValue(v)} }

// walkedVersions counts the stored versions by walking every chain — the
// definition Store.Versions' maintained count must equal at every step.
func walkedVersions(s *Store) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, p := range s.pages {
		for _, v := range p.heads {
			for ; v != nil; v = v.next {
				n++
			}
		}
	}
	return n
}

// liveRows counts the rows with a chain, by the pages' own counts.
func liveRows(s *Store) int {
	n := 0
	for _, p := range s.order {
		n += p.n
	}
	return n
}

func mustCommit(t *testing.T, x *Tx) {
	t.Helper()
	if err := x.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	s := NewStore()
	x := s.Begin()
	if err := x.Write(1, rec(10)); err != nil {
		t.Fatal(err)
	}
	got, err := x.Read(1)
	if err != nil || got[0].I != 10 {
		t.Fatalf("own write invisible: %v, %v", got, err)
	}
	mustCommit(t, x)
}

func TestSnapshotIsolationNoDirtyReads(t *testing.T) {
	s := NewStore()
	w := s.Begin()
	w.Write(1, rec(10))
	r := s.Begin()
	if _, err := r.Read(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted write visible: %v", err)
	}
	mustCommit(t, w)
	// r began before w committed: still invisible (repeatable snapshot).
	if _, err := r.Read(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("snapshot moved: %v", err)
	}
	r2 := s.Begin()
	got, err := r2.Read(1)
	if err != nil || got[0].I != 10 {
		t.Fatalf("committed write invisible to later snapshot: %v, %v", got, err)
	}
}

func TestRepeatableReadAcrossConcurrentCommits(t *testing.T) {
	s := NewStore()
	setup := s.Begin()
	setup.Write(1, rec(1))
	mustCommit(t, setup)

	r := s.Begin()
	first, err := r.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Begin()
	w.Write(1, rec(2))
	mustCommit(t, w)
	second, err := r.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].I != second[0].I {
		t.Fatalf("read not repeatable: %v then %v", first, second)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	s := NewStore()
	a := s.Begin()
	b := s.Begin()
	a.Write(7, rec(1))
	b.Write(7, rec(2))
	mustCommit(t, a)
	if err := b.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer err = %v, want ErrConflict", err)
	}
	r := s.Begin()
	got, err := r.Read(7)
	if err != nil || got[0].I != 1 {
		t.Fatalf("winner's write lost: %v, %v", got, err)
	}
}

func TestDisjointWritesDoNotConflict(t *testing.T) {
	s := NewStore()
	a := s.Begin()
	b := s.Begin()
	a.Write(1, rec(1))
	b.Write(2, rec(2))
	mustCommit(t, a)
	mustCommit(t, b)
}

func TestClosedTransaction(t *testing.T) {
	s := NewStore()
	x := s.Begin()
	mustCommit(t, x)
	if _, err := x.Read(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after commit: %v", err)
	}
	if err := x.Write(1, rec(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Write after commit: %v", err)
	}
	if err := x.Commit(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Commit: %v", err)
	}
	x.Abort() // no-op on closed
}

func TestAbortDiscardsWrites(t *testing.T) {
	s := NewStore()
	x := s.Begin()
	x.Write(1, rec(1))
	x.Abort()
	r := s.Begin()
	if _, err := r.Read(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted write visible: %v", err)
	}
}

func TestWriteBufferOverwrites(t *testing.T) {
	s := NewStore()
	x := s.Begin()
	x.Write(1, rec(1))
	x.Write(1, rec(2))
	if x.Pending() != 1 {
		t.Fatalf("Pending = %d", x.Pending())
	}
	mustCommit(t, x)
	r := s.Begin()
	got, _ := r.Read(1)
	if got[0].I != 2 {
		t.Fatalf("last write lost: %v", got)
	}
}

func TestReadReturnsClone(t *testing.T) {
	s := NewStore()
	x := s.Begin()
	x.Write(1, rec(1))
	mustCommit(t, x)
	r := s.Begin()
	got, _ := r.Read(1)
	got[0] = schema.IntValue(99)
	again, _ := r.Read(1)
	if again[0].I != 1 {
		t.Fatal("Read exposed internal record storage")
	}
}

func TestWriteBuffersClone(t *testing.T) {
	s := NewStore()
	x := s.Begin()
	mine := rec(1)
	x.Write(1, mine)
	mine[0] = schema.IntValue(99)
	got, _ := x.Read(1)
	if got[0].I != 1 {
		t.Fatal("Write aliased caller's record")
	}
}

func TestPrune(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		x := s.Begin()
		x.Write(1, rec(int64(i)))
		mustCommit(t, x)
	}
	if s.Versions() != 5 {
		t.Fatalf("versions = %d", s.Versions())
	}
	s.Prune(s.MinActiveTS())
	if s.Versions() != 1 {
		t.Fatalf("after prune versions = %d, want 1", s.Versions())
	}
	r := s.Begin()
	got, err := r.Read(1)
	if err != nil || got[0].I != 4 {
		t.Fatalf("newest version lost: %v, %v", got, err)
	}
}

func TestPruneRespectsActiveSnapshots(t *testing.T) {
	s := NewStore()
	w1 := s.Begin()
	w1.Write(1, rec(1))
	mustCommit(t, w1)

	oldReader := s.Begin() // snapshot sees version 1

	w2 := s.Begin()
	w2.Write(1, rec(2))
	mustCommit(t, w2)

	s.Prune(s.MinActiveTS())
	got, err := oldReader.Read(1)
	if err != nil || got[0].I != 1 {
		t.Fatalf("prune destroyed a visible version: %v, %v", got, err)
	}
}

func TestLatestTS(t *testing.T) {
	s := NewStore()
	if s.LatestTS(1) != 0 {
		t.Error("empty row has nonzero LatestTS")
	}
	x := s.Begin()
	x.Write(1, rec(1))
	mustCommit(t, x)
	if s.LatestTS(1) == 0 {
		t.Error("LatestTS not updated")
	}
}

func TestMinActiveTS(t *testing.T) {
	s := NewStore()
	if s.MinActiveTS() != 0 {
		t.Error("fresh store MinActiveTS != clock")
	}
	a := s.Begin()
	w := s.Begin()
	w.Write(1, rec(1))
	mustCommit(t, w)
	if s.MinActiveTS() != a.SnapshotTS() {
		t.Errorf("MinActiveTS = %d, want %d", s.MinActiveTS(), a.SnapshotTS())
	}
	a.Abort()
	if now := s.Begin().SnapshotTS(); s.MinActiveTS() != now {
		t.Errorf("MinActiveTS after abort = %d, want clock %d", s.MinActiveTS(), now)
	}
}

// Concurrent bank-transfer style test: the sum over all accounts must be
// invariant under concurrent conflicting transactions.
func TestConcurrentTransfersPreserveTotal(t *testing.T) {
	s := NewStore()
	const accounts = 8
	const initial = 100
	setup := s.Begin()
	for i := uint64(0); i < accounts; i++ {
		setup.Write(i, rec(initial))
	}
	mustCommit(t, setup)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				x := s.Begin()
				from := uint64((g + i) % accounts)
				to := uint64((g + i + 1) % accounts)
				a, err1 := x.Read(from)
				b, err2 := x.Read(to)
				if err1 != nil || err2 != nil {
					x.Abort()
					continue
				}
				x.Write(from, rec(a[0].I-1))
				x.Write(to, rec(b[0].I+1))
				_ = x.Commit() // conflicts abort the whole transfer
			}
		}(g)
	}
	wg.Wait()

	r := s.Begin()
	var total int64
	for i := uint64(0); i < accounts; i++ {
		v, err := r.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		total += v[0].I
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d (atomicity violated)", total, accounts*initial)
	}
}

// Property: a reader's view of any row never changes during its lifetime,
// regardless of interleaved committers.
func TestQuickSnapshotStability(t *testing.T) {
	f := func(writes []uint8) bool {
		s := NewStore()
		init := s.Begin()
		for i := uint64(0); i < 4; i++ {
			init.Write(i, rec(int64(i)))
		}
		if init.Commit() != nil {
			return false
		}
		reader := s.Begin()
		before := make(map[uint64]int64)
		for i := uint64(0); i < 4; i++ {
			v, err := reader.Read(i)
			if err != nil {
				return false
			}
			before[i] = v[0].I
		}
		for _, w := range writes {
			x := s.Begin()
			x.Write(uint64(w%4), rec(int64(w)))
			if x.Commit() != nil || s.Versions() != walkedVersions(s) {
				return false
			}
			// Pruning under the reader's horizon must not move its view
			// either, and keeps the count exact.
			if w%8 == 0 {
				s.Prune(s.MinActiveTS())
				if s.Versions() != walkedVersions(s) {
					return false
				}
			}
		}
		for i := uint64(0); i < 4; i++ {
			v, err := reader.Read(i)
			if err != nil || v[0].I != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any sequence of committed writes and a full prune, each
// surviving row holds exactly one version (the newest).
func TestQuickPruneKeepsNewest(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewStore()
		want := make(map[uint64]int64)
		for _, op := range ops {
			row := uint64(op % 8)
			x := s.Begin()
			x.Write(row, rec(int64(op)))
			want[row] = int64(op)
			if x.Commit() != nil || s.Versions() != walkedVersions(s) {
				return false
			}
			// A merge-style drop of a settled chain, now and then.
			if op%7 == 0 {
				s.Forget([]uint64{row, row + 8}, s.MinActiveTS())
				delete(want, row)
				if s.Versions() != walkedVersions(s) {
					return false
				}
			}
		}
		s.Prune(s.MinActiveTS())
		if s.Versions() != len(want) || s.Versions() != walkedVersions(s) {
			return false
		}
		r := s.Begin()
		for row, v := range want {
			got, err := r.Read(row)
			if err != nil || got[0].I != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// visit is one version as RangeVisible reports it (and, in fixtures, as
// InstallAt installs it).
type visit struct {
	row uint64
	val int64
	ts  uint64
}

func rangeAt(s *Store, ts uint64) []visit {
	var out []visit
	s.RangeVisible(ts, func(row uint64, r schema.Record, verTS uint64) bool {
		out = append(out, visit{row: row, val: r[0].I, ts: verTS})
		return true
	})
	return out
}

// The iterator visits ascending rows only, each once, with the version
// visible at ts (not the newest), and skips rows that have no version
// yet at ts.
func TestRangeVisibleOrderedSnapshot(t *testing.T) {
	s := NewStore()
	// Installed in commit order, which is not row order.
	for _, in := range []visit{
		{900, 1, 1},
		{3, 2, 2},
		{41, 3, 3},
		{900, 4, 4},
		{7, 5, 5},
		{41, 6, 6},
		{3, 7, 7},
		{1 << 40, 8, 8},
	} {
		if err := s.InstallAt(in.row, rec(in.val), in.ts); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		ts   uint64
		want []visit
	}{
		{0, nil},
		{3, []visit{{3, 2, 2}, {41, 3, 3}, {900, 1, 1}}},
		{6, []visit{{3, 2, 2}, {7, 5, 5}, {41, 6, 6}, {900, 4, 4}}},
		{99, []visit{{3, 7, 7}, {7, 5, 5}, {41, 6, 6}, {900, 4, 4}, {1 << 40, 8, 8}}},
	} {
		got := rangeAt(s, tc.ts)
		if len(got) != len(tc.want) {
			t.Fatalf("ts %d: visited %v, want %v", tc.ts, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("ts %d: visit %d = %+v, want %+v", tc.ts, i, got[i], tc.want[i])
			}
		}
	}
	// fn returning false stops the walk.
	n := 0
	s.RangeVisible(99, func(uint64, schema.Record, uint64) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("walk continued after fn returned false: %d visits", n)
	}
}

// Walks racing with committers stay ordered, duplicate-free and inside
// their snapshot: every visited version committed at or before ts and
// is the one a transaction beginning at ts reads. Run under -race.
func TestRangeVisibleConcurrentCommitters(t *testing.T) {
	s := NewStore()
	const rows, writers, perWriter = 64, 4, 300
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				x := s.Begin()
				// Rows are partitioned per writer: no conflicts.
				x.Write(uint64(g+writers*(i*7%(rows/writers))), rec(int64(i)))
				if err := x.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(g)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := s.Begin()
				ts := x.SnapshotTS()
				var last uint64
				for j, v := range rangeAt(s, ts) {
					if j > 0 && v.row <= last {
						t.Errorf("row %d visited after %d", v.row, last)
					}
					last = v.row
					// The snapshot's own read agrees with what the walk saw.
					got, err := x.Read(v.row)
					if v.ts > ts || err != nil || got[0].I != v.val {
						t.Errorf("row %d at snapshot %d: walk saw %+v, Read = %v, %v", v.row, ts, v, got, err)
					}
				}
				x.Abort()
			}
		}()
	}
	wg.Wait()
	if s.Versions() != walkedVersions(s) || s.Versions() != writers*perWriter {
		t.Fatalf("Versions = %d, walked %d, committed %d", s.Versions(), walkedVersions(s), writers*perWriter)
	}
}

// The ordered store against a map-and-sort model: random installs,
// conditional drops, prunes and refused out-of-order replays over rows
// that straddle page edges, sparse ids far apart and one hot page. After
// every step the walk yields the model's rows ascending with the model's
// visible version, the maintained counts equal the walked ones, the page
// bookkeeping is exact and an empty store holds no page.
func TestOrderedStoreMatchesModel(t *testing.T) {
	type mv struct {
		ts  uint64
		val int64
	}
	edges := []uint64{0, 1, 510, 511, 512, 513, 1023, 1024, 1025,
		1 << 40, 1<<40 + 511, 1<<40 + 512, 1 << 41, 1<<63 + 5}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		model := make(map[uint64][]mv) // newest first
		clock := uint64(0)
		pick := func() uint64 {
			if r.Intn(2) == 0 {
				return 4*pageRows + uint64(r.Intn(pageRows)) // the hot page
			}
			return edges[r.Intn(len(edges))]
		}
		for step := 0; step < 1500; step++ {
			switch op := r.Intn(10); {
			case op < 6: // install
				row := pick()
				clock++
				v := mv{ts: clock, val: int64(step)}
				if err := s.InstallAt(row, rec(v.val), v.ts); err != nil {
					t.Fatal(err)
				}
				model[row] = append([]mv{v}, model[row]...)
			case op == 6: // a replay at or below the head's timestamp is refused
				row := pick()
				if c := model[row]; len(c) > 0 {
					if err := s.InstallAt(row, rec(-1), c[0].ts); err == nil {
						t.Fatalf("seed %d step %d: out-of-order install on row %d accepted", seed, step, row)
					}
				}
			case op < 9: // forget a batch of rows, some of them absent
				upTo := clock - uint64(r.Intn(4))
				rows := make([]uint64, 1+r.Intn(40))
				for i := range rows {
					rows[i] = pick()
				}
				s.Forget(rows, upTo)
				for _, row := range rows {
					if c := model[row]; len(c) > 0 && c[0].ts <= upTo {
						delete(model, row)
					}
				}
			default: // prune
				minTS := clock - uint64(r.Intn(8))
				s.Prune(minTS)
				for row, c := range model {
					for i, v := range c {
						if v.ts <= minTS {
							c = c[:i+1]
							break
						}
					}
					model[row] = c
				}
			}

			// The walk at the newest and at an older snapshot.
			for _, ts := range []uint64{clock, clock - uint64(r.Intn(16))} {
				var want []visit
				for row, c := range model {
					for _, v := range c {
						if v.ts <= ts {
							want = append(want, visit{row: row, val: v.val, ts: v.ts})
							break
						}
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i].row < want[j].row })
				if got := rangeAt(s, ts); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: walk at ts %d\n got %v\nwant %v", seed, step, ts, got, want)
				}
			}
			versions := 0
			for _, c := range model {
				versions += len(c)
			}
			if liveRows(s) != len(model) || s.Versions() != versions || walkedVersions(s) != versions {
				t.Fatalf("seed %d step %d: Rows %d Versions %d walked %d, model has %d rows %d versions",
					seed, step, liveRows(s), s.Versions(), walkedVersions(s), len(model), versions)
			}
			// Page bookkeeping: the two indexes agree, ascending, no page
			// empty (so a store with no rows holds no page), and each
			// page's bitmap and count say what its heads say.
			if len(s.pages) != len(s.order) {
				t.Fatalf("seed %d step %d: %d pages in the map, %d in order", seed, step, len(s.pages), len(s.order))
			}
			for i, p := range s.order {
				heads := 0
				for j, v := range p.heads {
					if set := p.live[j/64]>>(j%64)&1 == 1; set != (v != nil) {
						t.Fatalf("seed %d step %d: page %d slot %d: bit %v, head %v", seed, step, p.id, j, set, v)
					}
					if v != nil {
						heads++
					}
				}
				if s.pages[p.id] != p || heads != p.n || heads == 0 || i > 0 && s.order[i-1].id >= p.id {
					t.Fatalf("seed %d step %d: page %d at position %d: n %d, %d heads, mapped %v",
						seed, step, p.id, i, p.n, heads, s.pages[p.id] == p)
				}
			}
		}
		// Merged away to the last chain, the store gives every page back.
		var all []uint64
		for row := range model {
			all = append(all, row)
		}
		if s.Forget(all, clock); liveRows(s) != 0 || s.Versions() != 0 || len(s.pages) != 0 || len(s.order) != 0 {
			t.Fatalf("seed %d: emptied store keeps %d rows, %d versions, %d+%d pages",
				seed, liveRows(s), s.Versions(), len(s.pages), len(s.order))
		}
	}
}

// BenchmarkRangeVisible walks a store with 1 k and 16 k live chains
// spread over the bench geometry's 131072 rows.
func BenchmarkRangeVisible(b *testing.B) {
	for _, chains := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprint(chains), func(b *testing.B) {
			s := NewStore()
			const rows = 131072
			for i := 0; i < chains; i++ {
				// An odd multiplier visits chains distinct rows in scattered order.
				row := uint64(i) * 40503 % rows
				if err := s.InstallAt(row, rec(int64(i)), uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				s.RangeVisible(uint64(chains), func(uint64, schema.Record, uint64) bool { n++; return true })
				if n != chains {
					b.Fatalf("visited %d of %d", n, chains)
				}
			}
		})
	}
}

// Forget is conditional: a chain whose newest version is newer than the
// horizon the caller folded up to stays whole.
func TestForgetKeepsNewerVersion(t *testing.T) {
	s := NewStore()
	for _, ts := range []uint64{5, 9} {
		if err := s.InstallAt(1, rec(int64(ts)), ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.InstallAt(2, rec(3), 3); err != nil {
		t.Fatal(err)
	}
	// Row 1 was folded at ts 5 but gained ts 9 since; row 2 is settled;
	// row 3 has no chain.
	s.Forget([]uint64{1, 2, 3}, 5)
	if s.LatestTS(2) != 0 {
		t.Fatal("settled chain kept")
	}
	for _, ts := range []uint64{5, 9} {
		s.AdvanceTo(ts)
		if r, err := s.Begin().Read(1); err != nil || r[0].I != int64(ts) {
			t.Fatalf("refused drop damaged the chain: at ts %d got %v, %v", ts, r, err)
		}
	}
	if s.Versions() != 2 || walkedVersions(s) != 2 {
		t.Fatalf("Versions = %d (walked %d), want 2", s.Versions(), walkedVersions(s))
	}
	if s.Forget([]uint64{1}, 9); s.Versions() != 0 || liveRows(s) != 0 {
		t.Fatalf("drop at the newest version's ts left versions=%d rows=%d", s.Versions(), liveRows(s))
	}
}

func ExampleTx() {
	s := NewStore()
	w := s.Begin()
	w.Write(0, schema.Record{schema.IntValue(42)})
	if err := w.Commit(); err != nil {
		fmt.Println("commit failed:", err)
		return
	}
	r := s.Begin()
	recV, _ := r.Read(0)
	fmt.Println(recV)
	// Output: [42]
}
