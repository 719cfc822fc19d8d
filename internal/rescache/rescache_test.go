package rescache

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"hybridstore/internal/exec"
	"hybridstore/internal/schema"
	"hybridstore/internal/server/loadgen"
)

func stamp(rows uint64, frags ...FragVer) Stamp {
	return Stamp{Rows: rows, Frags: frags}
}

func checkInvariant(t *testing.T, c *Cache) {
	t.Helper()
	s := c.Stats()
	if s.Hits+s.Misses != s.Lookups {
		t.Fatalf("hits(%d) + misses(%d) != lookups(%d)", s.Hits, s.Misses, s.Lookups)
	}
	if s.Stale > s.Misses {
		t.Fatalf("stale(%d) > misses(%d): stale must be a subset of misses", s.Stale, s.Misses)
	}
}

func TestHitRequiresEqualStamp(t *testing.T) {
	c := New(1<<20, 0)
	k := Key{Table: "item", Op: OpSumWhere, Col: 4, Pred: exec.Eq(9.5), HasPred: true}
	st := stamp(100, FragVer{ID: 1, Ver: 0}, FragVer{ID: 2, Ver: 3})

	if _, ok := c.Lookup(k, st); ok {
		t.Fatal("lookup on empty cache hit")
	}
	c.Put(k, st, Value{Sum: 42.5, Count: 7})

	v, ok := c.Lookup(k, st)
	if !ok {
		t.Fatal("expected hit with equal stamp")
	}
	if v.Sum != 42.5 || v.Count != 7 {
		t.Fatalf("got %+v", v)
	}

	// A version bump anywhere in the vector invalidates.
	bumped := stamp(100, FragVer{ID: 1, Ver: 0}, FragVer{ID: 2, Ver: 4})
	if _, ok := c.Lookup(k, bumped); ok {
		t.Fatal("hit against a bumped fragment version")
	}
	// The stale entry was dropped: even the original stamp misses now.
	if _, ok := c.Lookup(k, st); ok {
		t.Fatal("stale entry was not dropped")
	}

	s := c.Stats()
	if s.Hits != 1 || s.Stale != 1 || s.Misses != 3 || s.Lookups != 4 {
		t.Fatalf("stats %+v", s)
	}
	checkInvariant(t, c)
}

func TestStampEqualDimensions(t *testing.T) {
	base := Stamp{Rows: 10, Frags: []FragVer{{1, 0}, {2, 1}}}
	same := Stamp{Rows: 10, Frags: []FragVer{{1, 0}, {2, 1}}}
	if !base.Equal(same) {
		t.Fatal("identical stamps unequal")
	}
	for _, o := range []Stamp{
		{Rows: 11, Frags: []FragVer{{1, 0}, {2, 1}}}, // rows moved
		{Rows: 10, Frags: []FragVer{{1, 0}}},         // fragment count
		{Rows: 10, Frags: []FragVer{{1, 0}, {3, 1}}}, // replaced ID
		{Rows: 10, Frags: []FragVer{{1, 0}, {2, 2}}}, // bumped version
	} {
		if base.Equal(o) {
			t.Fatalf("stamp %+v compared equal to %+v", o, base)
		}
	}
}

func TestEvictionBoundsBytes(t *testing.T) {
	// Cap small enough that a few entries overflow a shard. Keys on
	// the same table with different rows spread over shards, so drive
	// one shard deterministically by reusing one key shape with
	// varying predicates... simpler: use a tiny total cap and insert
	// many entries; total bytes must stay under cap and evictions
	// must be counted.
	const cap = 16 << 10
	c := New(cap, 0)
	st := stamp(1, FragVer{ID: 1, Ver: 0})
	for i := 0; i < 4096; i++ {
		k := Key{Table: "t", Op: OpGet, Row: uint64(i)}
		c.Put(k, st, Value{Rec: schema.Record{schema.FloatValue(float64(i))}})
	}
	s := c.Stats()
	if s.Bytes > cap {
		t.Fatalf("resident bytes %d exceed cap %d", s.Bytes, cap)
	}
	if s.Evictions == 0 {
		t.Fatal("expected evictions under a tiny cap")
	}
	if s.Entries <= 0 {
		t.Fatalf("entries gauge %d", s.Entries)
	}
	// LRU: the most recently inserted key must still be resident.
	if _, ok := c.Lookup(Key{Table: "t", Op: OpGet, Row: 4095}, st); !ok {
		t.Fatal("most recent entry was evicted")
	}
	checkInvariant(t, c)
}

func TestPutReplaceSameKey(t *testing.T) {
	c := New(1<<20, 0)
	k := Key{Table: "t", Op: OpSum, Col: 2}
	st1 := stamp(10, FragVer{ID: 1, Ver: 0})
	st2 := stamp(11, FragVer{ID: 1, Ver: 1})
	c.Put(k, st1, Value{Sum: 1})
	c.Put(k, st2, Value{Sum: 2})
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("replace left %d entries", s.Entries)
	}
	v, ok := c.Lookup(k, st2)
	if !ok || v.Sum != 2 {
		t.Fatalf("got %+v ok=%v, want the replacement", v, ok)
	}
	if _, ok := c.Lookup(k, st1); ok {
		t.Fatal("old stamp still answers after replace")
	}
	checkInvariant(t, c)
}

func TestBypassAccounting(t *testing.T) {
	c := New(1<<20, 0)
	c.Bypass()
	c.Bypass()
	s := c.Stats()
	if s.Lookups != 2 || s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("stats %+v", s)
	}
	checkInvariant(t, c)
}

func TestNaNPredicateRefused(t *testing.T) {
	c := New(1<<20, 0)
	k := Key{Table: "t", Op: OpSumWhere, Col: 1, Pred: exec.Pred{Op: exec.OpBetween, Lo: math.NaN(), Hi: 1}, HasPred: true}
	if cacheable(k) {
		t.Fatal("NaN-bounded key reported cacheable")
	}
	c.Put(k, stamp(1, FragVer{ID: 1, Ver: 0}), Value{Sum: 1})
	if s := c.Stats(); s.Puts != 0 || s.Entries != 0 {
		t.Fatalf("NaN key was stored: %+v", s)
	}
}

func TestRecordsDoNotAlias(t *testing.T) {
	c := New(1<<20, 0)
	k := Key{Table: "t", Op: OpGet, Row: 3}
	st := stamp(4, FragVer{ID: 1, Ver: 0})
	rec := schema.Record{schema.FloatValue(1.5)}
	c.Put(k, st, Value{Rec: rec})
	rec[0] = schema.FloatValue(-9) // caller scribbles on its copy after Put

	got, ok := c.Lookup(k, st)
	if !ok {
		t.Fatal("miss")
	}
	if got.Rec[0] != schema.FloatValue(1.5) {
		t.Fatalf("cached record aliased the caller's slice: %v", got.Rec)
	}
	got.Rec[0] = schema.FloatValue(-7) // reader scribbles on its copy

	again, ok := c.Lookup(k, st)
	if !ok || again.Rec[0] != schema.FloatValue(1.5) {
		t.Fatalf("cached record aliased a reader's copy: %v ok=%v", again.Rec, ok)
	}
}

func TestOversizedEntryRefused(t *testing.T) {
	c := New(1024, 0) // 64 B per shard
	groups := make([]exec.GroupResult, 1024)
	c.Put(Key{Table: "t", Op: OpGroupSum, Col: 1}, stamp(1), Value{Groups: groups})
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("oversized entry stored: %+v", s)
	}
}

// A cache of no capacity stores nothing and answers every lookup with
// a miss; there is no default budget behind a zero.
func TestZeroCapacityHoldsNothing(t *testing.T) {
	for _, capBytes := range []int64{0, -1} {
		c := New(capBytes, 0)
		k := Key{Table: "t", Op: OpSum, Col: 1}
		c.Put(k, stamp(1), Value{Sum: 1, Count: 1})
		if _, ok := c.Lookup(k, stamp(1)); ok || c.Stats().Entries != 0 {
			t.Fatalf("cap %d: stored an entry: %+v", capBytes, c.Stats())
		}
	}
}

func TestPeekAccounting(t *testing.T) {
	c := New(1<<20, 0)
	k := Key{Table: "item", Op: OpSum, Col: 2}
	st := stamp(10, FragVer{ID: 1, Ver: 1})

	// Plain absence counts NOTHING: the caller falls through to the
	// executing path, whose own Lookup records the one logical miss.
	if _, ok := c.Peek(k, st); ok {
		t.Fatal("peek on empty cache hit")
	}
	if s := c.Stats(); s.Lookups != 0 || s.Misses != 0 {
		t.Fatalf("absence was counted: %+v", s)
	}

	c.Put(k, st, Value{Sum: 5})
	v, ok := c.Peek(k, st)
	if !ok || v.Sum != 5 {
		t.Fatalf("peek hit: ok=%v v=%+v", ok, v)
	}
	if s := c.Stats(); s.Lookups != 1 || s.Hits != 1 {
		t.Fatalf("hit not counted: %+v", s)
	}

	// A stale entry is dropped and counted stale, and nothing else: the
	// executing path's own Lookup then finds the key absent and records
	// this logical query's one lookup and one miss.
	bumped := stamp(10, FragVer{ID: 1, Ver: 2})
	if _, ok := c.Peek(k, bumped); ok {
		t.Fatal("peek hit a stale entry")
	}
	s := c.Stats()
	if s.Lookups != 1 || s.Hits != 1 || s.Misses != 0 || s.Stale != 1 {
		t.Fatalf("stale peek accounting: %+v", s)
	}
	if s.Entries != 0 {
		t.Fatalf("stale entry not dropped: %+v", s)
	}
	if _, ok := c.Lookup(k, bumped); ok {
		t.Fatal("lookup after a stale peek hit")
	}
	if s := c.Stats(); s.Lookups != 2 || s.Hits != 1 || s.Misses != 1 || s.Stale != 1 {
		t.Fatalf("stale peek then executing lookup: %+v, want 2 lookups / 1 hit / 1 miss / 1 stale", s)
	}
	checkInvariant(t, c)
}

func TestConcurrentMixedUse(t *testing.T) {
	c := New(256<<10, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{Table: fmt.Sprintf("t%d", i%7), Op: OpSumWhere, Col: i % 3,
					Pred: exec.Gt(float64(i % 11)), HasPred: true}
				st := stamp(uint64(i%13), FragVer{ID: uint64(i % 5), Ver: uint64(i % 2)})
				if v, ok := c.Lookup(k, st); ok {
					if v.Sum != float64(i%11)+1 {
						// A different stamp generation may have stored a
						// different sum — but only under a different stamp,
						// and Lookup matched ours, so the sum is pinned.
						t.Errorf("worker %d: hit returned %v for pred %v", w, v.Sum, k.Pred)
						return
					}
				} else {
					c.Put(k, st, Value{Sum: float64(i%11) + 1})
				}
				if i%17 == 0 {
					c.Bypass()
				}
			}
		}(w)
	}
	wg.Wait()
	checkInvariant(t, c)
}

// TestShardOccupancyRoundBounds: the keys a dashboard produces — the
// load generator's predicate cuts, slid over 1000 integer offsets — must
// spread over the shards. Round float64 bounds differ only in their top
// bits, which a plain `hash % 16` of FNV-1a never sees: every such key
// used to share one shard, its mutex and a sixteenth of the capacity.
func TestShardOccupancyRoundBounds(t *testing.T) {
	c := New(1<<20, 0)
	perShard := map[*shard]int{}
	keys := 0
	for _, cut := range loadgen.PredCuts {
		for i := 0; i < 1000; i++ {
			p := cut.Pred
			p.Lo, p.Hi = p.Lo+float64(i), p.Hi+float64(i)
			perShard[c.shardFor(Key{Table: "item", Op: exec.KindSumWhere, Col: 4, Pred: exec.Normalize(p), HasPred: true})]++
			keys++
		}
	}
	if len(perShard) < 12 {
		t.Errorf("%d integer-bounded keys occupy %d of %d shards, want at least 12", keys, len(perShard), numShards)
	}
	for _, n := range perShard {
		if n > 3*keys/numShards {
			t.Errorf("one shard holds %d of %d keys, more than 3x the mean %d", n, keys, keys/numShards)
		}
	}
}

// TestLRUEvictsLeastRecentAndReusesEntries drives one shard holding two
// entries: a put evicts the least recently used (a Peek counts as a use),
// the evicted entry's storage takes the next put — which then allocates
// only its copy of the value — and a value handed out before the
// eviction keeps its groups.
func TestLRUEvictsLeastRecentAndReusesEntries(t *testing.T) {
	c := New(numShards*450, 0)
	st := stamp(1, FragVer{ID: 1, Ver: 0})
	// Keys of one shard, each entry 209 bytes: two fit its 450.
	var keys []Key
	for row := uint64(0); len(keys) < 8; row++ {
		if k := (Key{Table: "t", Op: OpGet, Row: row}); c.shardFor(k) == &c.shards[0] {
			keys = append(keys, k)
		}
	}
	val := func(i int) Value {
		g := exec.GroupResult{Key: int64(i), Sum: float64(i), Count: 1}
		return Value{Groups: []exec.GroupResult{g, g, g, g}}
	}
	c.Put(keys[0], st, val(0))
	c.Put(keys[1], st, val(1))
	held, ok := c.Peek(keys[0], st) // keys[1] is now the least recent
	if !ok {
		t.Fatal("keys[0] missing before any eviction")
	}
	c.Put(keys[2], st, val(2))
	if _, ok := c.Peek(keys[1], st); ok {
		t.Fatal("the least recently used entry survived")
	}
	for _, i := range []int{0, 2} {
		if v, ok := c.Peek(keys[i], st); !ok || v.Groups[0].Key != int64(i) {
			t.Fatalf("keys[%d]: %+v, %v", i, v, ok)
		}
	}
	c.Put(keys[3], st, val(3)) // evicts keys[0], whose value is held
	if _, ok := c.Peek(keys[0], st); ok {
		t.Fatal("keys[0] survived two newer puts")
	}
	for _, g := range held.Groups {
		if g.Key != 0 || g.Sum != 0 {
			t.Fatalf("a value handed out before its eviction changed: %+v", held.Groups)
		}
	}
	i := 4
	v := val(4)
	if n := testing.AllocsPerRun(100, func() {
		c.Put(keys[i%len(keys)], st, v)
		i++
	}); n != 1 {
		t.Errorf("a put into a full shard allocates %.1f times, want 1 (the value's copy)", n)
	}
	if s := c.Stats(); s.Entries != 2 || s.Bytes != 2*209 {
		t.Fatalf("after the puts: %d entries, %d bytes; want 2 and %d", s.Entries, s.Bytes, 2*209)
	}
	checkInvariant(t, c)
}
