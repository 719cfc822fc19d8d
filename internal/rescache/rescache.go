// Package rescache is the cross-request query-result cache: a bounded,
// sharded LRU keyed by the normalized read plan (exec.Plan — the plan is
// the key) whose entries are stamped with the base state the executing
// snapshot saw.
//
// Correctness rests on the stamp's producer: a stamp must change
// whenever the bytes a result was computed over may have. core, the one
// producer, stamps with an epoch drawn from a process-wide counter that
// every base mutation advances under the table's exclusive lock, so the
// validity check is one integer compare, no data reads. Invalidation is
// purely passive: a write moves the epoch, the next lookup sees a stale
// stamp, counts it, drops the entry, and the caller recomputes. No
// writer touches the cache, so there is no lock-order risk.
//
// The stamp describes only the base, so what core caches for an
// aggregate is its settled base — the answer before the MVCC patch —
// and each request replays its own snapshot's patch on the copy a hit
// returns. The one query left uncacheable is a point read of a row with
// live delta versions; callers report it via Bypass so the accounting
// invariant hits + misses == lookups holds for every query that
// consulted the cache, cacheable or not.
package rescache

import (
	"container/list"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hybridstore/internal/exec"
)

// Key identifies a cacheable query: the read plan itself, normalized
// (exec.Plan.Normalize) so that semantically identical spellings share
// an entry. Value is the plan's result. A stored value is immutable:
// Put copies Groups and Rec in, Lookup copies them out, and Peek hands
// out the entry's own, which its caller reads and never writes.
type (
	Key   = exec.Plan
	Value = exec.Result
)

// The plan kinds under the names cache callers key on.
const (
	OpSum           = exec.KindSum
	OpSumWhere      = exec.KindSumWhere
	OpGroupSum      = exec.KindGroupSum
	OpGroupSumWhere = exec.KindGroupSumWhere
	OpGet           = exec.KindGet
)

// cacheable reports whether the key may be stored. NaN predicate
// bounds never compare equal to themselves, which would make the map
// entry unreachable by any future lookup — refuse it up front.
func cacheable(k Key) bool {
	return !k.HasPred || (k.Pred.Lo == k.Pred.Lo && k.Pred.Hi == k.Pred.Hi)
}

// FragVer is an identity and a write version.
type FragVer struct {
	// ID is the process-globally unique fragment ID.
	ID uint64
	// Ver is the fragment's write version at stamp time.
	Ver uint64
}

// Stamp names the base state a result was computed over: two stamps are
// equal only while that state is. A stamp is immutable once built: its
// producer hands the same Frags to every request that sees the same
// base state, and every entry stored under it shares that backing
// array, so nothing may write to a Stamp's Frags after building it.
// core's stamps are one FragVer carrying an epoch, and leave Rows zero:
// every insert moves the epoch.
type Stamp struct {
	// Rows is the table's row count at stamp time.
	Rows uint64
	// Frags are (ID, Version) pairs that change whenever the base does.
	Frags []FragVer
}

// Equal reports whether two stamps describe the same base state.
func (s Stamp) Equal(o Stamp) bool { return s.Rows == o.Rows && slices.Equal(s.Frags, o.Frags) }

// Stats is a point-in-time snapshot of one cache's accounting. Stale
// is a subset of Misses, so Hits + Misses == Lookups always holds.
type Stats struct {
	Lookups   int64
	Hits      int64
	Misses    int64
	Stale     int64
	Evictions int64
	Puts      int64
	Bytes     int64
	Entries   int64
}

const numShards = 16

type entry struct {
	key   Key
	stamp Stamp
	val   Value
	bytes int64
	elem  *list.Element
}

type shard struct {
	mu    sync.Mutex
	m     map[Key]*entry
	lru   list.List // front = most recently used
	bytes int64
}

// Cache is a bounded, sharded, version-stamped LRU result cache. The
// zero value is not usable; call New.
type Cache struct {
	capBytes int64 // per-shard budget
	shards   [numShards]shard

	lookups   atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	stale     atomic.Int64
	evictions atomic.Int64
	puts      atomic.Int64
	bytes     atomic.Int64
	entries   atomic.Int64
}

// New builds a cache bounded at capBytes total: entries live until their
// stamp goes stale or they are evicted. The stamp alone carries
// correctness — core, the one stamp producer, moves its epoch on every
// base mutation. A cache of capBytes <= 0 holds nothing: every entry is
// over its budget.
// The second parameter is unused; it stays because bench/ passes it.
func New(capBytes int64, _ time.Duration) *Cache {
	c := &Cache{capBytes: (capBytes + numShards - 1) / numShards}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]*entry)
		c.shards[i].lru.Init()
	}
	return c
}

// shardFor hashes the key (FNV-1a over every dimension) to a shard.
// FNV-1a's multiply never carries high bits down, and the float64 bits
// of a round predicate bound are zero below bit 42, so the high bits
// fold into the low byte before the modulus reads it — or every
// dashboard with integer cuts lands in one shard.
func (c *Cache) shardFor(k Key) *shard {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(k.Table); i++ {
		h = (h ^ uint64(k.Table[i])) * prime
	}
	for i := 0; i < len(k.Op); i++ {
		h = (h ^ uint64(k.Op[i])) * prime
	}
	h = (h ^ uint64(uint32(k.Col))) * prime
	h = (h ^ uint64(uint32(k.KeyCol))) * prime
	h = (h ^ k.Row) * prime
	if k.HasPred {
		h = (h ^ uint64(k.Pred.Op+1)) * prime
		h = (h ^ math.Float64bits(k.Pred.Lo)) * prime
		h = (h ^ math.Float64bits(k.Pred.Hi)) * prime
	}
	h ^= h >> 32
	h ^= h >> 16
	h ^= h >> 8
	return &c.shards[h%numShards]
}

// sizeOf estimates an entry's resident bytes. It only needs to be
// proportional and stable, not exact: it bounds memory and prices
// eviction, nothing else.
func sizeOf(k Key, st Stamp, v Value) int64 {
	n := int64(len(k.Table)) + 96
	n += int64(len(st.Frags)) * 16
	n += int64(len(v.Groups)) * 24
	n += int64(len(v.Rec)) * 32
	return n
}

// Lookup consults the cache. cur must be the stamp of the base state
// the caller's current snapshot sees: a stored entry answers only if
// its stamp equals cur. A stale entry is dropped on the spot and counted
// as a stale miss. A hit is the caller's own copy.
func (c *Cache) Lookup(k Key, cur Stamp) (Value, bool) {
	v, ok := c.probe(k, cur, true)
	v.Rec = slices.Clone(v.Rec)
	v.Groups = slices.Clone(v.Groups)
	return v, ok
}

// Peek is the serving-path pre-check flavor of Lookup: a hit counts
// (and refreshes the LRU) exactly like Lookup, but a miss records no
// lookup — the caller is about to fall through to the executing path,
// whose own Lookup finds the key absent and records the one logical
// query's lookup and miss. A stale entry is dropped here and counted
// stale only, so that miss is the one it belongs to. A hit is the
// entry's own value, not a copy: read-only.
func (c *Cache) Peek(k Key, cur Stamp) (Value, bool) { return c.probe(k, cur, false) }

// probe is the one lookup body; counting selects whether a miss — an
// absent or a stale entry — is accounted as a lookup and a miss. A hit
// is the entry's own value.
func (c *Cache) probe(k Key, cur Stamp, counting bool) (Value, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.m[k]
	if ok && !e.stamp.Equal(cur) {
		s.removeLocked(e)
		c.entries.Add(-1)
		c.bytes.Add(-e.bytes)
		c.stale.Add(1)
		ok = false
	}
	if !ok {
		s.mu.Unlock()
		if counting {
			c.Bypass()
		}
		return Value{}, false
	}
	s.lru.MoveToFront(e.elem)
	v := e.val
	s.mu.Unlock()
	c.lookups.Add(1)
	c.hits.Add(1)
	return v, true
}

// Bypass records a query that consulted the cache but was uncacheable
// (a point read of a row with live delta versions), or a Peek miss its
// caller answers itself. It counts one lookup and one miss so the
// hits + misses == lookups invariant covers the whole serving path.
func (c *Cache) Bypass() {
	c.lookups.Add(1)
	c.misses.Add(1)
}

// Put stores a copy of a result computed over the base state st and
// returns that copy, read-only: a caller whose v is transient (a stack
// buffer) keeps the one heap copy Put made. v's contents do not escape.
// Oversized entries (larger than a full shard budget) are refused rather
// than flushing everything else.
func (c *Cache) Put(k Key, st Stamp, v Value) Value {
	// Field by field, never through v itself, so that v's slices stay
	// the caller's (a stored v would move a stack buffer to the heap).
	val := Value{Sum: v.Sum, Count: v.Count, Groups: slices.Clone(v.Groups), Rec: slices.Clone(v.Rec)}
	if !cacheable(k) {
		return val
	}
	bytes := sizeOf(k, st, val)
	if bytes > c.capBytes {
		return val
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if old, ok := s.m[k]; ok {
		s.removeLocked(old)
		c.entries.Add(-1)
		c.bytes.Add(-old.bytes)
	}
	e := &entry{key: k, stamp: st, val: val, bytes: bytes}
	e.elem = s.lru.PushFront(e)
	s.m[k] = e
	s.bytes += bytes
	var evictedBytes int64
	var evicted int64
	for s.bytes > c.capBytes {
		back := s.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		s.removeLocked(victim)
		evictedBytes += victim.bytes
		evicted++
	}
	s.mu.Unlock()
	c.puts.Add(1)
	c.entries.Add(1 - evicted)
	c.bytes.Add(bytes - evictedBytes)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
	return val
}

// removeLocked unlinks e from the shard's map, list and byte count.
// Caller holds s.mu and settles the cache-level accounting.
func (s *shard) removeLocked(e *entry) {
	delete(s.m, e.key)
	s.lru.Remove(e.elem)
	s.bytes -= e.bytes
}

// Stats snapshots the cache's accounting.
func (c *Cache) Stats() Stats {
	return Stats{
		Lookups:   c.lookups.Load(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stale:     c.stale.Load(),
		Evictions: c.evictions.Load(),
		Puts:      c.puts.Load(),
		Bytes:     c.bytes.Load(),
		Entries:   c.entries.Load(),
	}
}
