// Package rescache is the cross-request query-result cache: a bounded,
// sharded LRU keyed by the normalized read plan (exec.Plan — the plan is
// the key) whose entries are stamped with the fragment-version vector
// the executing snapshot saw.
//
// Correctness rests on a property the storage layer already provides:
// fragment IDs are process-globally unique and fragment versions are
// bumped on every in-place mutation, so the vector of (ID, Version)
// pairs a scan folded is a complete fingerprint of the bytes it read.
// A cached result is valid exactly while that vector is unchanged —
// the validity check is O(#fragments) integer compares, no data reads.
// Invalidation is purely passive: a write bumps a version (or replaces
// a fragment, changing its ID), the next lookup sees a stale stamp,
// counts it, drops the entry, and the caller recomputes. There are no
// write-path hooks and therefore no lock-order risk.
//
// Queries whose snapshot overlaps hot MVCC deltas are uncacheable (the
// delta store has no version vector); callers report them via Bypass so
// the accounting invariant hits + misses == lookups holds for every
// query that consulted the cache, cacheable or not.
package rescache

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hybridstore/internal/exec"
)

// Key identifies a cacheable query: the read plan itself, normalized
// (exec.Plan.Normalize) so that semantically identical spellings share
// an entry. Value is the plan's result; Groups and Rec are cloned on
// both Put and hit so no caller can alias (and later scribble on) the
// cached copy.
type (
	Key   = exec.Plan
	Value = exec.Result
)

// The plan kinds under the names cache callers key on. Sum-where and
// count-where share OpSumWhere: they differ only in which field of the
// shared Value the caller reads.
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

// FragVer is one fragment's identity and write version.
type FragVer struct {
	// ID is the process-globally unique fragment ID.
	ID uint64
	// Ver is the fragment's write version at stamp time.
	Ver uint64
}

// Stamp is the fragment-version vector a result was computed over,
// together with the row count. A stamp is immutable once built: its
// producer hands the same Frags to every request that sees the same
// base state, and every entry stored under it shares that backing
// array, so nothing may write to a Stamp's Frags after building it.
type Stamp struct {
	// Rows is the table's row count at stamp time.
	Rows uint64
	// Frags are the (ID, Version) pairs of every fragment the
	// executing snapshot folded, in walk order.
	Frags []FragVer
}

// Equal reports whether two stamps describe the same base state.
func (s Stamp) Equal(o Stamp) bool {
	if s.Rows != o.Rows || len(s.Frags) != len(o.Frags) {
		return false
	}
	for i, f := range s.Frags {
		if f != o.Frags[i] {
			return false
		}
	}
	return true
}

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

// New builds a cache bounded at capBytes total: entries live until a
// version bump or eviction. The stamp alone carries correctness — core,
// the one stamp producer, bumps a fragment version on every mutation.
// The second parameter is unused; it stays because bench/ passes it.
func New(capBytes int64, _ time.Duration) *Cache {
	if capBytes <= 0 {
		capBytes = 64 << 20
	}
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

// Lookup consults the cache. cur must be the fragment-version vector
// the caller's current snapshot sees: a stored entry answers only if
// its stamp equals cur. A stale entry is dropped on the spot and counted
// as a stale miss.
func (c *Cache) Lookup(k Key, cur Stamp) (Value, bool) { return c.probe(k, cur, true) }

// Peek is the serving-path pre-check flavor of Lookup: a hit counts
// (and refreshes the LRU) exactly like Lookup, but a miss records no
// lookup — the caller is about to fall through to the executing path,
// whose own Lookup finds the key absent and records the one logical
// query's lookup and miss. A stale entry is dropped here and counted
// stale only, so that miss is the one it belongs to.
func (c *Cache) Peek(k Key, cur Stamp) (Value, bool) { return c.probe(k, cur, false) }

// probe is the one lookup body; counting selects whether a miss — an
// absent or a stale entry — is accounted as a lookup and a miss.
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
	if v.Rec != nil {
		v.Rec = v.Rec.Clone()
	}
	if v.Groups != nil {
		v.Groups = append([]exec.GroupResult(nil), v.Groups...)
	}
	c.lookups.Add(1)
	c.hits.Add(1)
	return v, true
}

// Bypass records a query that consulted the cache but was uncacheable
// (hot MVCC deltas in its snapshot, non-cacheable key). It counts one
// lookup and one miss so the hits + misses == lookups invariant covers
// the whole serving path.
func (c *Cache) Bypass() {
	c.lookups.Add(1)
	c.misses.Add(1)
}

// Put stores a result computed over the base state st. Oversized
// entries (larger than a full shard budget) are refused rather than
// flushing everything else. The stored Rec is deep-cloned.
func (c *Cache) Put(k Key, st Stamp, v Value) {
	if !cacheable(k) {
		return
	}
	if v.Rec != nil {
		v.Rec = v.Rec.Clone()
	}
	if v.Groups != nil {
		v.Groups = append([]exec.GroupResult(nil), v.Groups...)
	}
	bytes := sizeOf(k, st, v)
	if bytes > c.capBytes {
		return
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if old, ok := s.m[k]; ok {
		s.removeLocked(old)
		c.entries.Add(-1)
		c.bytes.Add(-old.bytes)
	}
	e := &entry{key: k, stamp: st, val: v, bytes: bytes}
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
