package device

import (
	"errors"
	"fmt"
	"sync"

	"hybridstore/internal/mem"
	"hybridstore/internal/obs"
)

// Process-wide cache counters, aggregated across every FragCache the run
// creates (mirrors the device.* transfer counters above).
var (
	mCacheHits   = obs.NewCounter("device.cache.hits")
	mCacheMisses = obs.NewCounter("device.cache.misses")
)

// ErrCachePinned is returned when eviction cannot make room because every
// resident image is pinned by an in-flight scan.
var ErrCachePinned = errors.New("device: cache full of pinned fragments")

// FragKey identifies one cached column image: a (table, fragment, column)
// coordinate plus the [Row0, Row0+Rows) clip of the fragment the image
// covers. The clip is part of the key because exec.ColumnView hands scans
// clipped vectors (MVCC patching, zone pruning); two different clips of
// the same column are distinct device images.
//
// Versions are deliberately NOT part of the key: the cache stores the
// version a resident image was uploaded at and treats a lookup with a
// newer version as a miss that eagerly retires the stale image. Keying by
// version instead would leave every stale image resident until capacity
// pressure found it.
type FragKey struct {
	Table string
	Frag  uint64
	Col   int
	Row0  int
	Rows  int
	// Comp marks an entry holding the column's compressed wire image
	// (compress.Column.Marshal) rather than its dense bytes, so the two
	// forms of the same clip never collide. Compressed entries are sized
	// at the image length, which is how the cache's effective capacity
	// grows by the compression ratio.
	Comp bool
}

// fragRef is the invalidation coordinate: every clip/column image of one
// fragment dies together when the fragment is written.
type fragRef struct {
	Table string
	Frag  uint64
}

type cacheEntry struct {
	key     FragKey
	version uint64
	buf     *Buffer
	size    int64
	pins    int
	// dead marks an entry invalidated while pinned: it is already
	// unlinked from the lookup maps, and the last Release frees it.
	dead bool
	// prev and next link an unpinned entry into its cache's LRU ring;
	// both are nil while the entry is pinned or retired.
	prev, next *cacheEntry
}

// FragCacheStats is a snapshot of one cache's meters.
type FragCacheStats struct {
	Hits, Misses, Evictions int64
	// DupUploads counts acquires that lost a concurrent-miss race: the
	// loser uploaded an image a faster acquirer had already made resident
	// and discarded its own copy. Such an acquire stays a miss (it paid
	// the bus), never a hit. hits+misses always equals total acquires.
	DupUploads    int64
	ResidentBytes int64
	PinnedBytes   int64
	Entries       int
}

// FragCache keeps device-resident images of fragment columns so repeated
// scans over unchanged data cost zero bus bytes — the caching column
// manager of CoGaDB and the hot/cold placement of HyPer, reduced to its
// storage-engine core (paper Section IV-C: "mixed data location"). Images
// are keyed by (table, fragment, column, clip) and stamped with the
// fragment version they were uploaded at; any write to the fragment bumps
// the version (layout.Fragment), so the next lookup misses and re-ships
// exactly that fragment. Capacity comes from the device's own
// mem.Allocator: when an upload hits mem.ErrOutOfMemory the cache evicts
// least-recently-used unpinned images until the allocation fits.
//
// Acquire pins the returned image (refcounted) so concurrent eviction or
// invalidation cannot free a buffer mid-kernel; callers must Release.
// All methods are safe for concurrent use.
type FragCache struct {
	gpu *GPU
	// capBytes, when positive, is an explicit budget below the device
	// allocator's capacity: the cache evicts (and reports ErrCachePinned)
	// once resident images would exceed it, leaving allocator headroom for
	// uncached direct transfers. Zero means allocator-limited (the
	// original behavior). The budget is checked at allocation time, so a
	// burst of concurrent misses may briefly overshoot it; it is a
	// steering wheel, not a hard fence.
	capBytes int64

	mu      sync.Mutex
	entries map[FragKey]*cacheEntry
	byFrag  map[fragRef]map[FragKey]*cacheEntry
	// lru is the sentinel of a ring through the unpinned entries:
	// lru.next is the most recently used, lru.prev the eviction victim.
	// Linking and unlinking rewrite four pointers and allocate nothing.
	lru cacheEntry

	resident int64 // bytes of live images (pinned + unpinned)
	pinned   int64 // bytes of pinned images

	hits, misses, evictions, dupUploads obs.Counter

	// cardHits/cardMisses, when non-nil, mirror hit/miss traffic onto the
	// per-card registry counters (device.<i>.cache.*) an Env wires up, so
	// htapbench -metrics can attribute residency per card.
	cardHits, cardMisses *obs.Counter
}

// NewFragCache creates a cache over the GPU's global memory.
func NewFragCache(g *GPU) *FragCache {
	c := &FragCache{
		gpu:     g,
		entries: make(map[FragKey]*cacheEntry),
		byFrag:  make(map[fragRef]map[FragKey]*cacheEntry),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// NewFragCacheCap creates a cache with an explicit byte budget below the
// allocator's capacity (0 = allocator-limited). Keeping the budget under
// the device memory lets ErrCachePinned scans degrade to uncached direct
// transfers instead of failing outright.
func NewFragCacheCap(g *GPU, capBytes int64) *FragCache {
	c := NewFragCache(g)
	c.capBytes = capBytes
	return c
}

// GPU returns the device this cache populates.
func (c *FragCache) GPU() *GPU { return c.gpu }

// Acquire returns a pinned device image of the keyed column clip at the
// given version. On a hit the image is reused as-is (zero bus bytes); on
// a miss — absent, or resident at an older version — the stale image is
// retired, size bytes are allocated (evicting LRU unpinned images on
// memory pressure), and fill is called once to upload the data. A fill
// that wants transfer/compute overlap can enqueue its copy on a Stream.
//
// The returned Pin must be released after the kernel consuming the
// image completes. It holds the pinned entry, not the key: an image
// invalidated mid-scan is unlinked from the lookup maps immediately but
// stays alive until its release, so a key-based unpin could never
// reach it. A hit allocates nothing.
func (c *FragCache) Acquire(key FragKey, version uint64, size int, fill func(*Buffer) error) (Pin, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.version == version {
			c.pin(e)
			c.mu.Unlock()
			c.hits.Inc()
			mCacheHits.Inc()
			if c.cardHits != nil {
				c.cardHits.Inc()
			}
			return Pin{buf: e.buf, cache: c, e: e}, true, nil
		}
		// Stale image: retire it now rather than letting capacity
		// pressure find it.
		c.retireLocked(e)
	}
	c.mu.Unlock()
	c.misses.Inc()
	mCacheMisses.Inc()
	if c.cardMisses != nil {
		c.cardMisses.Inc()
	}

	buf, err := c.allocEvicting(size)
	if err != nil {
		return Pin{}, false, err
	}
	if err := fill(buf); err != nil {
		buf.Free()
		return Pin{}, false, fmt.Errorf("device: cache fill: %w", err)
	}

	e := &cacheEntry{key: key, version: version, buf: buf, size: int64(size), pins: 1}
	c.mu.Lock()
	if prev, ok := c.entries[key]; ok {
		// A concurrent miss on the same key uploaded first; keep the
		// resident image and drop ours. This acquire already counted its
		// miss and charged the bus for the discarded image, so it is a
		// duplicate upload — never a hit (hits+misses stays equal to the
		// acquire count).
		if prev.version == version {
			c.pin(prev)
			c.mu.Unlock()
			buf.Free()
			c.dupUploads.Inc()
			return Pin{buf: prev.buf, cache: c, e: prev}, false, nil
		}
		c.retireLocked(prev)
	}
	c.entries[key] = e
	ref := fragRef{Table: key.Table, Frag: key.Frag}
	if c.byFrag[ref] == nil {
		c.byFrag[ref] = make(map[FragKey]*cacheEntry)
	}
	c.byFrag[ref][key] = e
	c.resident += e.size
	c.pinned += e.size
	c.mu.Unlock()
	return Pin{buf: buf, cache: c, e: e}, false, nil
}

// Pin holds one device image for as long as a kernel reads it: a pin of
// a cached entry (from Acquire), or a transient buffer no cache owns
// (TransientPin). The zero Pin holds nothing. A Pin is a value — taking
// and releasing one allocates nothing — and is released through one
// copy only.
type Pin struct {
	buf   *Buffer
	cache *FragCache // nil for a transient pin
	e     *cacheEntry
}

// TransientPin hands buf's ownership to a pin: Release frees it. This is
// the direct-transfer image of a piece that never enters a cache.
func TransientPin(buf *Buffer) Pin { return Pin{buf: buf} }

// Buffer returns the pinned image (nil for the zero Pin).
func (p Pin) Buffer() *Buffer { return p.buf }

// Release returns the image — unpins the cache entry, or frees the
// transient buffer — and zeroes the pin, so a second call is a no-op.
func (p *Pin) Release() {
	switch {
	case p.cache != nil:
		p.cache.mu.Lock()
		p.cache.unpinLocked(p.e)
		p.cache.mu.Unlock()
	case p.buf != nil:
		p.buf.Free()
	}
	*p = Pin{}
}

// pin increments the refcount and removes the entry from the LRU (pinned
// images are not eviction candidates). Caller holds c.mu.
func (c *FragCache) pin(e *cacheEntry) {
	if e.pins == 0 {
		e.unlink()
		c.pinned += e.size
	}
	e.pins++
}

// unlink takes e out of the LRU ring if it is in it. Caller holds the
// cache's mu.
func (e *cacheEntry) unlink() {
	if e.next == nil {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// unpinLocked drops one pin from e, returning it to the LRU as the most
// recently used entry when the last pin goes. Releasing the last pin of
// an invalidated (dead) image frees it. Caller holds c.mu.
func (c *FragCache) unpinLocked(e *cacheEntry) {
	e.pins--
	if e.pins > 0 {
		return
	}
	c.pinned -= e.size
	if e.dead {
		e.buf.Free()
		return
	}
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// retireLocked unlinks e from the lookup maps and frees it if unpinned;
// a pinned entry is marked dead and freed by its last Release. Caller
// holds c.mu.
func (c *FragCache) retireLocked(e *cacheEntry) {
	delete(c.entries, e.key)
	ref := fragRef{Table: e.key.Table, Frag: e.key.Frag}
	if m := c.byFrag[ref]; m != nil {
		delete(m, e.key)
		if len(m) == 0 {
			delete(c.byFrag, ref)
		}
	}
	c.resident -= e.size
	if e.pins > 0 {
		e.dead = true
		return
	}
	e.unlink()
	e.buf.Free()
}

// allocEvicting allocates size device bytes, evicting LRU unpinned images
// until the allocation fits — against the explicit byte budget when one is
// set, then against the allocator. ErrCachePinned is returned when nothing
// evictable remains (every resident image is pinned by an in-flight scan),
// so callers can fall back to an uncached direct transfer; other allocator
// errors pass through.
func (c *FragCache) allocEvicting(size int) (*Buffer, error) {
	for {
		if c.capBytes > 0 {
			c.mu.Lock()
			if c.resident+int64(size) > c.capBytes {
				if !c.evictLRULocked() {
					c.mu.Unlock()
					return nil, fmt.Errorf("%w: need %d bytes", ErrCachePinned, size)
				}
				c.mu.Unlock()
				continue
			}
			c.mu.Unlock()
		}
		buf, err := c.gpu.Alloc(size)
		if err == nil {
			return buf, nil
		}
		if !errors.Is(err, mem.ErrOutOfMemory) {
			return nil, err
		}
		c.mu.Lock()
		ok := c.evictLRULocked()
		c.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: need %d bytes", ErrCachePinned, size)
		}
	}
}

// evictLRULocked retires the least-recently-used unpinned image, reporting
// false when none exists. Caller holds c.mu.
func (c *FragCache) evictLRULocked() bool {
	back := c.lru.prev
	if back == &c.lru {
		return false
	}
	c.retireLocked(back)
	c.evictions.Inc()
	return true
}

// InvalidateFrag retires every cached image of one fragment — all columns
// and clips. Write paths call this when a fragment's backing store is
// replaced or freed outright (freeze/regroup, delta merge, compaction);
// in-place writes need no call because they bump the fragment version and
// versions are checked on every Acquire.
func (c *FragCache) InvalidateFrag(table string, frag uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.byFrag[fragRef{Table: table, Frag: frag}] {
		c.retireLocked(e)
	}
}

// InvalidateTable retires every cached image of one table (drop table,
// bulk load).
func (c *FragCache) InvalidateTable(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ref, m := range c.byFrag {
		if ref.Table != table {
			continue
		}
		for _, e := range m {
			c.retireLocked(e)
		}
	}
}

// Stats snapshots the cache meters.
func (c *FragCache) Stats() FragCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return FragCacheStats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load(),
		DupUploads:    c.dupUploads.Load(),
		ResidentBytes: c.resident, PinnedBytes: c.pinned, Entries: len(c.entries),
	}
}
