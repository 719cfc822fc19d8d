package device

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"hybridstore/internal/perfmodel"
)

// smallGPU returns a device with room for only a few cached images, so
// eviction paths trigger without gigabyte allocations.
func smallGPU(capacity int64) *GPU {
	prof := perfmodel.DefaultDevice()
	prof.GlobalMemory = capacity
	var clk perfmodel.Clock
	return New(prof, &clk)
}

func hostFloats(n int) []byte {
	b := make([]byte, n*8)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(float64(i)))
	}
	return b
}

func acquireUpload(t *testing.T, c *FragCache, key FragKey, version uint64, data []byte) (Pin, bool) {
	t.Helper()
	pin, hit, err := c.Acquire(key, version, len(data), func(b *Buffer) error {
		return c.gpu.CopyToDevice(b, 0, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	return pin, hit
}

// PinHits looks a table's name up once per run of requests naming it,
// and the runs may interleave, name the empty table or a table nothing
// was cached under: each request still hits exactly when its own image
// is resident at its version.
func TestPinHitsAcrossTableNames(t *testing.T) {
	g, _ := newGPU()
	c := NewFragCache(g)
	data := hostFloats(8)
	for _, table := range []string{"a", "", "b"} {
		pin, _ := acquireUpload(t, c, FragKey{Table: table, Frag: 1, Rows: 8}, 1, data)
		pin.Release()
	}
	reqs := []CacheReq{
		{Key: FragKey{Table: "", Frag: 1, Rows: 8}, Version: 1},
		{Key: FragKey{Table: "a", Frag: 1, Rows: 8}, Version: 1},
		{Key: FragKey{Table: "a", Frag: 2, Rows: 8}, Version: 1},
		{Key: FragKey{Table: "b", Frag: 1, Rows: 8}, Version: 2},
		{Key: FragKey{Table: "c", Frag: 1, Rows: 8}, Version: 1},
		{Key: FragKey{Table: "b", Frag: 1, Rows: 8}, Version: 1},
		{Key: FragKey{Table: "", Frag: 0, Rows: 8}, Version: 1},
		{Key: FragKey{Table: "", Frag: 1, Rows: 8}, Version: 1},
	}
	want := []bool{true, true, false, false, false, true, false, true}
	pins := make([]Pin, len(reqs))
	before := c.Stats().Hits
	c.PinHits(reqs, pins)
	defer ReleasePins(pins)
	for i, w := range want {
		if got := pins[i].Buffer() != nil; got != w {
			t.Errorf("request %d (%+v): hit %v, want %v", i, reqs[i], got, w)
		}
	}
	if hits := c.Stats().Hits - before; hits != 4 {
		t.Errorf("%d hits counted, want 4", hits)
	}
}

func TestCacheHitCostsZeroBusBytes(t *testing.T) {
	g, _ := newGPU()
	c := NewFragCache(g)
	key := FragKey{Table: "item", Frag: 1, Col: 0, Row0: 0, Rows: 1000}
	data := hostFloats(1000)

	pin, hit := acquireUpload(t, c, key, 7, data)
	if hit {
		t.Fatal("first Acquire reported a hit")
	}
	pin.Release()
	shipped := g.Stats().HostToDeviceBytes

	pin, hit = acquireUpload(t, c, key, 7, data)
	buf := pin.Buffer()
	if !hit {
		t.Fatal("second Acquire at the same version missed")
	}
	if g.Stats().HostToDeviceBytes != shipped {
		t.Errorf("hit shipped %d extra H2D bytes, want 0", g.Stats().HostToDeviceBytes-shipped)
	}
	// The cached image is usable as a kernel operand.
	v := Vec{Buf: buf, Stride: 8, Size: 8, Len: 1000}
	got, err := reduceSum(g, v, LaunchConfig{Blocks: 8, ThreadsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(999) * 1000 / 2; got != want {
		t.Errorf("reduce over cached image = %v, want %v", got, want)
	}
	pin.Release()
	pin.Release() // idempotent

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.PinnedBytes != 0 {
		t.Errorf("pinned = %d after pin, want 0", st.PinnedBytes)
	}
}

func TestCacheVersionBumpRetiresStaleImage(t *testing.T) {
	g, _ := newGPU()
	c := NewFragCache(g)
	key := FragKey{Table: "item", Frag: 2, Col: 1, Rows: 64}
	data := hostFloats(64)

	pin, _ := acquireUpload(t, c, key, 1, data)
	pin.Release()
	used := g.Allocator().Used()

	pin, hit := acquireUpload(t, c, key, 2, data)
	if hit {
		t.Fatal("Acquire at a newer version hit the stale image")
	}
	pin.Release()
	if g.Allocator().Used() != used {
		t.Errorf("stale image leaked: used %d -> %d", used, g.Allocator().Used())
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 entry / 2 misses", st)
	}
}

func TestCacheClipsAreDistinctImages(t *testing.T) {
	g, _ := newGPU()
	c := NewFragCache(g)
	whole := FragKey{Table: "item", Frag: 3, Col: 0, Row0: 0, Rows: 100}
	clip := FragKey{Table: "item", Frag: 3, Col: 0, Row0: 50, Rows: 50}

	pinWhole, _ := acquireUpload(t, c, whole, 1, hostFloats(100))
	pinClip, hit := acquireUpload(t, c, clip, 1, hostFloats(50))
	if hit {
		t.Fatal("a different clip of the same column hit")
	}
	pinWhole.Release()
	pinClip.Release()
	if st := c.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d, want 2 distinct clip images", st.Entries)
	}
}

func TestCacheEvictsLRUUnderPressure(t *testing.T) {
	const img = 1 << 20
	g := smallGPU(2*img + img/2) // room for two images, not three
	c := NewFragCache(g)
	data := make([]byte, img)
	k1 := FragKey{Table: "t", Frag: 1, Rows: 1}
	k2 := FragKey{Table: "t", Frag: 2, Rows: 1}
	k3 := FragKey{Table: "t", Frag: 3, Rows: 1}

	pin, _ := acquireUpload(t, c, k1, 1, data)
	pin.Release()
	pin, _ = acquireUpload(t, c, k2, 1, data)
	pin.Release()
	// Touch k1 so k2 becomes the LRU victim.
	pin, hit := acquireUpload(t, c, k1, 1, data)
	if !hit {
		t.Fatal("warm k1 missed")
	}
	pin.Release()

	pin, _ = acquireUpload(t, c, k3, 1, data)
	pin.Release()
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	pin, hit = acquireUpload(t, c, k1, 1, data)
	if !hit {
		t.Error("k1 was evicted; expected k2 (the LRU entry) to go")
	}
	pin.Release()
}

func TestCacheAllPinnedRefusesEviction(t *testing.T) {
	const img = 1 << 20
	g := smallGPU(img + img/2)
	c := NewFragCache(g)
	data := make([]byte, img)
	k1 := FragKey{Table: "t", Frag: 1, Rows: 1}

	pin, _ := acquireUpload(t, c, k1, 1, data) // still pinned
	_, _, err := c.Acquire(FragKey{Table: "t", Frag: 2, Rows: 1}, 1, img, func(*Buffer) error { return nil })
	if !errors.Is(err, ErrCachePinned) {
		t.Fatalf("err = %v, want ErrCachePinned", err)
	}
	pin.Release()

	// With the pin gone the same allocation succeeds by evicting k1.
	pin2, _, err := c.Acquire(FragKey{Table: "t", Frag: 2, Rows: 1}, 1, img, func(*Buffer) error { return nil })
	if err != nil {
		t.Fatalf("post-pin Acquire: %v", err)
	}
	pin2.Release()
}

func TestCacheInvalidateWhilePinnedDefersFree(t *testing.T) {
	g, _ := newGPU()
	c := NewFragCache(g)
	key := FragKey{Table: "item", Frag: 9, Rows: 128}
	data := hostFloats(128)
	used := g.Allocator().Used()

	pin, _ := acquireUpload(t, c, key, 1, data)
	buf := pin.Buffer()
	c.InvalidateFrag("item", 9)
	// The image survives its invalidation while pinned: the in-flight
	// kernel can still read it.
	if _, err := reduceSum(g, Vec{Buf: buf, Stride: 8, Size: 8, Len: 128}, LaunchConfig{Blocks: 4, ThreadsPerBlock: 32}); err != nil {
		t.Fatalf("kernel over invalidated-but-pinned image: %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d after invalidate, want 0", st.Entries)
	}
	pin.Release()
	if g.Allocator().Used() != used {
		t.Errorf("deferred free leaked: used %d -> %d", used, g.Allocator().Used())
	}
}

func TestCacheInvalidateFragIsExact(t *testing.T) {
	g, _ := newGPU()
	c := NewFragCache(g)
	data := hostFloats(32)
	kA := FragKey{Table: "item", Frag: 1, Col: 0, Rows: 32}
	kB := FragKey{Table: "item", Frag: 1, Col: 1, Rows: 32}
	kC := FragKey{Table: "item", Frag: 2, Col: 0, Rows: 32}
	for _, k := range []FragKey{kA, kB, kC} {
		pin, _ := acquireUpload(t, c, k, 1, data)
		pin.Release()
	}

	c.InvalidateFrag("item", 1)
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want only fragment 2's image left", st.Entries)
	}
	pin, hit := acquireUpload(t, c, kC, 1, data)
	if !hit {
		t.Error("fragment 2's image was collaterally invalidated")
	}
	pin.Release()

	c.InvalidateTable("item")
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d after InvalidateTable, want 0", st.Entries)
	}
}

func TestCacheFlushReturnsMemory(t *testing.T) {
	g, _ := newGPU()
	c := NewFragCache(g)
	used := g.Allocator().Used()
	for i := uint64(0); i < 4; i++ {
		k := FragKey{Table: "t", Frag: i, Rows: 256}
		pin, _ := acquireUpload(t, c, k, 1, hostFloats(256))
		pin.Release()
	}
	c.InvalidateTable("t")
	if g.Allocator().Used() != used {
		t.Errorf("retiring every image leaked: used %d -> %d", used, g.Allocator().Used())
	}
	if st := c.Stats(); st.Entries != 0 || st.ResidentBytes != 0 {
		t.Errorf("stats after retiring every image = %+v", st)
	}
}

// A Pin releases exactly once: a second Release through the same pin is
// a no-op (it cannot steal another holder's pin of the same entry), the
// zero Pin's Release does nothing, and a transient pin frees its buffer.
// Pinning and unpinning a resident image allocates nothing.
func TestPinReleaseIsIdempotent(t *testing.T) {
	g, _ := newGPU()
	c := NewFragCache(g)
	key := FragKey{Table: "item", Frag: 5, Rows: 64}
	data := hostFloats(64)
	first, _ := acquireUpload(t, c, key, 1, data)
	second, hit := acquireUpload(t, c, key, 1, data)
	if !hit {
		t.Fatal("second acquire missed")
	}
	first.Release()
	first.Release()
	if first != (Pin{}) {
		t.Errorf("released pin not zeroed: %+v", first)
	}
	if got := c.Stats().PinnedBytes; got != int64(len(data)) {
		t.Fatalf("pinned bytes = %d after a double release of one of two pins, want %d", got, len(data))
	}
	second.Release()
	if got := c.Stats().PinnedBytes; got != 0 {
		t.Fatalf("pinned bytes = %d after both pins released, want 0", got)
	}

	var zero Pin
	zero.Release()

	used := g.Allocator().Used()
	buf, err := g.Alloc(len(data))
	if err != nil {
		t.Fatal(err)
	}
	transient := TransientPin(buf)
	if transient.Buffer() != buf {
		t.Fatal("transient pin does not hold its buffer")
	}
	transient.Release()
	transient.Release()
	if g.Allocator().Used() != used {
		t.Errorf("transient pin leaked: used %d -> %d", used, g.Allocator().Used())
	}

	fill := func(*Buffer) error { t.Fatal("a hit filled"); return nil }
	if allocs := testing.AllocsPerRun(100, func() {
		pin, _, err := c.Acquire(key, 1, len(data), fill)
		if err != nil {
			t.Fatal(err)
		}
		pin.Release()
	}); allocs != 0 {
		t.Errorf("a cache hit and its release allocate %.1f objects, want 0", allocs)
	}
}
