package mem

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAllocWithinCapacity(t *testing.T) {
	a := NewAllocator(Device, 100)
	b, err := a.Alloc(60)
	if err != nil {
		t.Fatalf("Alloc(60): %v", err)
	}
	if b.Len() != 60 || b.Space() != Device {
		t.Fatalf("block = %d bytes in %v, want 60 in device", b.Len(), b.Space())
	}
	if a.Used() != 60 {
		t.Errorf("Used = %d, want 60", a.Used())
	}
	if a.Capacity() != 100 {
		t.Errorf("Capacity = %d, want 100", a.Capacity())
	}
}

func TestAllocExceedsCapacity(t *testing.T) {
	a := NewAllocator(Device, 100)
	if _, err := a.Alloc(101); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if a.Used() != 0 {
		t.Errorf("failed alloc changed Used to %d", a.Used())
	}
}

func TestAllocUnlimited(t *testing.T) {
	a := NewAllocator(Host, 0)
	if _, err := a.Alloc(1 << 20); err != nil {
		t.Fatalf("unlimited Alloc: %v", err)
	}
	if a.Capacity() != 0 || a.Used() != 1<<20 {
		t.Errorf("Capacity, Used = %d, %d; want 0 (unlimited), %d", a.Capacity(), a.Used(), 1<<20)
	}
}

func TestAllocRejectsNonPositive(t *testing.T) {
	a := NewAllocator(Host, 0)
	for _, n := range []int{0, -5} {
		if _, err := a.Alloc(n); !errors.Is(err, ErrBadSize) {
			t.Errorf("Alloc(%d) err = %v, want ErrBadSize", n, err)
		}
	}
}

func TestFreeReturnsBytes(t *testing.T) {
	a := NewAllocator(Device, 100)
	b, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("expected full allocator")
	}
	b.Free()
	if a.Used() != 0 {
		t.Fatalf("Used after Free = %d, want 0", a.Used())
	}
	if _, err := a.Alloc(100); err != nil {
		t.Fatalf("Alloc after Free: %v", err)
	}
}

func TestFreeIsIdempotent(t *testing.T) {
	a := NewAllocator(Host, 0)
	b, _ := a.Alloc(10)
	b.Free()
	b.Free()
	if a.Used() != 0 {
		t.Fatalf("double Free corrupted accounting: Used = %d", a.Used())
	}
	if a.Stats().Frees != 1 {
		t.Fatalf("Frees = %d, want 1", a.Stats().Frees)
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	a := NewAllocator(Host, 0)
	b1, _ := a.Alloc(30)
	b2, _ := a.Alloc(50)
	b1.Free()
	b2.Free()
	if a.Peak() != 80 {
		t.Fatalf("Peak = %d, want 80", a.Peak())
	}
}

func TestStatsSnapshot(t *testing.T) {
	a := NewAllocator(Secondary, 0)
	b, _ := a.Alloc(7)
	b.Free()
	s := a.Stats()
	if s.Space != Secondary || s.Allocs != 1 || s.Frees != 1 || s.Used != 0 || s.Peak != 7 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	a := NewAllocator(Device, 1<<20)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				b, err := a.Alloc(64)
				if err != nil {
					continue
				}
				b.Free()
			}
		}()
	}
	wg.Wait()
	if a.Used() != 0 {
		t.Fatalf("Used after concurrent churn = %d, want 0", a.Used())
	}
}

func TestSpaceString(t *testing.T) {
	cases := map[Space]string{Host: "host", Device: "device", Secondary: "secondary", Space(9): "Space(9)"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

// Property: for any sequence of alloc sizes within capacity, Used equals
// the sum of live block sizes.
func TestQuickAccountingInvariant(t *testing.T) {
	f := func(sizes []uint8) bool {
		a := NewAllocator(Device, 1<<16)
		var live []*Block
		var sum int64
		for _, s := range sizes {
			n := int(s)%512 + 1
			b, err := a.Alloc(n)
			if err != nil {
				continue
			}
			live = append(live, b)
			sum += int64(n)
			if a.Used() != sum {
				return false
			}
		}
		for _, b := range live {
			sum -= int64(b.Len())
			b.Free()
			if a.Used() != sum {
				return false
			}
		}
		return a.Used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Every block starts aligned to the element size of a column image of
// its length: a device image of n float64s is 8-aligned, one of n int32
// group keys 4-aligned, and any block of 16 bytes or more 8-aligned. The
// scan's typed loops (agg's views) read such an image in place only when
// it is, and fall back to a byte decode when it is not.
func TestBlocksAreAlignedForColumnImages(t *testing.T) {
	a := NewAllocator(Device, 0)
	for n := 1; n <= 4096; n++ {
		for _, size := range []int{4, 8} {
			b, err := a.Alloc(n * size)
			if err != nil {
				t.Fatal(err)
			}
			align := uintptr(size)
			if n*size >= 16 {
				align = 8
			}
			if off := uintptr(unsafe.Pointer(&b.Bytes()[0])) % align; off != 0 {
				t.Fatalf("a block of %d %d-byte elements starts %d bytes past %d-alignment", n, size, off, align)
			}
			b.Free()
		}
	}
}
