// Package mem models the memory spaces of a heterogeneous single-node
// platform: host main memory, device (GPU) global memory, and secondary
// storage. The paper's challenges (a.i)–(a.iii) — expensive transfers,
// different memory types per compute platform, and strict device capacity
// limits — are made concrete here: every fragment of every storage engine
// allocates its bytes from a Space-tagged Allocator, device allocators are
// capacity-limited, and cross-space copies are only possible through the
// transfer paths in package device, which charge simulated bus time.
package mem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Space identifies where bytes physically live.
type Space uint8

// The memory spaces of the modelled platform.
const (
	// Host is CPU-attached main memory.
	Host Space = iota
	// Device is GPU-attached global memory (capacity limited, reachable
	// from the host only via the simulated bus).
	Device
	// Secondary is disk/flash storage (modelled for the disk-based
	// engines PAX, Fractured Mirrors and ES²).
	Secondary
)

// String names the space.
func (s Space) String() string {
	switch s {
	case Host:
		return "host"
	case Device:
		return "device"
	case Secondary:
		return "secondary"
	default:
		return fmt.Sprintf("Space(%d)", uint8(s))
	}
}

// ErrOutOfMemory is returned when an allocation would exceed an allocator's
// capacity. Engines with device-resident data must handle it: CoGaDB's
// "all or nothing" column placement (Section IV-B.3) falls back to host
// memory exactly when this error occurs.
var ErrOutOfMemory = errors.New("mem: out of memory")

// ErrBadSize is returned for non-positive allocation sizes.
var ErrBadSize = errors.New("mem: allocation size must be positive")

// Allocator hands out byte blocks from a single memory space, enforcing an
// optional capacity. It is safe for concurrent use.
type Allocator struct {
	space    Space
	capacity int64 // 0 means unlimited
	used     atomic.Int64
	allocs   atomic.Int64
	frees    atomic.Int64
	peak     atomic.Int64
}

// NewAllocator creates an allocator for the given space. capacity is the
// byte limit; 0 means unlimited (typical for host memory in this model).
func NewAllocator(space Space, capacity int64) *Allocator {
	return &Allocator{space: space, capacity: capacity}
}

// Space returns the allocator's memory space.
func (a *Allocator) Space() Space { return a.space }

// Capacity returns the configured byte limit (0 = unlimited).
func (a *Allocator) Capacity() int64 { return a.capacity }

// Used returns the bytes currently allocated.
func (a *Allocator) Used() int64 { return a.used.Load() }

// Peak returns the high-water mark of allocated bytes.
func (a *Allocator) Peak() int64 { return a.peak.Load() }

// Stats summarizes allocator activity.
type Stats struct {
	Space  Space
	Used   int64
	Peak   int64
	Allocs int64
	Frees  int64
}

// Stats returns a snapshot of the allocator's counters.
func (a *Allocator) Stats() Stats {
	return Stats{
		Space:  a.space,
		Used:   a.used.Load(),
		Peak:   a.peak.Load(),
		Allocs: a.allocs.Load(),
		Frees:  a.frees.Load(),
	}
}

// Alloc reserves n bytes and returns the backing block. It fails with
// ErrOutOfMemory when the capacity would be exceeded.
func (a *Allocator) Alloc(n int) (*Block, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadSize, n)
	}
	for {
		used := a.used.Load()
		if a.capacity > 0 && used+int64(n) > a.capacity {
			return nil, fmt.Errorf("%w: %s space: need %d, used %d of %d",
				ErrOutOfMemory, a.space, n, used, a.capacity)
		}
		if a.used.CompareAndSwap(used, used+int64(n)) {
			break
		}
	}
	a.allocs.Add(1)
	for {
		peak := a.peak.Load()
		used := a.used.Load()
		if used <= peak || a.peak.CompareAndSwap(peak, used) {
			break
		}
	}
	return &Block{buf: make([]byte, n), alloc: a}, nil
}

// Block is a contiguous byte region owned by an allocator.
type Block struct {
	buf   []byte
	alloc *Allocator
	freed sync.Once
}

// Bytes returns the block's backing bytes. Callers must not retain the
// slice past Free.
func (b *Block) Bytes() []byte { return b.buf }

// Len returns the block size in bytes.
func (b *Block) Len() int { return len(b.buf) }

// Space returns the memory space the block lives in.
func (b *Block) Space() Space { return b.alloc.space }

// Free returns the block's bytes to the allocator. Free is idempotent.
func (b *Block) Free() {
	b.freed.Do(func() {
		b.alloc.used.Add(-int64(len(b.buf)))
		b.alloc.frees.Add(1)
		b.buf = nil
	})
}
