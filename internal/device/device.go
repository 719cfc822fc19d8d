// Package device implements the software GPU this reproduction substitutes
// for the paper's CUDA card (DESIGN.md Section 2). It is a real executor —
// kernels actually compute over device-resident buffers — wrapped in the
// calibrated timing model of internal/perfmodel, so both the answers and
// the Figure-2 cost shapes (transfer wall, launch overhead, coalescing)
// are reproduced. The card prices the paper's Harris-style tree
// reduction but computes every aggregate in the caller, in ascending
// element order, so its answers are bit-identical to every other leg's.
//
// The device owns a capacity-limited global-memory allocator (4044 MB in
// the default profile, matching the paper's footnote 4); engines that
// place fragments on the device must handle mem.ErrOutOfMemory, which is
// exactly the condition CoGaDB's "all or nothing" placement reacts to.
package device

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hybridstore/internal/mem"
	"hybridstore/internal/obs"
	"hybridstore/internal/perfmodel"
)

// Process-wide device counters. Each GPU instance also keeps its own
// per-instance counters (Stats); these registry handles aggregate across
// every simulated card so a metrics snapshot (examples/metrics, bench/)
// sees total bus traffic no matter how many Envs a run creates.
var (
	mH2DBytes = obs.NewCounter("device.h2d_bytes")
	mD2HBytes = obs.NewCounter("device.d2h_bytes")
	mH2DOps   = obs.NewCounter("device.h2d_ops")
	mD2HOps   = obs.NewCounter("device.d2h_ops")
	mKernels  = obs.NewCounter("device.kernels")
)

// Device errors.
var (
	// ErrBadLaunch is returned for invalid kernel launch geometry.
	ErrBadLaunch = errors.New("device: bad launch configuration")
	// ErrBufferFreed is returned when using a freed buffer.
	ErrBufferFreed = errors.New("device: buffer already freed")
	// ErrShortBuffer is returned when a copy or kernel would run past the
	// end of a buffer.
	ErrShortBuffer = errors.New("device: access beyond buffer size")
)

// GPU is one simulated graphics card.
type GPU struct {
	prof  perfmodel.DeviceProfile
	alloc *mem.Allocator

	mu    sync.Mutex // guards clock
	clock *perfmodel.Clock

	// Per-instance traffic counters; lock-free (previously int64s under
	// mu, which serialized concurrent kernels on pure bookkeeping).
	h2d     obs.Counter // bytes host→device
	d2h     obs.Counter // bytes device→host
	h2dOps  obs.Counter
	d2hOps  obs.Counter
	kernels obs.Counter

	// scratch recycles the grouped kernel's tables, up to one per
	// concurrent launch.
	scratch chan *groupScratch
}

// New creates a GPU with the given profile, charging simulated time to
// clock. A nil clock disables time accounting (pure functional use).
func New(prof perfmodel.DeviceProfile, clock *perfmodel.Clock) *GPU {
	return &GPU{
		prof:    prof,
		alloc:   mem.NewAllocator(mem.Device, prof.GlobalMemory),
		clock:   clock,
		scratch: make(chan *groupScratch, 64),
	}
}

// Profile returns the device profile.
func (g *GPU) Profile() perfmodel.DeviceProfile { return g.prof }

// Allocator exposes the device global-memory allocator so storage engines
// can place fragments in device memory.
func (g *GPU) Allocator() *mem.Allocator { return g.alloc }

// charge advances the simulated clock under the device lock.
func (g *GPU) charge(ns float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.clock != nil {
		g.clock.Advance(ns)
	}
}

// TransferStats summarizes bus traffic and kernel launches.
type TransferStats struct {
	HostToDeviceBytes, DeviceToHostBytes int64
	HostToDeviceOps, DeviceToHostOps     int64
	KernelLaunches                       int64
}

// Stats returns a snapshot of the device counters.
func (g *GPU) Stats() TransferStats {
	return TransferStats{
		HostToDeviceBytes: g.h2d.Load(), DeviceToHostBytes: g.d2h.Load(),
		HostToDeviceOps: g.h2dOps.Load(), DeviceToHostOps: g.d2hOps.Load(),
		KernelLaunches: g.kernels.Load(),
	}
}

// countTransfer records n transferred bytes in the given direction on
// both the per-instance and the process-wide counters.
func (g *GPU) countTransfer(n int64, toDevice bool) {
	if toDevice {
		g.h2d.Add(n)
		g.h2dOps.Inc()
		mH2DBytes.Add(n)
		mH2DOps.Inc()
		return
	}
	g.d2h.Add(n)
	g.d2hOps.Inc()
	mD2HBytes.Add(n)
	mD2HOps.Inc()
}

// countKernels records k kernel launches.
func (g *GPU) countKernels(k int64) {
	g.kernels.Add(k)
	mKernels.Add(k)
}

// ChargeTransfer accounts for n bytes moved over the bus outside the
// Buffer copy paths — engines that relocate fragment blocks directly
// between host and device memory (placement, eviction) call this so the
// traffic is priced and counted exactly like an explicit CopyToDevice.
func (g *GPU) ChargeTransfer(n int64, toDevice bool) {
	if n <= 0 {
		return
	}
	g.charge(g.prof.TransferNs(n))
	g.countTransfer(n, toDevice)
}

// Buffer is a device-global-memory allocation. Free may race with
// in-flight kernels reading the buffer: the freed flag is atomic, so a
// concurrent kernel either observes the buffer live (and reads bytes the
// block still backs — mem.Block.Free runs once and only nils its slice
// after the flag flips) or fails cleanly with ErrBufferFreed.
type Buffer struct {
	gpu   *GPU
	block *mem.Block
	// data is the backing store captured once at allocation: kernels read
	// it through bytes() without touching the block again, so a
	// concurrent Free (which nils the block's slice) cannot race with an
	// in-flight kernel's loads.
	data  []byte
	freed atomic.Bool
	// image, when non-zero, marks a write-once cache image and numbers
	// it: a FragCache sets it once the fill has written the bytes, and
	// nothing writes them again. Only such an image carries a summary,
	// built by the first filtered launch that folds it as float64 values.
	image   uint64
	summary atomic.Pointer[summary]
}

// Alloc reserves n bytes of device global memory.
func (g *GPU) Alloc(n int) (*Buffer, error) {
	b, err := g.alloc.Alloc(n)
	if err != nil {
		return nil, err
	}
	return &Buffer{gpu: g, block: b, data: b.Bytes()}, nil
}

// Len returns the buffer size in bytes.
func (b *Buffer) Len() int {
	if b.freed.Load() {
		return 0
	}
	return len(b.data)
}

// Free releases the buffer's device memory. Idempotent and safe to call
// concurrently with kernels using the buffer (they fail with
// ErrBufferFreed instead of racing).
func (b *Buffer) Free() {
	if b.freed.CompareAndSwap(false, true) {
		b.block.Free()
	}
}

// bytes returns the backing store or an error if freed.
func (b *Buffer) bytes() ([]byte, error) {
	if b.freed.Load() {
		return nil, ErrBufferFreed
	}
	return b.data, nil
}

// CopyToDevice copies src into the buffer at offset off, charging bus time.
func (g *GPU) CopyToDevice(dst *Buffer, off int, src []byte) error {
	ns, err := g.copyToDevice(dst, off, src)
	if err != nil {
		return err
	}
	g.charge(ns)
	return nil
}

// copyToDevice performs the copy and returns its priced duration without
// advancing the clock.
func (g *GPU) copyToDevice(dst *Buffer, off int, src []byte) (float64, error) {
	w, err := dst.window(off, len(src))
	if err != nil {
		return 0, err
	}
	copy(w, src)
	return g.uploaded(len(src)), nil
}

// window returns the n bytes of b's backing store at off, capped at n,
// for an upload to fill.
func (b *Buffer) window(off, n int) ([]byte, error) {
	buf, err := b.bytes()
	if err != nil {
		return nil, err
	}
	if off < 0 || off+n > len(buf) {
		return nil, fmt.Errorf("%w: copy [%d,%d) into %d-byte buffer", ErrShortBuffer, off, off+n, len(buf))
	}
	return buf[off : off+n : off+n], nil
}

// uploaded counts an n-byte H2D copy and returns its priced duration.
func (g *GPU) uploaded(n int) float64 {
	g.countTransfer(int64(n), true)
	return g.prof.TransferNs(int64(n))
}

// LaunchConfig is the kernel grid geometry: Blocks thread blocks of
// ThreadsPerBlock threads each, mirroring the paper's configuration of
// "at least 1024 blocks (each having 512 threads)".
type LaunchConfig struct {
	Blocks, ThreadsPerBlock int
}

// DefaultReduceConfig is the launch geometry the paper used for its
// parallel reduction kernel.
func DefaultReduceConfig() LaunchConfig { return LaunchConfig{Blocks: 1024, ThreadsPerBlock: 512} }

// ReduceConfigFor picks the launch geometry for an n-element reduction:
// the paper's grid, falling back to a small one for inputs shorter than
// two elements per block.
func ReduceConfigFor(n int) LaunchConfig {
	cfg := DefaultReduceConfig()
	if n < cfg.Blocks*2 {
		cfg = LaunchConfig{Blocks: 8, ThreadsPerBlock: 64}
	}
	return cfg
}

// validate checks the launch geometry against device limits; tree
// reductions additionally require a power-of-two block size.
func (g *GPU) validate(cfg LaunchConfig, powerOfTwo bool) error {
	if cfg.Blocks < 1 || cfg.ThreadsPerBlock < 1 {
		return fmt.Errorf("%w: %d blocks × %d threads", ErrBadLaunch, cfg.Blocks, cfg.ThreadsPerBlock)
	}
	if cfg.ThreadsPerBlock > g.prof.MaxThreadsPerBlock {
		return fmt.Errorf("%w: %d threads/block exceeds device limit %d",
			ErrBadLaunch, cfg.ThreadsPerBlock, g.prof.MaxThreadsPerBlock)
	}
	if powerOfTwo && cfg.ThreadsPerBlock&(cfg.ThreadsPerBlock-1) != 0 {
		return fmt.Errorf("%w: tree reduction requires power-of-two block size, got %d",
			ErrBadLaunch, cfg.ThreadsPerBlock)
	}
	return nil
}

// Vec describes a strided element vector in device global memory, the
// device-side counterpart of layout.ColVector: element i lives at
// Base + i*Stride and is Size bytes. The backing store is either a device
// Buffer (Buf) or, for fragments whose blocks were allocated from the
// device allocator, the raw block bytes (Data); exactly one must be set.
type Vec struct {
	Buf    *Buffer
	Data   []byte
	Base   int
	Stride int
	Size   int
	Len    int
}

// check validates the vector against its backing store, enforcing the
// documented invariant that exactly one of Buf and Data is set.
func (v Vec) check() ([]byte, error) {
	buf := v.Data
	if v.Buf != nil {
		if buf != nil {
			return nil, fmt.Errorf("%w: vec sets both Buf and Data", ErrBadLaunch)
		}
		var err error
		if buf, err = v.Buf.bytes(); err != nil {
			return nil, err
		}
	} else if buf == nil {
		return nil, fmt.Errorf("%w: vec has no backing store", ErrShortBuffer)
	}
	if v.Len < 0 || v.Size <= 0 || v.Stride < v.Size || v.Base < 0 {
		return nil, fmt.Errorf("%w: vec base=%d stride=%d size=%d len=%d", ErrShortBuffer, v.Base, v.Stride, v.Size, v.Len)
	}
	if v.Len > 0 {
		last := v.Base + (v.Len-1)*v.Stride + v.Size
		if last > len(buf) {
			return nil, fmt.Errorf("%w: vec ends at %d, buffer is %d bytes", ErrShortBuffer, last, len(buf))
		}
	}
	return buf, nil
}

// Gather copies the records at the given positions (each recordWidth
// bytes, record i at i*recordWidth) from the buffer into a host slice,
// charging gather-kernel plus result-transfer time. It is the device-side
// materialization primitive.
func (g *GPU) Gather(src *Buffer, recordWidth int, positions []int) ([]byte, error) {
	buf, err := src.bytes()
	if err != nil {
		return nil, err
	}
	if recordWidth <= 0 {
		return nil, fmt.Errorf("%w: record width %d", ErrBadLaunch, recordWidth)
	}
	out := make([]byte, len(positions)*recordWidth)
	for i, p := range positions {
		off := p * recordWidth
		if p < 0 || off+recordWidth > len(buf) {
			return nil, fmt.Errorf("%w: record %d at %d", ErrShortBuffer, p, off)
		}
		copy(out[i*recordWidth:], buf[off:off+recordWidth])
	}
	g.countKernels(1)
	g.countTransfer(int64(len(out)), false)
	n := int64(src.Len() / recordWidth)
	// One charge for the whole operation, priced through OverlapNs like
	// the stream paths. The synchronous call has no pipeline (stages=1),
	// so kernel and result transfer serialize — the same total the two
	// separate charges produced, now symmetric with Scatter's single
	// combined price.
	g.charge(g.prof.OverlapNs(
		g.prof.TransferNs(int64(len(out))),
		g.prof.GatherKernelNs(int64(len(positions)), n, recordWidth), 1))
	return out, nil
}

// scatter performs the scatter and returns its priced duration without
// advancing the clock (streams charge an overlapped total at Wait).
func (g *GPU) scatter(v Vec, positions []int, vals []byte) (float64, error) {
	buf, err := v.check()
	if err != nil {
		return 0, err
	}
	if len(vals) != len(positions)*v.Size {
		return 0, fmt.Errorf("%w: %d values bytes for %d positions of size %d",
			ErrShortBuffer, len(vals), len(positions), v.Size)
	}
	for i, p := range positions {
		if p < 0 || p >= v.Len {
			return 0, fmt.Errorf("%w: scatter position %d of %d", ErrShortBuffer, p, v.Len)
		}
		copy(buf[v.Base+p*v.Stride:v.Base+p*v.Stride+v.Size], vals[i*v.Size:(i+1)*v.Size])
	}
	g.countKernels(1)
	g.countTransfer(int64(len(vals)), true)
	return g.prof.TransferNs(int64(len(vals))) +
		g.prof.ScatterKernelNs(int64(len(positions)), v.Size), nil
}
