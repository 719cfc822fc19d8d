// Package device implements the software GPU this reproduction substitutes
// for the paper's CUDA card (DESIGN.md Section 2). It is a real executor —
// kernels actually compute over device-resident buffers, with per-block
// concurrency and a faithful Harris-style tree reduction — wrapped in the
// calibrated timing model of internal/perfmodel, so both the answers and
// the Figure-2 cost shapes (transfer wall, launch overhead, coalescing)
// are reproduced.
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

	"hybridstore/internal/agg"
	"hybridstore/internal/mem"
	"hybridstore/internal/obs"
	"hybridstore/internal/perfmodel"
)

// Process-wide device counters. Each GPU instance also keeps its own
// per-instance counters (Stats); these registry handles aggregate across
// every simulated card so `htapbench -metrics` sees total bus traffic no
// matter how many Envs a run creates.
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

	// card, when non-nil, mirrors traffic onto the per-card registry
	// counters (device.<i>.*) a multi-device Env registers, so metrics
	// attribute bus bytes and launches to individual cards while the
	// process-global device.* totals keep aggregating everything.
	card *cardCounters

	// scratch recycles the float64 working sets of the block reducers
	// (partial slots and shared-memory images) so a steady stream of
	// reductions — the serving layer's warm device-cached scans — runs
	// without per-launch allocation.
	scratchMu sync.Mutex
	scratch   [][]float64
	// tables recycles the grouped kernel's group tables the same way.
	tables []*agg.Table
}

// getF64 pops a zeroed scratch slice of length n.
func (g *GPU) getF64(n int) []float64 {
	g.scratchMu.Lock()
	for i := len(g.scratch) - 1; i >= 0; i-- {
		if cap(g.scratch[i]) >= n {
			s := g.scratch[i][:n]
			g.scratch = append(g.scratch[:i], g.scratch[i+1:]...)
			g.scratchMu.Unlock()
			for j := range s {
				s[j] = 0
			}
			return s
		}
	}
	g.scratchMu.Unlock()
	return make([]float64, n)
}

// putF64 recycles a scratch slice. The free list stays small: scratch
// live at any instant is bounded by concurrent launches × (partials +
// per-SM shared images).
func (g *GPU) putF64(s []float64) {
	if cap(s) == 0 {
		return
	}
	g.scratchMu.Lock()
	if len(g.scratch) < 64 {
		g.scratch = append(g.scratch, s[:0])
	}
	g.scratchMu.Unlock()
}

// getGroupTable pops an empty group table.
func (g *GPU) getGroupTable() *agg.Table {
	g.scratchMu.Lock()
	defer g.scratchMu.Unlock()
	if n := len(g.tables); n > 0 {
		t := g.tables[n-1]
		g.tables = g.tables[:n-1]
		return t
	}
	return new(agg.Table)
}

// putGroupTable recycles a drained group table; like scratch, the free
// list is bounded by the number of concurrent launches.
func (g *GPU) putGroupTable(t *agg.Table) {
	g.scratchMu.Lock()
	if len(g.tables) < 64 {
		g.tables = append(g.tables, t)
	}
	g.scratchMu.Unlock()
}

// cardCounters are the registry handles of one indexed card.
type cardCounters struct {
	h2dBytes, d2hBytes, h2dOps, d2hOps, kernels *obs.Counter
}

// New creates a GPU with the given profile, charging simulated time to
// clock. A nil clock disables time accounting (pure functional use).
func New(prof perfmodel.DeviceProfile, clock *perfmodel.Clock) *GPU {
	return &GPU{
		prof:  prof,
		alloc: mem.NewAllocator(mem.Device, prof.GlobalMemory),
		clock: clock,
	}
}

// NewIndexed creates a GPU that additionally mirrors its traffic onto the
// per-card registry counters device.<index>.{h2d_bytes, d2h_bytes,
// h2d_ops, d2h_ops, kernels}. The registry finds-or-creates by name, so
// every Env run reuses one counter set per index and the per-card series
// stay cumulative exactly like the process-global device.* totals.
func NewIndexed(prof perfmodel.DeviceProfile, clock *perfmodel.Clock, index int) *GPU {
	g := New(prof, clock)
	p := fmt.Sprintf("device.%d.", index)
	g.card = &cardCounters{
		h2dBytes: obs.NewCounter(p + "h2d_bytes"),
		d2hBytes: obs.NewCounter(p + "d2h_bytes"),
		h2dOps:   obs.NewCounter(p + "h2d_ops"),
		d2hOps:   obs.NewCounter(p + "d2h_ops"),
		kernels:  obs.NewCounter(p + "kernels"),
	}
	return g
}

// Profile returns the device profile.
func (g *GPU) Profile() perfmodel.DeviceProfile { return g.prof }

// Allocator exposes the device global-memory allocator so storage engines
// can place fragments in device memory.
func (g *GPU) Allocator() *mem.Allocator { return g.alloc }

// FreeMemory returns the unallocated global-memory bytes.
func (g *GPU) FreeMemory() int64 { return g.alloc.Available() }

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
		if g.card != nil {
			g.card.h2dBytes.Add(n)
			g.card.h2dOps.Inc()
		}
		return
	}
	g.d2h.Add(n)
	g.d2hOps.Inc()
	mD2HBytes.Add(n)
	mD2HOps.Inc()
	if g.card != nil {
		g.card.d2hBytes.Add(n)
		g.card.d2hOps.Inc()
	}
}

// countKernels records k kernel launches.
func (g *GPU) countKernels(k int64) {
	g.kernels.Add(k)
	mKernels.Add(k)
	if g.card != nil {
		g.card.kernels.Add(k)
	}
}

// ChargeTransfer accounts for n bytes moved over the bus outside the
// Buffer copy paths — engines that relocate fragment blocks directly
// between host and device memory (placement, eviction) call this so the
// traffic is priced and counted exactly like an explicit CopyToDevice /
// CopyToHost.
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
	buf, err := dst.bytes()
	if err != nil {
		return 0, err
	}
	if off < 0 || off+len(src) > len(buf) {
		return 0, fmt.Errorf("%w: copy [%d,%d) into %d-byte buffer", ErrShortBuffer, off, off+len(src), len(buf))
	}
	copy(buf[off:], src)
	g.countTransfer(int64(len(src)), true)
	return g.prof.TransferNs(int64(len(src))), nil
}

// CopyToHost copies the buffer region [off, off+len(dst)) back to the host.
func (g *GPU) CopyToHost(dst []byte, src *Buffer, off int) error {
	ns, err := g.copyToHost(dst, src, off)
	if err != nil {
		return err
	}
	g.charge(ns)
	return nil
}

// copyToHost performs the copy and returns its priced duration without
// advancing the clock.
func (g *GPU) copyToHost(dst []byte, src *Buffer, off int) (float64, error) {
	buf, err := src.bytes()
	if err != nil {
		return 0, err
	}
	if off < 0 || off+len(dst) > len(buf) {
		return 0, fmt.Errorf("%w: copy [%d,%d) from %d-byte buffer", ErrShortBuffer, off, off+len(dst), len(buf))
	}
	copy(dst, buf[off:])
	g.countTransfer(int64(len(dst)), false)
	return g.prof.TransferNs(int64(len(dst))), nil
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

// blockReduce2 is blockReduce over (sum, count) pairs: two shared-memory
// images fold side by side, the way a fused kernel carries both
// accumulators in registers.
func (g *GPU) blockReduce2(n int, cfg LaunchConfig, load func(int) (float64, float64)) (sums, counts []float64) {
	sums = g.getF64(cfg.Blocks)
	counts = g.getF64(cfg.Blocks)
	perBlock := (n + cfg.Blocks - 1) / cfg.Blocks
	active := 0
	if perBlock > 0 {
		active = (n + perBlock - 1) / perBlock
	}
	workers := g.prof.SMs
	if workers > active {
		workers = active
	}
	// SM-worker model: the hardware runs SMs in parallel and
	// time-slices blocks over them, so launch one goroutine per SM and
	// let each pull block indices — per-block results are identical to
	// a goroutine-per-block launch, but the shared-memory images are
	// reused across a worker's blocks instead of reallocated.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sharedS := g.getF64(cfg.ThreadsPerBlock)
			sharedC := g.getF64(cfg.ThreadsPerBlock)
			defer g.putF64(sharedS)
			defer g.putF64(sharedC)
			for {
				b := int(next.Add(1)) - 1
				if b >= active {
					return
				}
				begin := b * perBlock
				end := begin + perBlock
				if end > n {
					end = n
				}
				for t := 0; t < cfg.ThreadsPerBlock; t++ {
					var accS, accC float64
					for i := begin + t; i < end; i += cfg.ThreadsPerBlock {
						s, c := load(i)
						accS += s
						accC += c
					}
					sharedS[t], sharedC[t] = accS, accC
				}
				for s := cfg.ThreadsPerBlock / 2; s > 0; s >>= 1 {
					for t := 0; t < s; t++ {
						sharedS[t] += sharedS[t+s]
						sharedC[t] += sharedC[t+s]
					}
				}
				sums[b], counts[b] = sharedS[0], sharedC[0]
			}
		}()
	}
	wg.Wait()
	return sums, counts
}

// blockReduce computes per-block partial sums concurrently. Each block b
// owns the grid-stride element range and reduces it tree-style over a
// shared-memory image of ThreadsPerBlock slots.
func (g *GPU) blockReduce(n int, cfg LaunchConfig, load func(int) float64) []float64 {
	partials := g.getF64(cfg.Blocks)
	perBlock := (n + cfg.Blocks - 1) / cfg.Blocks
	active := 0
	if perBlock > 0 {
		active = (n + perBlock - 1) / perBlock
	}
	// One worker per SM, blocks time-sliced over them (see
	// blockReduce2): identical per-block partials, reused shared
	// images.
	workers := g.prof.SMs
	if workers > active {
		workers = active
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Shared-memory image: each thread t accumulates elements
			// begin+t, begin+t+T, ... then the tree reduction folds the
			// T slots.
			shared := g.getF64(cfg.ThreadsPerBlock)
			defer g.putF64(shared)
			for {
				b := int(next.Add(1)) - 1
				if b >= active {
					return
				}
				begin := b * perBlock
				end := begin + perBlock
				if end > n {
					end = n
				}
				for t := 0; t < cfg.ThreadsPerBlock; t++ {
					var acc float64
					for i := begin + t; i < end; i += cfg.ThreadsPerBlock {
						acc += load(i)
					}
					shared[t] = acc
				}
				for s := cfg.ThreadsPerBlock / 2; s > 0; s >>= 1 {
					for t := 0; t < s; t++ {
						shared[t] += shared[t+s]
					}
				}
				partials[b] = shared[0]
			}
		}()
	}
	wg.Wait()
	return partials
}

// treeReduce folds a slice pairwise, mirroring the final one-block pass.
func treeReduce(xs []float64) float64 {
	return treeReduceInPlace(append([]float64(nil), xs...))
}

// treeReduceInPlace is treeReduce over a buffer the caller owns — the
// reducers fold their recycled partial slots without a defensive copy.
func treeReduceInPlace(buf []float64) float64 {
	for len(buf) > 1 {
		half := (len(buf) + 1) / 2
		for i := 0; i+half < len(buf); i++ {
			buf[i] += buf[i+half]
		}
		buf = buf[:half]
	}
	if len(buf) == 0 {
		return 0
	}
	return buf[0]
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

// Scatter writes vals[i] (elemSize bytes each, concatenated) to element
// positions[i] of the strided vector v. It is the device-side bulk-update
// primitive GPUTx's transaction batches compile into. The value bytes
// travel host→device before the kernel runs, so the call counts and
// prices the bus crossing exactly like CopyToDevice (the D2H mirror of
// what Gather charges for its result delivery).
func (g *GPU) Scatter(v Vec, positions []int, vals []byte) error {
	ns, err := g.scatter(v, positions, vals)
	if err != nil {
		return err
	}
	g.charge(ns)
	return nil
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
