// Package perfmodel is a calibrated analytical time model for the compute
// platforms of the paper's experiment (Section II-B, Figure 2): a
// single-socket host CPU executing single- or multi-threaded bulk
// operators, and a discrete GPU reached over a PCIe-class bus.
//
// This container has one CPU core and no GPU, so the paper's
// multi-threaded and device series cannot be measured physically; per the
// reproduction's substitution policy (DESIGN.md Section 2), the benchmark
// harness instead *computes* the time each configuration would take from
// first principles — bandwidth, cache-line utilization, thread management
// overhead, bus latency, kernel launch overhead — with parameters
// calibrated to the hardware footnoted in the paper: an Intel i7-6700HQ
// (4 cores / 8 threads, 32K/256K/6M caches, 64 B lines, dual-channel
// DDR4) and a CUDA capability 5.0 device (5 SMs × 128 cores, 4 GB global
// memory, 2 MB L2). All engines still execute for real; the model prices
// the executions.
//
// The model intentionally captures exactly the effects the paper's Figure
// 2 demonstrates:
//
//  1. Sequential bandwidth-bound scans whose cost scales with *touched*
//     bytes, so NSM scans of one attribute pay for the whole record while
//     DSM scans pay only for the attribute (panels 2-4).
//  2. Fixed per-thread management cost, so multi-threading loses on tiny
//     inputs and wins on large ones (panels 1-2).
//  3. Cache-miss-priced random access, so record-centric materialization
//     favours NSM (one or two lines per record) over DSM (one miss per
//     attribute) (panel 1).
//  4. A device whose global-memory bandwidth dwarfs the host's but that
//     sits behind a narrow bus, so device scans dominate only once the
//     data is resident (panel 3 vs panel 4).
package perfmodel

import (
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// HostProfile models a host CPU platform.
type HostProfile struct {
	// Name labels the profile in harness output.
	Name string
	// Threads is the thread count used by multi-threaded policies.
	Threads int
	// ThreadSpawnNs is the fixed management cost to create, dispatch and
	// join one worker thread.
	ThreadSpawnNs float64
	// CacheLine is the cache line size in bytes.
	CacheLine int
	// L1, L2, L3 are per-level cache capacities in bytes (L3 shared).
	L1, L2, L3 int64
	// SeqBandwidth is the sustained sequential read bandwidth of one core
	// in bytes/s.
	SeqBandwidth float64
	// MemBandwidth is the total DRAM bandwidth shared by all cores in
	// bytes/s; multi-threaded scans saturate at this.
	MemBandwidth float64
	// MissLatencyNs is the DRAM access latency of one cache miss.
	MissLatencyNs float64
	// L2LatencyNs and L3LatencyNs are hit latencies for smaller working sets.
	L2LatencyNs, L3LatencyNs float64
	// OpNs is the per-element ALU cost of a simple aggregate step.
	OpNs float64
	// PoolWakeNs is the fixed cost of waking the resident morsel-driven
	// worker pool for one operator call (no thread creation — the workers
	// already exist).
	PoolWakeNs float64
	// MorselDispatchNs is the scheduling cost of claiming one morsel from
	// a query's work queue (an atomic fetch-add plus queue scan).
	MorselDispatchNs float64
	// MorselRows is the positions-per-morsel granularity the model
	// assumes for morsel-driven execution.
	MorselRows int64
	// ZoneCheckNsPerFragment is the cost of consulting one fragment's
	// zone map during data skipping: two comparisons against a small
	// resident struct. Charged per candidate fragment whether or not it
	// survives, so pruning is honestly priced.
	ZoneCheckNsPerFragment float64
}

// ZoneCheckNs prices the zone-map overlap tests of one pruned operator
// call over the given candidate fragment count.
func (h HostProfile) ZoneCheckNs(fragments int) float64 {
	return float64(fragments) * h.ZoneCheckNsPerFragment
}

// DeviceProfile models a discrete GPU platform.
type DeviceProfile struct {
	// Name labels the profile in harness output.
	Name string
	// GlobalMemory is the device memory capacity in bytes.
	GlobalMemory int64
	// SMs and CoresPerSM describe the execution resources.
	SMs, CoresPerSM int
	// MaxThreadsPerBlock bounds kernel launch geometry.
	MaxThreadsPerBlock int
	// GlobalBandwidth is the device global-memory bandwidth in bytes/s.
	GlobalBandwidth float64
	// TransferBandwidth is the host↔device bus bandwidth in bytes/s.
	TransferBandwidth float64
	// TransferLatencyNs is the fixed cost of one bus transfer.
	TransferLatencyNs float64
	// KernelLaunchNs is the fixed cost of one kernel launch.
	KernelLaunchNs float64
	// CoalesceSegment is the memory transaction size in bytes; strided
	// (uncoalesced) access wastes the untouched part of each segment.
	CoalesceSegment int
}

// DefaultHost returns the host profile calibrated to the paper's
// i7-6700HQ testbed (footnote 4).
func DefaultHost() HostProfile {
	return HostProfile{
		Name:          "i7-6700HQ",
		Threads:       8,
		ThreadSpawnNs: 12_000, // ~12 µs create+dispatch+join per worker
		CacheLine:     64,
		L1:            32 << 10,
		L2:            256 << 10,
		L3:            6 << 20,
		SeqBandwidth:  7e9,  // one core streaming
		MemBandwidth:  20e9, // dual-channel DDR4 sustained
		MissLatencyNs: 90,
		L2LatencyNs:   4,
		L3LatencyNs:   14,
		OpNs:          0.35,

		PoolWakeNs:       2_000, // futex wake of resident workers
		MorselDispatchNs: 150,   // atomic claim + queue scan per morsel
		MorselRows:       16 << 10,

		ZoneCheckNsPerFragment: 6, // two compares on an L1-resident struct
	}
}

// DefaultDevice returns the device profile calibrated to the paper's CUDA
// capability 5.0 card (footnote 4): 4044 MB global memory, 5 SMs with 128
// cores each, 2 MB L2, ≤1024 threads/block, PCIe 3.0 x16-class bus.
func DefaultDevice() DeviceProfile {
	return DeviceProfile{
		Name:               "cc5.0-sim",
		GlobalMemory:       4044 << 20,
		SMs:                5,
		CoresPerSM:         128,
		MaxThreadsPerBlock: 1024,
		GlobalBandwidth:    80e9,
		TransferBandwidth:  12e9,
		TransferLatencyNs:  10_000,
		KernelLaunchNs:     5_000,
		CoalesceSegment:    32,
	}
}

// accessLatencyNs prices one random access against a working set: sets
// resident in L2/L3 hit at cache latency, larger ones at DRAM latency.
func (h HostProfile) accessLatencyNs(workingSet int64) float64 {
	switch {
	case workingSet <= h.L2:
		return h.L2LatencyNs
	case workingSet <= h.L3:
		return h.L3LatencyNs
	default:
		return h.MissLatencyNs
	}
}

// SeqScanNs prices a single-threaded sequential scan that touches the
// given bytes and performs n per-element operations: the maximum of the
// bandwidth term and the ALU term.
func (h HostProfile) SeqScanNs(bytes int64, n int64) float64 {
	bw := float64(bytes) / h.SeqBandwidth * 1e9
	alu := float64(n) * h.OpNs
	if bw > alu {
		return bw
	}
	return alu
}

// StridedBytes returns the bytes a scan of n fields of size fieldSize
// spaced stride bytes apart actually pulls through the cache hierarchy:
// with stride below one cache line several fields share a line; beyond a
// line, the whole stride region's lines are touched only up to one line
// per field.
func (h HostProfile) StridedBytes(n int64, fieldSize, stride int) int64 {
	if stride <= fieldSize {
		return n * int64(fieldSize)
	}
	perField := stride
	if perField > h.CacheLine {
		perField = h.CacheLine
	}
	if perField < fieldSize {
		perField = fieldSize
	}
	return n * int64(perField)
}

// ScanSumNs prices an attribute-centric aggregate (the paper's Q2) over n
// records with the given field size and physical stride, on threads
// workers. threads == 1 uses the sequential path with no management cost.
func (h HostProfile) ScanSumNs(n int64, fieldSize, stride, threads int) float64 {
	bytes := h.StridedBytes(n, fieldSize, stride)
	if threads <= 1 {
		return h.SeqScanNs(bytes, n)
	}
	// Blockwise partitioning: each worker streams its share; the shared
	// memory bus caps aggregate bandwidth.
	perCore := h.SeqBandwidth * float64(threads)
	bw := perCore
	if bw > h.MemBandwidth {
		bw = h.MemBandwidth
	}
	stream := float64(bytes) / bw * 1e9
	alu := float64(n) * h.OpNs / float64(threads)
	work := stream
	if alu > work {
		work = alu
	}
	return h.ThreadMgmtNs(threads) + work
}

// ThreadMgmtNs is the fixed multi-threading management cost for the given
// worker count (creation, dispatch and join are serialized on the
// coordinating thread).
func (h HostProfile) ThreadMgmtNs(threads int) float64 {
	return float64(threads) * h.ThreadSpawnNs
}

// Morsels returns how many morsels of the profile's granularity cover n
// positions.
func (h HostProfile) Morsels(n int64) int64 {
	m := h.MorselRows
	if m < 1 {
		m = 16 << 10
	}
	if n <= 0 {
		return 0
	}
	return (n + m - 1) / m
}

// MorselAmortizedNs prices workNs of divisible work executed
// morsel-driven on a resident pool: one pool wake (no thread creation),
// plus the work and the per-morsel dispatch cost spread over the workers
// that can actually run concurrently — at most one per morsel. Unlike
// ThreadMgmtNs, dispatch overlaps with execution on other workers, so
// tiny inputs cost roughly the single-threaded time plus the wake.
func (h HostProfile) MorselAmortizedNs(workNs float64, morsels int64, workers int) float64 {
	if morsels < 1 {
		morsels = 1
	}
	p := int64(workers)
	if p > morsels {
		p = morsels
	}
	if p < 1 {
		p = 1
	}
	return h.PoolWakeNs + (workNs+float64(morsels)*h.MorselDispatchNs)/float64(p)
}

// ScanSumMorselNs prices the attribute-centric aggregate of ScanSumNs
// executed morsel-driven on a resident pool of the given worker count.
// The streaming term still saturates at the shared memory bus.
func (h HostProfile) ScanSumMorselNs(n int64, fieldSize, stride, workers int) float64 {
	bytes := h.StridedBytes(n, fieldSize, stride)
	work := h.SeqScanNs(bytes, n) // total single-core work to divide
	morsels := h.Morsels(n)
	p := int64(workers)
	if p > morsels {
		p = morsels
	}
	if p < 1 {
		p = 1
	}
	// Re-apply the bandwidth cap that ScanSumNs models: p cores cannot
	// stream faster than the memory bus allows.
	perCore := h.SeqBandwidth * float64(p)
	if perCore > h.MemBandwidth {
		floor := float64(bytes) / h.MemBandwidth * 1e9
		if work/float64(p) < floor {
			work = floor * float64(p)
		}
	}
	return h.MorselAmortizedNs(work, morsels, workers)
}

// MaterializeMorselNs prices the record-centric materialization of
// MaterializeNs executed morsel-driven on a resident pool.
func (h HostProfile) MaterializeMorselNs(k, n int64, recordWidth, fragmentsPerRecord, workers int) float64 {
	work := h.MaterializeNs(k, n, recordWidth, fragmentsPerRecord, 1)
	return h.MorselAmortizedNs(work, h.Morsels(k), workers)
}

// MaterializeNs prices a record-centric materialization (the paper's Q1
// generalized to k records): k position-list lookups against a table of n
// records, recordWidth bytes wide, of which arity attributes are read
// from fragmentsPerRecord distinct fragments. For NSM,
// fragmentsPerRecord == 1 and each record costs ceil(width/line) misses;
// for DSM it equals the arity and each attribute is its own miss.
func (h HostProfile) MaterializeNs(k, n int64, recordWidth, fragmentsPerRecord, threads int) float64 {
	workingSet := n * int64(recordWidth)
	lat := h.accessLatencyNs(workingSet)
	linesPerFragment := (recordWidth/fragmentsPerRecord + h.CacheLine - 1) / h.CacheLine
	if linesPerFragment < 1 {
		linesPerFragment = 1
	}
	missesPerRecord := float64(fragmentsPerRecord * linesPerFragment)
	decode := float64(recordWidth) / h.SeqBandwidth * 1e9 // copy-out of the fields
	perRecord := missesPerRecord*lat + decode
	if threads <= 1 {
		return float64(k) * perRecord
	}
	return h.ThreadMgmtNs(threads) + float64(k)*perRecord/float64(threads)
}

// TransferNs prices one host↔device bus transfer of the given bytes.
func (d DeviceProfile) TransferNs(bytes int64) float64 {
	return d.TransferLatencyNs + float64(bytes)/d.TransferBandwidth*1e9
}

// effectiveBandwidth derates global bandwidth for uncoalesced access: a
// strided read fetches whole coalescing segments but uses only fieldSize
// bytes of each.
func (d DeviceProfile) effectiveBandwidth(fieldSize, stride int) float64 {
	if stride <= fieldSize || fieldSize >= d.CoalesceSegment {
		return d.GlobalBandwidth
	}
	waste := float64(d.CoalesceSegment) / float64(fieldSize)
	if float64(stride) < float64(d.CoalesceSegment) {
		waste = float64(stride) / float64(fieldSize)
	}
	return d.GlobalBandwidth / waste
}

// ReduceKernelNs prices a Harris-style parallel tree reduction over n
// device-resident elements of fieldSize bytes spaced stride bytes apart,
// launched with the given grid geometry, plus the final single-block pass.
func (d DeviceProfile) ReduceKernelNs(n int64, fieldSize, stride, blocks, threadsPerBlock int) float64 {
	// Two launches: the grid-wide pass and the final 1-block reduction.
	return 2*d.KernelLaunchNs + d.SweepNs(n, 1, fieldSize, stride) + d.TreeNs(threadsPerBlock)
}

// SweepNs prices one pass of a kernel over n device-resident elements
// in each of cols columns, fieldSize bytes spaced stride bytes apart, at
// the effective bandwidth. A segmented launch pays one sweep per segment
// on top of its fixed launch cost (KernelLaunchNs per launch, one
// TreeNs): the filter+hash-aggregate kernel sweeps two columns (key and
// value), a reduction one.
func (d DeviceProfile) SweepNs(n int64, cols, fieldSize, stride int) float64 {
	return float64(int64(cols)*n*int64(fieldSize)) / d.effectiveBandwidth(fieldSize, stride) * 1e9
}

// TreeNs prices the log-depth in-block step of a launch of
// threadsPerBlock threads: the reduction's halving tree, or the merge of
// the fused group kernel's per-SM tables.
func (d DeviceProfile) TreeNs(threadsPerBlock int) float64 {
	depth := bits.Len(uint(max(threadsPerBlock, 1) - 1)) // ⌈log2⌉ levels
	return float64(depth) * 40                           // ~40 ns sync+step per level
}

// AtomicsNs prices the fused filter+hash-aggregate kernel's folding of
// matched elements into its shared-memory group tables, one atomic
// update each. That kernel is ONE launch that sweeps key and value
// columns, tests each value against the closed predicate interval, and
// folds the matches — the one-launch contract of the fused
// predicate→group-by pipeline; the materialize-then-aggregate baseline
// pays two launches plus an intermediate position-list round trip.
func (d DeviceProfile) AtomicsNs(matched int64) float64 { return float64(matched) * 2 }

// DecodeNs prices expanding a compressed column image (RLE run fills,
// dictionary gathers, FOR delta widening) into dense values ahead of
// the fused reduction: the compressed bytes read and the raw bytes
// written, both at global bandwidth. Decoding is branch-light and
// coalesced, so bandwidth — not ALU — bounds it. A reduction pays one
// more launch for it; the group kernel decodes inside its own.
func (d DeviceProfile) DecodeNs(compressedBytes, rawBytes int64) float64 {
	return float64(compressedBytes+rawBytes) / d.GlobalBandwidth * 1e9
}

// GatherKernelNs prices a device gather of k records of recordWidth bytes
// from a table of n records (random global-memory access).
func (d DeviceProfile) GatherKernelNs(k, n int64, recordWidth int) float64 {
	segs := float64((recordWidth + d.CoalesceSegment - 1) / d.CoalesceSegment)
	perRecord := segs * float64(d.CoalesceSegment) / d.GlobalBandwidth * 1e9
	// Random access cannot be fully pipelined; add a latency share.
	perRecord += 350 / float64(d.SMs)
	return d.KernelLaunchNs + float64(k)*perRecord
}

// ScatterKernelNs prices a device scatter of k elements of elemSize bytes
// to random positions of a device-resident vector: the write-side mirror
// of GatherKernelNs. Each element dirties one coalescing segment (random
// writes rarely share segments), and the uncoalesced stores add a latency
// share the SMs cannot hide.
func (d DeviceProfile) ScatterKernelNs(k int64, elemSize int) float64 {
	segs := float64((elemSize + d.CoalesceSegment - 1) / d.CoalesceSegment)
	perElem := segs * float64(d.CoalesceSegment) / d.GlobalBandwidth * 1e9
	perElem += 350 / float64(d.SMs)
	return d.KernelLaunchNs + float64(k)*perElem
}

// OverlapNs prices a pipelined device phase in which the copy engine
// moves transferNs worth of bus traffic while the SMs execute computeNs
// worth of kernels, double-buffered over the given number of pipeline
// stages (chunks): the engines run concurrently, so the steady state
// costs the maximum of the two lanes, plus a fill/drain bubble of one
// stage of the shorter lane. With one stage (or fewer) nothing overlaps
// and the phases serialize — exactly the sum the synchronous paths
// charge.
func (d DeviceProfile) OverlapNs(transferNs, computeNs float64, stages int) float64 {
	if transferNs <= 0 {
		return computeNs
	}
	if computeNs <= 0 {
		return transferNs
	}
	if stages <= 1 {
		return transferNs + computeNs
	}
	longer, shorter := transferNs, computeNs
	if shorter > longer {
		longer, shorter = shorter, longer
	}
	return longer + shorter/float64(stages)
}

// Clock is a deterministic simulated clock. Engines and the harness
// advance it with model-priced durations; Elapsed converts to wall-clock
// units for reporting. The zero value is ready to use; Clock is safe for
// concurrent use (the whole platform shares one).
type Clock struct {
	mu sync.Mutex
	ns float64
}

// Advance adds ns nanoseconds of simulated time.
func (c *Clock) Advance(ns float64) {
	if ns > 0 {
		c.mu.Lock()
		c.ns += ns
		c.mu.Unlock()
	}
}

// Reset zeroes the clock.
func (c *Clock) Reset() {
	c.mu.Lock()
	c.ns = 0
	c.mu.Unlock()
}

// ElapsedNs returns the simulated nanoseconds.
func (c *Clock) ElapsedNs() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

// Elapsed returns the simulated time as a duration.
func (c *Clock) Elapsed() time.Duration { return time.Duration(c.ns) }

// String renders the clock state.
func (c *Clock) String() string { return fmt.Sprintf("simclock(%v)", c.Elapsed()) }
