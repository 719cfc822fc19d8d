// Package exec implements the bulk-style operators of the paper's
// experiment (Section II-B): attribute-centric aggregation (query Q2),
// record-centric materialization by position list (query Q1 generalized),
// and selection producing sorted position lists, under the two host
// threading policies the paper compares — single-threaded sequential
// execution with no thread management at all, and multi-threaded
// execution with blockwise partitioning of the input positions.
//
// Operators do real work over fragment bytes in any linearization (via
// layout.ColVector) and, when configured with a simulated clock, also
// charge the calibrated platform cost from internal/perfmodel so harness
// runs report Figure-2-shaped timings regardless of this container's
// single CPU. A Volcano-style row iterator is included for the
// tuple-at-a-time comparison discussed in Section II-A.
//
// A third policy, MorselDriven, splits the input into fixed-size morsels
// run by pool.Run (internal/exec/pool): an input of one morsel runs
// inline on the caller, a larger one on the caller and helper goroutines
// of the call, and position lists and byte buffers are recycled through
// sync.Pool, so steady-state calls pay no thread management and only a
// few small fixed allocations. Config.partition is the one place the
// three policies are spelled; every operator splits its input through
// it.
package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hybridstore/internal/compress"
	"hybridstore/internal/exec/pool"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/stats"
)

// Operator observability: each operator reports a per-policy invocation
// counter plus a per-policy latency histogram. The counter is updated on
// every call (one atomic add); wall-clock latency is sampled 1-in-64 so
// the tiny-input fast path — the exact case the morsel pool exists for —
// never pays two clock reads per call. Sampled histograms still converge
// on the steady-state latency distribution the adaptation layer needs.
const latSampleMask = 63

// opObs holds the registered handles of one operator family, indexed by
// Policy.
type opObs struct {
	ops [3]*obs.Counter
	lat [3]*obs.Histogram
}

// newOpObs registers the per-policy metrics of one operator.
func newOpObs(op string) opObs {
	var o opObs
	for p := SingleThreaded; p <= MorselDriven; p++ {
		o.ops[p] = obs.NewCounter("exec." + op + "." + p.String() + ".ops")
		o.lat[p] = obs.NewHistogram("exec." + op + "." + p.String() + ".ns")
	}
	return o
}

// Registered operator families.
var (
	obsSum         = newOpObs("sum")
	obsCount       = newOpObs("count")
	obsMaterialize = newOpObs("materialize")
	obsGroupBy     = newOpObs("groupby")
)

// opTimer is an in-flight (possibly unsampled) operator measurement; the
// zero value is inert so unsampled calls cost nothing on completion.
type opTimer struct {
	h  *obs.Histogram
	t0 time.Time
}

// start counts one invocation and opens a latency sample every 64th
// call.
func (o *opObs) start(p Policy) opTimer {
	i := int(p)
	if i >= len(o.ops) {
		i = 0
	}
	if o.ops[i].Inc()&latSampleMask != 0 {
		return opTimer{}
	}
	return opTimer{h: o.lat[i], t0: time.Now()}
}

// end records the sampled latency, if this call was sampled.
func (t opTimer) end() {
	if t.h != nil {
		t.h.ObserveSince(t.t0)
	}
}

// Policy is the host threading policy.
type Policy uint8

// Threading policies.
const (
	// SingleThreaded runs sequentially on the calling goroutine with no
	// thread management involved at all.
	SingleThreaded Policy = iota
	// MultiThreaded partitions the input blockwise over Config.Threads
	// workers: each worker operates on one exclusive, subsequent range of
	// input positions.
	MultiThreaded
	// MorselDriven splits the input positions into fixed-size morsels
	// (internal/exec/pool): an input of one morsel runs inline, a larger
	// one on the caller and helper goroutines that claim morsels as they
	// go idle, so skewed pieces rebalance across workers.
	MorselDriven
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case SingleThreaded:
		return "single-threaded"
	case MultiThreaded:
		return "multi-threaded"
	case MorselDriven:
		return "morsel-driven"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Config selects the execution policy and, optionally, simulated-time
// accounting: when Clock is non-nil each operator charges the calibrated
// cost of its work on the Host profile.
type Config struct {
	// Policy is the threading policy.
	Policy Policy
	// Threads is the worker count for MultiThreaded (the paper fixes 8).
	Threads int
	// Host is the platform profile used for simulated-time charging.
	Host perfmodel.HostProfile
	// Clock, when non-nil, accumulates simulated time.
	Clock *perfmodel.Clock
}

// Single returns a sequential configuration with no time accounting.
func Single() Config { return Config{Policy: SingleThreaded} }

// MultiN returns a blockwise multi-threaded configuration with exactly n
// workers (the paper's fixed eight-thread policy is MultiN(8)).
func MultiN(n int) Config { return Config{Policy: MultiThreaded, Threads: n} }

// Morsel returns the morsel-driven configuration.
func Morsel() Config { return Config{Policy: MorselDriven} }

// threads returns the effective worker count.
func (c Config) threads() int {
	switch c.Policy {
	case MultiThreaded:
		if c.Threads >= 1 {
			return c.Threads
		}
		return runtime.GOMAXPROCS(0)
	case MorselDriven:
		return pool.Workers()
	default:
		return 1
	}
}

// Exec errors.
var (
	// ErrBadColumn is returned when an operator is asked for an attribute
	// the fragments do not cover, or of the wrong kind.
	ErrBadColumn = errors.New("exec: bad column")
	// ErrGap is returned when a column view has uncovered rows.
	ErrGap = errors.New("exec: rows not covered by layout")
)

// Piece is one contiguous run of a column: the rows it covers and the raw
// strided vector holding them.
type Piece struct {
	// Rows is the covered row range.
	Rows layout.RowRange
	// Vec is the raw strided access to the fields.
	Vec layout.ColVector
	// Place is where the bytes live (host, host-but-shipped, device); the
	// zero value is a plain host piece.
	Place Place
	// Zone is the owning fragment's zone map for this column, or nil.
	// The fragment-wide envelope is a superset of any clipped piece's
	// value range, so pruning against it stays conservative.
	Zone *stats.Zone
	// FragID and FragVersion identify the owning fragment and the write
	// version its bytes were read at; together with the clip they key
	// device-resident images (device.FragCache). A zero FragID marks a
	// piece with no stable owner — synthetic or engine-private vectors —
	// which the device cache treats as uncacheable.
	FragID      uint64
	FragVersion uint64
	// Comp, when non-nil, marks a compressed piece: the column's sealed
	// compressed image replaces Vec.Data as the execution format. Vec
	// still carries the logical metadata (Len, Size, Stride) so zone
	// pruning and accounting work unchanged, but Vec.Data is nil — the
	// sum/count operators evaluate predicates in the compressed domain
	// (run-, code- or delta-granular) and the device path ships the
	// marshaled image over the bus instead of dense bytes. Operators
	// without a compressed path (selection, materialization) reject
	// compressed pieces.
	Comp *compress.Column
}

// ColumnView assembles the pieces covering attribute col for rows
// [0, rows) from a layout, choosing the first covering fragment for each
// run (engines with overlapping layouts route reads the same way). It
// fails with ErrGap when a row is uncovered.
func ColumnView(l *layout.Layout, col int, rows uint64) ([]Piece, error) {
	var out []Piece
	for row := uint64(0); row < rows; {
		f, err := l.FragmentAt(row, col)
		if err != nil {
			return nil, fmt.Errorf("%w: row %d col %d", ErrGap, row, col)
		}
		v, err := f.ColVector(col)
		if err != nil {
			return nil, err
		}
		begin := row
		end := f.Rows().End
		if end > rows {
			end = rows
		}
		// Clip the vector to [begin,end) within the fragment.
		skip := int(begin - f.Rows().Begin)
		v.Base += skip * v.Stride
		v.Len = int(end - begin)
		stored := f.Len() - skip
		if v.Len > stored {
			v.Len = stored
		}
		if v.Len < 0 {
			v.Len = 0
		}
		out = append(out, Piece{
			Rows: layout.RowRange{Begin: begin, End: begin + uint64(v.Len)},
			Vec:  v, Zone: f.Stats(col),
			FragID: f.ID(), FragVersion: f.Version(),
		})
		if uint64(v.Len) < end-begin {
			return nil, fmt.Errorf("%w: rows [%d,%d) allocated but not filled",
				ErrGap, begin+uint64(v.Len), end)
		}
		row = end
	}
	return out, nil
}

// totalLen sums piece lengths.
func totalLen(pieces []Piece) int {
	n := 0
	for _, p := range pieces {
		n += p.Vec.Len
	}
	return n
}

// chargeScan prices an attribute-centric scan on the configured profile.
func (c Config) chargeScan(pieces []Piece) {
	if c.Clock == nil {
		return
	}
	var ns float64
	for _, p := range pieces {
		ns += scanPieceNs(c.Host, p, 1) // bandwidth/ALU term once per piece
	}
	c.charge(ns, totalLen(pieces))
}

// charge prices streaming elems elements whose single-threaded cost is
// ns under the configured policy.
func (c Config) charge(ns float64, elems int) {
	if c.Clock == nil {
		return
	}
	switch c.Policy {
	case MorselDriven:
		// Morsels are priced as a resident pool on the modelled
		// platform: one wake plus amortized per-morsel dispatch instead
		// of per-query thread management.
		morsels := int64(pool.Morsels(elems, pool.MorselSize()))
		ns = c.Host.MorselAmortizedNs(ns, morsels, c.threads())
	case MultiThreaded:
		// Thread management is paid once per operator invocation, and the
		// streaming term divides across workers.
		if th := c.threads(); th > 1 {
			ns = ns/float64(th) + c.Host.ThreadMgmtNs(th)
		}
	}
	c.Clock.Advance(ns)
}

// scanPieceNs prices one piece single-threaded. A compressed piece
// streams its encoded payload instead of the raw bytes, with the ALU
// term at the encoding's predicate granularity — one evaluation per run
// for RLE, one bit test per element otherwise.
func scanPieceNs(h perfmodel.HostProfile, p Piece, threads int) float64 {
	if p.Comp != nil {
		ops := int64(p.Comp.Len())
		if p.Comp.Encoding() == compress.RLE {
			ops = int64(p.Comp.Runs())
		}
		return h.SeqScanNs(int64(p.Comp.CompressedBytes()), ops)
	}
	return h.ScanSumNs(int64(p.Vec.Len), p.Vec.Size, p.Vec.Stride, threads)
}

// eachRange visits the sub-ranges of pieces covering the global element
// positions [gFrom, gTo), in order: fn receives each intersected piece
// and the local element range within it.
func eachRange(pieces []Piece, gFrom, gTo int, fn func(p Piece, from, to int)) {
	base := 0
	for _, p := range pieces {
		pFrom, pTo := gFrom-base, gTo-base
		base += p.Vec.Len
		if pTo <= 0 {
			break
		}
		if pFrom < 0 {
			pFrom = 0
		}
		if pFrom >= p.Vec.Len {
			continue
		}
		if pTo > p.Vec.Len {
			pTo = p.Vec.Len
		}
		fn(p, pFrom, pTo)
	}
}

// slots returns how many partial-result slots a partition needs. The
// pool can be resized concurrently, so callers read it once, size their
// per-slot state from it and hand the same value to partition.
func (c Config) slots() int {
	if c.Policy == MorselDriven {
		return pool.Slots()
	}
	return c.threads()
}

// grain returns the width every range of partition starts at a multiple
// of: one morsel under MorselDriven, one blockwise share ⌈total/slots⌉
// otherwise. Callers that keep per-range output index it by from/grain.
func (c Config) grain(slots, total int) int {
	if c.Policy == MorselDriven {
		return pool.MorselSize()
	}
	return (total + slots - 1) / slots
}

// partition runs fn over the global positions [0, total) under the
// configured policy, the one place a policy is spelled: in morsels on
// pool.Run, in one call on the caller's goroutine when there is one
// slot, or else in blockwise ranges, slot w folding block
// [w·grain, (w+1)·grain) on a goroutine of its own. Calls sharing a slot
// never overlap in time, so fn may accumulate into per-slot state
// without locking; slot < slots.
func (c Config) partition(slots, total int, fn func(slot, from, to int)) {
	if total <= 0 {
		return
	}
	switch {
	case c.Policy == MorselDriven:
		pool.Run(total, c.grain(slots, total), slots, fn)
	case slots == 1:
		fn(0, 0, total)
	default:
		g := c.grain(slots, total)
		var wg sync.WaitGroup
		for w := 0; w*g < total; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(w, w*g, min((w+1)*g, total))
			}()
		}
		wg.Wait()
	}
}

// parallelFold folds pieces into a (sum, count) pair under the
// configured policy; kernel returns the partials of one piece range.
// Each range of partition keeps its own partial, reduced in range order,
// so a policy's result depends on its grain, never on which worker
// claimed which morsel.
func parallelFold(cfg Config, pieces []Piece, kernel func(v layout.ColVector, from, to int) (float64, int64)) (sum float64, n int64) {
	type partial struct {
		sum float64
		n   int64
	}
	slots, total := cfg.slots(), totalLen(pieces)
	g := cfg.grain(slots, total)
	parts := make([]partial, pool.Morsels(total, g))
	cfg.partition(slots, total, func(_, gFrom, gTo int) {
		part := &parts[gFrom/g]
		eachRange(pieces, gFrom, gTo, func(p Piece, from, to int) {
			s, c := kernel(p.Vec, from, to)
			part.sum += s
			part.n += c
		})
	})
	for _, part := range parts {
		sum += part.sum
		n += part.n
	}
	return sum, n
}
