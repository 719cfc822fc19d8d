// Package pool is the morsel-driven executor behind exec.MorselDriven.
//
// The paper's Figure-2 panels show the 8-thread blockwise policy losing
// on small inputs because per-query thread management dominates (§II-B).
// Morsel-driven execution (HyPer) answers with fixed-size morsels
// (~16K positions) claimed from one atomic cursor: a job no larger than
// one morsel runs inline on the caller with no scheduling at all, and a
// larger one is drained by the caller plus at most Workers() helper
// goroutines of the call, which the Go runtime multiplexes onto
// GOMAXPROCS threads and balances by stealing. An idle helper claims the
// next morsel of its job, so skewed pieces no longer idle workers the
// way static blockwise ranges do. The simulated clock prices the policy
// on the paper's platform (perfmodel.MorselAmortizedNs), not on how Go
// schedules it.
//
// Partial-result state is indexed by slot: helpers own slots
// 0..slots-2 and the caller owns slot slots-1, where slots is the value
// of Slots() the caller sized its buffers with.
//
// The package also owns the sync.Pool buffer recycling that makes
// steady-state operator calls allocation-free: position-list buffers
// (GetPositions/PutPositions) and byte buffers (GetBytes/PutBytes).
//
// Run reports itself to internal/obs: jobs run inline vs submitted, and
// morsels claimed by the caller vs stolen by helpers. Each is one atomic
// add per job, not per morsel.
package pool

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hybridstore/internal/obs"
)

// Pool metrics (process-global). The per-morsel counters are
// accumulated locally per drain loop, so a job costs O(1) metric
// updates, not O(morsels).
var (
	mJobsInline       = obs.NewCounter("pool.jobs_inline")       // ran on the caller, no scheduling
	mJobsSubmitted    = obs.NewCounter("pool.jobs_submitted")    // split over the caller and helpers
	mMorselsSubmitter = obs.NewCounter("pool.morsels_submitter") // claimed by the calling goroutine
	mMorselsStolen    = obs.NewCounter("pool.morsels_stolen")    // claimed by helper goroutines
)

// DefaultMorselSize is the number of positions per morsel. Following
// morsel-driven scheduling (HyPer), it is large enough to amortize the
// dispatch cost and small enough that skew rebalances across workers.
const DefaultMorselSize = 16 << 10

var (
	workerTarget atomic.Int32 // 0 = runtime.GOMAXPROCS(0)
	morselSize   atomic.Int32 // 0 = DefaultMorselSize
)

// Workers returns how many helpers a job may use. It defaults to
// runtime.GOMAXPROCS(0) and can be overridden with SetWorkers.
func Workers() int {
	if t := workerTarget.Load(); t > 0 {
		return int(t)
	}
	return runtime.GOMAXPROCS(0)
}

// Slots returns the number of partial-result slots an operator must
// allocate before calling Run: one per helper plus one for the caller,
// which drains its own job rather than idling.
func Slots() int { return Workers() + 1 }

// MaxWorkers is the hard ceiling on Workers(). The target is stored as
// an int32, so an unclamped value above math.MaxInt32 could wrap to a
// negative and silently revert to the GOMAXPROCS default; out-of-range
// values saturate instead. The ceiling is deliberately far below
// MaxInt32: a job starts up to Workers() goroutines, and no machine this
// runs on schedules more than a few hundred hardware threads.
const MaxWorkers = 1 << 10

// SetWorkers sets Workers(); n < 1 restores the GOMAXPROCS default and
// n > MaxWorkers clamps to MaxWorkers (never wraps). A job keeps the
// slot bound it was started with, so resizing is safe while queries run.
func SetWorkers(n int) {
	switch {
	case n < 1:
		workerTarget.Store(0)
	case n > MaxWorkers:
		workerTarget.Store(MaxWorkers)
	default:
		workerTarget.Store(int32(n))
	}
}

// MorselSize returns the positions-per-morsel granularity used by exec.
func MorselSize() int {
	if m := morselSize.Load(); m > 0 {
		return int(m)
	}
	return DefaultMorselSize
}

// SetMorselSize overrides the morsel granularity; n < 1 restores the
// default and values above math.MaxInt32 clamp to math.MaxInt32 instead
// of wrapping to a negative (which would silently revert the granularity
// to its default). Tests shrink it to force multi-morsel scheduling on
// small inputs; exec reads it once per range split, so it must not
// change while a query runs.
func SetMorselSize(n int) {
	switch {
	case n < 1:
		morselSize.Store(0)
	case n > math.MaxInt32:
		morselSize.Store(math.MaxInt32)
	default:
		morselSize.Store(int32(n))
	}
}

// Morsels returns how many morsels of the given size cover total
// positions.
func Morsels(total, morsel int) int {
	if total <= 0 {
		return 0
	}
	if morsel < 1 {
		morsel = DefaultMorselSize
	}
	return (total + morsel - 1) / morsel
}

// Run executes fn over the position space [0, total) in morsels of the
// given size and returns when every position has been processed. fn
// receives the claimed range and a partial-state slot in [0, slots); the
// caller passes the Slots() value it sized its partial buffers with.
// Calls sharing a slot never overlap in time. A job no larger than one
// morsel runs inline in slot slots-1; a larger one is drained by the
// caller, in slot slots-1, and min(slots-1, morsels-1) helper goroutines
// started for this call, which all claim morsels from one atomic cursor
// and have exited when Run returns.
func Run(total, morsel, slots int, fn func(slot, from, to int)) {
	if total <= 0 {
		return
	}
	if morsel < 1 {
		morsel = DefaultMorselSize
	}
	if slots < 1 {
		slots = 1
	}
	if total <= morsel || slots == 1 {
		mJobsInline.Inc()
		fn(slots-1, 0, total)
		return
	}
	mJobsSubmitted.Inc()
	var next atomic.Int64
	drain := func(slot int) (claimed int64) {
		for {
			from := int(next.Add(int64(morsel))) - morsel
			if from >= total {
				return claimed
			}
			claimed++
			fn(slot, from, min(from+morsel, total))
		}
	}
	helpers := min(slots-1, Morsels(total, morsel)-1)
	var wg sync.WaitGroup
	wg.Add(helpers)
	for slot := 0; slot < helpers; slot++ {
		go func() {
			defer wg.Done()
			mMorselsStolen.Add(drain(slot))
		}()
	}
	mMorselsSubmitter.Add(drain(slots - 1))
	wg.Wait()
}

// ---------------------------------------------------------------------------
// Recycled buffers. Operators return these after merging partials, so
// steady-state calls are allocation-free on the hot path.

var positionsPool = sync.Pool{New: func() any {
	s := make([]uint64, 0, 1024)
	return &s
}}

// GetPositions returns an empty position-list buffer with whatever
// capacity a previous query left behind.
func GetPositions() []uint64 {
	return (*positionsPool.Get().(*[]uint64))[:0]
}

// GetPositionsCap returns an empty position-list buffer with capacity
// for at least n entries. A fetched buffer that is too small goes back
// to the pool for smaller callers, so sizing up never strands the small
// buffer.
func GetPositionsCap(n int) []uint64 {
	s := GetPositions()
	if cap(s) < n {
		PutPositions(s)
		return make([]uint64, 0, n)
	}
	return s
}

// PutPositions recycles a position-list buffer. The contents become
// invalid; callers must copy results out first.
func PutPositions(s []uint64) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	positionsPool.Put(&s)
}

var bytesPool = sync.Pool{New: func() any {
	s := make([]byte, 0, 4096)
	return &s
}}

// GetBytes returns an empty byte buffer with whatever capacity a
// previous user left behind — response serialization and request
// decoding in the serving layer run allocation-free at steady state by
// appending into these.
func GetBytes() []byte {
	return (*bytesPool.Get().(*[]byte))[:0]
}

// GetBytesCap returns an empty byte buffer with capacity for at least n
// bytes, with the same re-pool-if-too-small discipline as
// GetPositionsCap: an undersized fetch goes back for smaller callers and
// the grown replacement joins the pool on PutBytes.
func GetBytesCap(n int) []byte {
	s := GetBytes()
	if cap(s) < n {
		PutBytes(s)
		return make([]byte, 0, n)
	}
	return s
}

// PutBytes recycles a byte buffer. The contents become invalid; callers
// must finish writing the bytes out first.
func PutBytes(s []byte) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	bytesPool.Put(&s)
}
