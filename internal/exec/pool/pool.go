// Package pool is the process-wide morsel-driven executor behind
// exec.MorselDriven.
//
// The paper's Figure-2 panels show the 8-thread blockwise policy losing
// on small inputs because per-query thread management dominates (§II-B).
// This package removes that per-query cost: a fixed set of resident
// workers (sized from runtime.GOMAXPROCS, overridable) consumes
// fixed-size morsels (~16K positions) from per-query work queues.
// Workers scan the active queues round-robin, offset by their worker id,
// so an idle worker steals morsels from whichever query still has work —
// skewed fragments no longer idle workers the way static blockwise
// ranges do.
//
// Submitting goroutines participate: a query's own goroutine drains its
// queue alongside the pool workers, so progress never depends on a pool
// worker being free and a single-morsel job runs inline with no
// scheduling at all. Partial-result state is indexed by slot: pool
// workers own slots 0..slots-2 and the submitter owns slot slots-1,
// where slots is the value of Slots() the caller sized its buffers with.
//
// The package also owns the sync.Pool buffer recycling that makes
// steady-state operator calls allocation-free: position-list buffers
// (GetPositions/PutPositions) and byte buffers (GetBytes/PutBytes).
//
// The pool reports itself to internal/obs: jobs run inline vs submitted,
// morsels claimed by the submitter vs stolen by resident workers, queue
// depth and live workers. All hot-path updates are uncontended atomic adds, amortized to O(1)
// per job.
package pool

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hybridstore/internal/obs"
)

// Pool metrics (process-global, matching the pool itself). Handles are
// registered once; hot-path updates are single atomic adds, and the
// per-morsel counters are accumulated locally per drain loop so a job
// costs O(1) metric updates, not O(morsels).
var (
	mJobsInline       = obs.NewCounter("pool.jobs_inline")       // ran on the caller, no scheduling
	mJobsSubmitted    = obs.NewCounter("pool.jobs_submitted")    // enqueued on the shared pool
	mMorselsSubmitter = obs.NewCounter("pool.morsels_submitter") // claimed by the submitting goroutine
	mMorselsStolen    = obs.NewCounter("pool.morsels_stolen")    // claimed by resident pool workers
	gQueueDepth       = obs.NewGauge("pool.queue_depth")         // active per-query queues
	gWorkers          = obs.NewGauge("pool.workers")             // live resident workers
)

// DefaultMorselSize is the number of positions per morsel. Following
// morsel-driven scheduling (HyPer), it is large enough to amortize the
// dispatch cost and small enough that skew rebalances across workers.
const DefaultMorselSize = 16 << 10

// job is one query operator's work queue: a contiguous position space
// [0, total) carved into fixed-size morsels, claimed with an atomic
// cursor.
type job struct {
	total  int
	morsel int
	slots  int // partial-state slots the submitter allocated
	fn     func(slot, from, to int)

	next int64 // next unclaimed position (atomic)
	done int64 // completed positions (atomic)
	fin  chan struct{}
}

// claim reserves the next morsel; from >= to means the queue is drained.
func (j *job) claim() (from, to int) {
	n := atomic.AddInt64(&j.next, int64(j.morsel))
	from = int(n) - j.morsel
	if from >= j.total {
		return j.total, j.total
	}
	to = from + j.morsel
	if to > j.total {
		to = j.total
	}
	return from, to
}

// complete records n finished positions and signals the submitter once
// the whole job has executed.
func (j *job) complete(n int) {
	if atomic.AddInt64(&j.done, int64(n)) == int64(j.total) {
		close(j.fin)
	}
}

// drained reports whether every morsel has been claimed (not necessarily
// finished).
func (j *job) drained() bool {
	return atomic.LoadInt64(&j.next) >= int64(j.total)
}

var (
	mu      sync.Mutex
	cond    = sync.NewCond(&mu)
	jobs    []*job // active per-query queues
	running int    // live worker goroutines; ids are dense 0..running-1
	rr      int    // rotates the scan start so queues share workers fairly

	workerTarget atomic.Int32 // 0 = runtime.GOMAXPROCS(0)
	morselSize   atomic.Int32 // 0 = DefaultMorselSize
)

// Workers returns the pool size. It defaults to runtime.GOMAXPROCS(0)
// and can be overridden with SetWorkers.
func Workers() int {
	if t := workerTarget.Load(); t > 0 {
		return int(t)
	}
	return runtime.GOMAXPROCS(0)
}

// Slots returns the number of partial-result slots an operator must
// allocate before calling Run: one per pool worker plus one for the
// submitting goroutine, which drains its own queue rather than idling.
func Slots() int { return Workers() + 1 }

// RunningWorkers returns the number of live resident worker goroutines.
// It trails Workers() briefly while supernumerary workers retire after a
// shrink; after SetWorkers grows the pool the new workers are started
// eagerly, so it reaches the target before SetWorkers returns.
func RunningWorkers() int {
	mu.Lock()
	defer mu.Unlock()
	return running
}

// MaxWorkers is the hard ceiling on the pool size. The target used to be
// truncated int → int32, so a value above math.MaxInt32 could wrap to a
// negative and silently revert the pool to its GOMAXPROCS default; now
// out-of-range values saturate. The ceiling is deliberately far below
// MaxInt32: workers are resident goroutines started eagerly on growth,
// and no machine this runs on schedules more than a few hundred hardware
// threads.
const MaxWorkers = 1 << 10

// SetWorkers resizes the pool; n < 1 restores the GOMAXPROCS default and
// n > MaxWorkers clamps to MaxWorkers (never wraps). In-flight jobs keep
// the slot bound they were submitted with, so resizing is safe while
// queries run — on growth the new workers start eagerly (jobs already
// submitted against the larger Slots() value can use them immediately,
// without waiting for another Run to arrive), and on shrink
// supernumerary workers retire lazily and never touch a job whose slot
// bound excludes them.
func SetWorkers(n int) {
	switch {
	case n < 1:
		workerTarget.Store(0)
	case n > MaxWorkers:
		workerTarget.Store(MaxWorkers)
	default:
		workerTarget.Store(int32(n))
	}
	mu.Lock()
	ensureLocked()   // grow eagerly; in-flight jobs see the new workers
	cond.Broadcast() // wake idle workers so extras retire promptly
	mu.Unlock()
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
// small inputs.
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
// given size, on the shared pool plus the calling goroutine, and returns
// when every position has been processed. fn receives the claimed range
// and the worker's partial-state slot in [0, slots); the caller passes
// the Slots() value it sized its partial buffers with, and pool workers
// outside that bound skip the job. A job no larger than one morsel runs
// inline on the caller with no scheduling.
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
	j := &job{total: total, morsel: morsel, slots: slots, fn: fn, fin: make(chan struct{})}
	mJobsSubmitted.Inc()
	mu.Lock()
	ensureLocked()
	jobs = append(jobs, j)
	gQueueDepth.Set(int64(len(jobs)))
	cond.Broadcast()
	mu.Unlock()
	// Morsel-driven: the submitter is a worker too. It drains its own
	// queue, then waits only for morsels claimed by pool workers.
	mine := int64(0)
	for {
		from, to := j.claim()
		if from >= to {
			break
		}
		mine++
		fn(slots-1, from, to)
		j.complete(to - from)
	}
	mMorselsSubmitter.Add(mine)
	mu.Lock()
	removeLocked(j)
	mu.Unlock()
	<-j.fin
}

// ensureLocked lazily starts workers up to the current target. Worker
// ids stay dense because workers only retire from the top of the id
// range.
func ensureLocked() {
	for running < Workers() {
		go worker(running)
		running++
	}
	gWorkers.Set(int64(running))
}

// removeLocked drops a drained job from the active list; both the
// submitter and the draining worker may race to remove it, so it is
// idempotent.
func removeLocked(j *job) {
	for i, a := range jobs {
		if a == j {
			jobs = append(jobs[:i], jobs[i+1:]...)
			gQueueDepth.Set(int64(len(jobs)))
			return
		}
	}
}

// pickLocked chooses an active queue for a worker, rotating the start
// index so concurrent queries share the pool instead of the first
// registered queue monopolizing it. Jobs whose slot bound excludes this
// worker are skipped.
func pickLocked(id int) *job {
	if len(jobs) == 0 {
		return nil
	}
	rr++
	for i := 0; i < len(jobs); i++ {
		j := jobs[(rr+id+i)%len(jobs)]
		if id < j.slots-1 && !j.drained() {
			return j
		}
	}
	return nil
}

// worker is one resident pool goroutine. It sleeps on the condition
// variable when no queue has work, and retires (top id first, keeping
// ids dense) when the pool shrinks.
func worker(id int) {
	mu.Lock()
	for {
		if running > Workers() && id == running-1 {
			running--
			gWorkers.Set(int64(running))
			cond.Broadcast() // let the next supernumerary id retire
			mu.Unlock()
			return
		}
		j := pickLocked(id)
		if j == nil {
			cond.Wait()
			continue
		}
		mu.Unlock()
		stolen := int64(0)
		for {
			from, to := j.claim()
			if from >= to {
				break
			}
			stolen++
			j.fn(id, from, to)
			j.complete(to - from)
		}
		mMorselsStolen.Add(stolen)
		mu.Lock()
		removeLocked(j)
	}
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
