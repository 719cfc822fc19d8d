package pool

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridstore/internal/obs"
)

func TestDefaultsFollowGOMAXPROCS(t *testing.T) {
	SetWorkers(0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if Slots() != Workers()+1 {
		t.Fatalf("Slots() = %d, want Workers()+1", Slots())
	}
	if MorselSize() != DefaultMorselSize {
		t.Fatalf("MorselSize() = %d, want %d", MorselSize(), DefaultMorselSize)
	}
}

func TestSetWorkersAndMorselSize(t *testing.T) {
	defer SetWorkers(0)
	defer SetMorselSize(0)
	SetWorkers(3)
	if Workers() != 3 || Slots() != 4 {
		t.Fatalf("Workers/Slots = %d/%d, want 3/4", Workers(), Slots())
	}
	SetMorselSize(64)
	if MorselSize() != 64 {
		t.Fatalf("MorselSize = %d", MorselSize())
	}
	SetWorkers(-5)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative SetWorkers did not restore default")
	}
}

// TestSetWorkersClampsHugeValues pins the saturation fix: the target is
// stored as an int32, and a value above the ceiling used to wrap —
// possibly to a negative, silently reverting the pool to its default.
func TestSetWorkersClampsHugeValues(t *testing.T) {
	defer SetWorkers(0)
	defer SetMorselSize(0)
	SetWorkers(math.MaxInt)
	if got := Workers(); got != MaxWorkers {
		t.Fatalf("Workers() after huge SetWorkers = %d, want clamp to %d", got, MaxWorkers)
	}
	SetMorselSize(math.MaxInt)
	if got := MorselSize(); got != math.MaxInt32 {
		t.Fatalf("MorselSize() after huge SetMorselSize = %d, want clamp to %d", got, math.MaxInt32)
	}
	// The clamped values must behave, not just read back: a single-morsel
	// job still runs inline.
	ran := false
	Run(10, MorselSize(), Slots(), func(_, from, to int) { ran = from == 0 && to == 10 })
	if !ran {
		t.Fatal("clamped configuration did not execute")
	}
}

// waitUntil polls cond for up to two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSetWorkersGrowStartsEagerly pins the eager-growth fix: growing the
// pool used to only take effect at the next Run, so an in-flight job
// sized for the larger pool could never use the new workers.
func TestSetWorkersGrowStartsEagerly(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	waitUntil(t, "pool shrink to 1", func() bool { return RunningWorkers() == 1 })

	// A job sized for a 4-worker pool (5 slots), submitted while only one
	// worker exists. Every executor parks in fn until released.
	const slots, morsels = 5, 6
	release := make(chan struct{})
	var parked atomic.Int32
	done := make(chan struct{})
	go func() {
		Run(morsels, 1, slots, func(slot, from, to int) {
			parked.Add(1)
			<-release
		})
		close(done)
	}()

	// Submitter + the single worker claim one morsel each and park.
	waitUntil(t, "submitter and worker 0 to park", func() bool { return parked.Load() == 2 })

	// Grow: workers 1..3 must start eagerly and claim from the in-flight
	// job (their ids are inside its slot bound) without another Run.
	SetWorkers(4)
	if got := RunningWorkers(); got != 4 {
		t.Fatalf("RunningWorkers() right after grow = %d, want 4", got)
	}
	waitUntil(t, "grown workers to claim in-flight morsels", func() bool { return parked.Load() == 5 })

	close(release)
	<-done
}

func TestMorsels(t *testing.T) {
	cases := []struct{ total, morsel, want int }{
		{0, 64, 0}, {-3, 64, 0}, {1, 64, 1}, {64, 64, 1}, {65, 64, 2},
		{1000, 64, 16}, {10, 0, 1},
	}
	for _, c := range cases {
		if got := Morsels(c.total, c.morsel); got != c.want {
			t.Errorf("Morsels(%d, %d) = %d, want %d", c.total, c.morsel, got, c.want)
		}
	}
}

// TestRunCoversEveryPosition checks that a multi-morsel job touches each
// position exactly once and that every reported slot is in range.
func TestRunCoversEveryPosition(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	const total, morsel = 10_000, 64
	slots := Slots()
	seen := make([]int32, total)
	var badSlot atomic.Int32
	Run(total, morsel, slots, func(slot, from, to int) {
		if slot < 0 || slot >= slots {
			badSlot.Store(int32(slot) + 1)
		}
		for i := from; i < to; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	if s := badSlot.Load(); s != 0 {
		t.Fatalf("out-of-range slot %d", s-1)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("position %d executed %d times", i, n)
		}
	}
}

// TestRunSingleMorselInline checks the fast path: a job no larger than
// one morsel runs on the caller's goroutine in the submitter slot.
func TestRunSingleMorselInline(t *testing.T) {
	slots := Slots()
	var calls int
	var gotSlot int
	Run(150, DefaultMorselSize, slots, func(slot, from, to int) {
		calls++
		gotSlot = slot
		if from != 0 || to != 150 {
			t.Fatalf("range [%d,%d), want [0,150)", from, to)
		}
	})
	if calls != 1 || gotSlot != slots-1 {
		t.Fatalf("calls=%d slot=%d, want 1 call in submitter slot %d", calls, gotSlot, slots-1)
	}
}

// TestConcurrentJobsShareThePool hammers the pool with overlapping
// multi-morsel jobs from many goroutines.
func TestConcurrentJobsShareThePool(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	const queries = 24
	var wg sync.WaitGroup
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			total := 1_000 + q*97
			var sum atomic.Int64
			slots := Slots()
			Run(total, 32, slots, func(_, from, to int) {
				var s int64
				for i := from; i < to; i++ {
					s += int64(i)
				}
				sum.Add(s)
			})
			want := int64(total) * int64(total-1) / 2
			if sum.Load() != want {
				t.Errorf("query %d: sum=%d want %d", q, sum.Load(), want)
			}
		}(q)
	}
	wg.Wait()
}

// TestResizeUnderLoad shrinks and grows the pool while jobs run;
// in-flight jobs keep their slot bound so no slot ever exceeds it.
func TestResizeUnderLoad(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []int{1, 2, 5, 3, 4}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				SetWorkers(sizes[i%len(sizes)])
			}
		}
	}()
	for round := 0; round < 200; round++ {
		slots := Slots()
		var n atomic.Int64
		Run(4_096, 64, slots, func(slot, from, to int) {
			if slot < 0 || slot >= slots {
				panic("slot out of bound")
			}
			n.Add(int64(to - from))
		})
		if n.Load() != 4_096 {
			t.Fatalf("round %d: covered %d positions", round, n.Load())
		}
	}
	close(stop)
	wg.Wait()
}

// TestPoolMetricsAdvance checks the pool's obs reporting: inline and
// submitted job counts, full morsel accounting (submitter + stolen ==
// total morsels), and the queue-depth/worker gauges.
func TestPoolMetricsAdvance(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	before := obs.TakeSnapshot()

	// Single-morsel job: inline, no scheduling.
	Run(50, DefaultMorselSize, Slots(), func(_, _, _ int) {})
	// Multi-morsel job through the shared queues.
	const total, morsel = 10_000, 64
	Run(total, morsel, Slots(), func(_, _, _ int) {})

	if d := obs.TakeSnapshot().Counter("pool.jobs_inline") - before.Counter("pool.jobs_inline"); d != 1 {
		t.Fatalf("jobs_inline advanced by %d, want 1", d)
	}
	if d := obs.TakeSnapshot().Counter("pool.jobs_submitted") - before.Counter("pool.jobs_submitted"); d != 1 {
		t.Fatalf("jobs_submitted advanced by %d, want 1", d)
	}
	// Workers publish their stolen-morsel counts right after the job
	// drains, which can trail Run's return by an instant; and when an
	// earlier test left more than four workers, the supernumerary ones
	// retire lazily after the shrink (see SetWorkers), so the workers
	// gauge legitimately trails the target too.
	want := int64(Morsels(total, morsel))
	waitUntil(t, "morsel accounting and the workers gauge to settle", func() bool {
		s := obs.TakeSnapshot()
		got := s.Counter("pool.morsels_submitter") + s.Counter("pool.morsels_stolen") -
			before.Counter("pool.morsels_submitter") - before.Counter("pool.morsels_stolen")
		return got == want && s.Gauge("pool.workers") == 4
	})
	if got := obs.TakeSnapshot().Gauge("pool.queue_depth"); got != 0 {
		t.Fatalf("queue_depth after drain = %d, want 0", got)
	}
}

func TestPositionBufferRecycling(t *testing.T) {
	b := GetPositions()
	if len(b) != 0 {
		t.Fatalf("GetPositions len = %d", len(b))
	}
	b = append(b, 7, 8, 9)
	PutPositions(b)
	c := GetPositions()
	if len(c) != 0 {
		t.Fatalf("recycled buffer not reset: len=%d", len(c))
	}
	PutPositions(c)
	PutPositions(nil) // zero-cap buffers are dropped, not pooled
}
