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
// submitted job counts, and full morsel accounting (submitter + stolen ==
// total morsels) the moment Run returns.
func TestPoolMetricsAdvance(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	before := obs.TakeSnapshot()

	// Single-morsel job: inline, no scheduling.
	Run(50, DefaultMorselSize, Slots(), func(_, _, _ int) {})
	// Multi-morsel job over the caller and helpers.
	const total, morsel = 10_000, 64
	Run(total, morsel, Slots(), func(_, _, _ int) {})

	s := obs.TakeSnapshot()
	if d := s.Counter("pool.jobs_inline") - before.Counter("pool.jobs_inline"); d != 1 {
		t.Fatalf("jobs_inline advanced by %d, want 1", d)
	}
	if d := s.Counter("pool.jobs_submitted") - before.Counter("pool.jobs_submitted"); d != 1 {
		t.Fatalf("jobs_submitted advanced by %d, want 1", d)
	}
	got := s.Counter("pool.morsels_submitter") + s.Counter("pool.morsels_stolen") -
		before.Counter("pool.morsels_submitter") - before.Counter("pool.morsels_stolen")
	if want := int64(Morsels(total, morsel)); got != want {
		t.Fatalf("morsels claimed advanced by %d, want %d", got, want)
	}
}

// TestRunLeavesNoHelper checks that no helper goroutine outlives its
// job: after jobs of every shape the goroutine count returns to its
// baseline. A helper that has called wg.Done may still be unwinding when
// Run returns, so the count gets a moment to settle; a resident worker
// would hold it above the baseline for good.
func TestRunLeavesNoHelper(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	base := runtime.NumGoroutine()
	for _, total := range []int{1, 64, 65, 200, 10_000} {
		var n atomic.Int64
		Run(total, 64, Slots(), func(_, from, to int) {
			time.Sleep(10 * time.Microsecond) // let helpers overlap
			n.Add(int64(to - from))
		})
		if n.Load() != int64(total) {
			t.Fatalf("total %d: covered %d positions", total, n.Load())
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("total %d: %d goroutines after Run, baseline %d", total, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestRunHelpersBounded checks the helper count: a job of m morsels
// under slots s runs on the caller, in slot s-1, and min(s-1, m-1)
// helpers in slots 0.. — no other slot is ever used.
func TestRunHelpersBounded(t *testing.T) {
	for _, c := range []struct{ total, slots int }{{128, 5}, {1_000, 3}, {1_000, 1}, {64, 5}} {
		var mu sync.Mutex
		used := map[int]bool{}
		Run(c.total, 64, c.slots, func(slot, _, _ int) {
			time.Sleep(100 * time.Microsecond)
			mu.Lock()
			used[slot] = true
			mu.Unlock()
		})
		if !used[c.slots-1] {
			t.Errorf("total %d slots %d: the caller's slot %d ran nothing", c.total, c.slots, c.slots-1)
		}
		helpers := min(c.slots-1, Morsels(c.total, 64)-1)
		for slot := range used {
			if slot != c.slots-1 && slot >= helpers {
				t.Errorf("total %d slots %d: slot %d used, helpers are 0..%d", c.total, c.slots, slot, helpers-1)
			}
		}
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
