package server

import (
	"fmt"
	"runtime"
	"sync"

	"hybridstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
)

// The batching scheduler collapses concurrent compatible requests into
// one shared storage pass — the serving-layer half of shared-scan
// batching (Crescando/SharedDB style), paired with the storage half in
// Table.Execute.
//
// There is one cohort type, keyed by plan shape (exec.Plan.Shape: kind,
// table, columns), and per shape at most runtime.GOMAXPROCS(0) passes
// run at once — the pass slots. A read plan that finds a slot free runs
// at once, as a cohort of one; every plan that arrives while all of its
// shape's slots are taken joins that shape's cohort, with distinct plans
// as slots — identical plans (the same predicate) collapse to one slot
// whose result is fanned to every waiter. So a lone request
// never waits, and under load a cohort collects for as long as one pass
// takes: there is no clock, and no window to tune. sum_where cohorts
// stream the column once for all their predicates, group_sum_where
// cohorts answer their predicates from one snapshot.
//
// Linearizability: the first request of a shape becomes the leader,
// waits for a pass slot, then REMOVES the cohort from the intake map
// before executing — every request that joined is answered from one
// MVCC snapshot taken after all of them arrived, which is a valid
// linearization point; requests arriving after the removal start a new
// cohort. (The pass that gives up the slot does the removal for the
// leader, under the one hold of b.mu in which it hands the slot over.)
// A failed pass propagates its error to every waiter.

// Cohort telemetry: passes run, requests that joined another's cohort,
// requests collapsed onto an identical plan's slot, and slots carried.
var (
	mFlushes   = obs.NewCounter("server.batch.flushes")
	mJoined    = obs.NewCounter("server.batch.joined")
	mCollapsed = obs.NewCounter("server.batch.collapsed")
	mPreds     = obs.NewCounter("server.batch.preds")
)

// cohort is one batch of same-shape plans collecting behind the passes
// in flight.
type cohort struct {
	plans []exec.Plan
	slot  map[exec.Plan]int // identical plans share a slot
	start chan struct{}     // closed when a finishing pass hands the leader its slot
	done  chan struct{}     // closed when the cohort's own pass is over
	res   []exec.Result
	err   error
}

// batcher is the pass-slot scheduler. Switched off, it degrades every
// request to its solo execution path.
type batcher struct {
	on    bool
	slots int // passes one shape may have in flight: GOMAXPROCS, read once
	mu    sync.Mutex
	open  map[exec.Plan]*cohort // intake, keyed by plan shape
	// busy counts the slots taken per plan shape. Entries are never
	// deleted: there are as few shapes as kinds of statement.
	busy map[exec.Plan]int
	// flush is the storage pass. It defaults to Table.Execute; tests
	// substitute blocking, failing or panicking ones to build cohorts
	// and to drive the leader-failure paths.
	flush func(tbl *hybridstore.Table, plans []exec.Plan) ([]exec.Result, error)
}

func newBatcher(on bool) *batcher {
	return &batcher{
		on:    on,
		slots: runtime.GOMAXPROCS(0),
		open:  make(map[exec.Plan]*cohort),
		busy:  make(map[exec.Plan]int),
		flush: (*hybridstore.Table).Execute,
	}
}

// exec answers one read plan, riding a shared pass when its shape's
// pass slots are taken. solo forces the direct path for plans that must
// not wait or must not join: with batching off every plan is solo.
// Results may be shared with other waiters of the slot — serialization
// must not mutate them.
func (b *batcher) exec(tbl *hybridstore.Table, p exec.Plan, solo bool) (exec.Result, error) {
	if solo || !b.on {
		return first(tbl.Execute([]exec.Plan{p}))
	}
	key := p.Shape()
	b.mu.Lock()
	if b.busy[key] < b.slots {
		b.busy[key]++
		b.mu.Unlock()
		return first(b.pass(tbl, key, []exec.Plan{p}))
	}
	g := b.open[key]
	leader := g == nil
	if leader {
		g = &cohort{slot: make(map[exec.Plan]int), start: make(chan struct{}), done: make(chan struct{})}
		b.open[key] = g
	}
	idx, dup := g.slot[p]
	if dup {
		mCollapsed.Inc()
	} else {
		idx = len(g.plans)
		g.plans = append(g.plans, p)
		g.slot[p] = idx
	}
	b.mu.Unlock()
	if leader {
		<-g.start
		g.res, g.err = b.pass(tbl, key, g.plans)
		close(g.done)
	} else {
		mJoined.Inc()
		<-g.done
	}
	if g.err != nil {
		return exec.Result{}, g.err
	}
	return g.res[idx], nil
}

// first unwraps the answer of a one-plan pass.
func first(res []exec.Result, err error) (exec.Result, error) {
	if err != nil {
		return exec.Result{}, err
	}
	return res[0], nil
}

// pass runs one storage pass in a slot of the shape the caller holds.
// However the pass ends, its waiters are owed an answer and the shape
// its slot: a panic becomes the pass's error instead of a permanent
// hang, a pass that under-delivers results is an error, never a zero
// answer, and the slot goes to the cohort that collected meanwhile —
// its intake closed first, under the same hold of b.mu — or is freed.
func (b *batcher) pass(tbl *hybridstore.Table, key exec.Plan, plans []exec.Plan) (res []exec.Result, err error) {
	mFlushes.Inc()
	mPreds.Add(int64(len(plans)))
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: batch leader panicked: %v", r)
		}
		if err == nil && len(res) != len(plans) {
			err = fmt.Errorf("server: batch pass returned %d results for %d plans", len(res), len(plans))
		}
		b.mu.Lock()
		if g := b.open[key]; g != nil {
			delete(b.open, key) // close intake BEFORE executing: see linearizability note
			close(g.start)
		} else {
			b.busy[key]--
		}
		b.mu.Unlock()
	}()
	return b.flush(tbl, plans)
}
