package server

import (
	"fmt"
	"sync"
	"time"

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
// table, columns): every read plan that arrives within one collection
// window of the first plan of its shape joins that shape's cohort, with
// distinct plans as slots — identical plans (the same predicate, the
// same row) collapse to one slot whose result is fanned to every
// waiter. sum_where / count_where cohorts stream the column once for
// all their predicates, get cohorts gather all their rows in one
// snapshot pass, group_sum_where cohorts answer their predicates from
// one snapshot.
//
// Linearizability: the first request of a shape becomes the leader,
// sleeps one collection window, then REMOVES the cohort from the intake
// map before executing — every request that joined is answered from one
// MVCC snapshot taken after all of them arrived, which is a valid
// linearization point; requests arriving after the removal start a new
// cohort. A failed pass propagates its error to every waiter.

// cohortObs is the telemetry of one cohort family.
type cohortObs struct {
	flushes, joined, collapsed, slots *obs.Counter
	size                              *obs.Histogram
}

// Scan cohorts (sum_where, count_where, group_sum_where) report under
// server.batch.*, point-read fan-in cohorts under server.gather.*.
var (
	batchObs = cohortObs{
		flushes:   obs.NewCounter("server.batch.flushes"),
		joined:    obs.NewCounter("server.batch.joined"),
		collapsed: obs.NewCounter("server.batch.collapsed"),
		slots:     obs.NewCounter("server.batch.preds"),
		size:      obs.NewHistogram("server.batch.size"),
	}
	gatherObs = cohortObs{
		flushes:   obs.NewCounter("server.gather.flushes"),
		joined:    obs.NewCounter("server.gather.joined"),
		collapsed: obs.NewCounter("server.gather.collapsed"),
		slots:     obs.NewCounter("server.gather.rows"),
		size:      obs.NewHistogram("server.gather.size"),
	}
)

// cohort is one in-flight batch of same-shape plans.
type cohort struct {
	plans []exec.Plan
	slot  map[exec.Plan]int // identical plans share a slot
	done  chan struct{}
	res   []exec.Result
	err   error
}

// batcher is the collection-window scheduler. A zero window degrades
// every request to its solo execution path.
type batcher struct {
	window time.Duration
	mu     sync.Mutex
	open   map[exec.Plan]*cohort // intake, keyed by plan shape
	// flush is the storage pass a cohort leader runs. It defaults to
	// Table.Execute; tests substitute failing or panicking ones to drive
	// the leader-failure paths.
	flush func(tbl *hybridstore.Table, plans []exec.Plan) ([]exec.Result, error)
}

func newBatcher(window time.Duration) *batcher {
	return &batcher{
		window: window,
		open:   make(map[exec.Plan]*cohort),
		flush:  (*hybridstore.Table).Execute,
	}
}

// exec answers one read plan, riding a shared pass when same-shape
// requests are in flight. solo forces the direct path for plans that
// must not wait or must not join: with no window every plan is solo.
// Results may be shared with other waiters of the slot — serialization
// must not mutate them.
func (b *batcher) exec(tbl *hybridstore.Table, p exec.Plan, solo bool) (exec.Result, error) {
	if solo || b.window <= 0 {
		res, err := tbl.Execute([]exec.Plan{p})
		if err != nil {
			return exec.Result{}, err
		}
		return res[0], nil
	}
	m, key := &batchObs, p.Shape()
	if p.Op == exec.KindGet {
		m = &gatherObs
	}
	b.mu.Lock()
	if g := b.open[key]; g != nil {
		idx, dup := g.slot[p]
		if dup {
			m.collapsed.Inc()
		} else {
			idx = len(g.plans)
			g.plans = append(g.plans, p)
			g.slot[p] = idx
		}
		b.mu.Unlock()
		m.joined.Inc()
		<-g.done
		if g.err != nil {
			return exec.Result{}, g.err
		}
		return g.res[idx], nil
	}
	g := &cohort{
		plans: []exec.Plan{p},
		slot:  map[exec.Plan]int{p: 0},
		done:  make(chan struct{}),
	}
	b.open[key] = g
	b.mu.Unlock()

	time.Sleep(b.window)

	b.mu.Lock()
	delete(b.open, key) // close intake BEFORE executing: see linearizability note
	b.mu.Unlock()
	m.flushes.Inc()
	m.slots.Add(int64(len(g.plans)))
	m.size.Observe(int64(len(g.plans)))
	// The cohort must be released however the pass ends: a leader that
	// panics mid-pass still owes every waiter an answer, so the panic
	// becomes the cohort error instead of a permanent hang, and a pass
	// that under-delivers results is an error, never a zero answer.
	func() {
		defer func() {
			if r := recover(); r != nil {
				g.err = fmt.Errorf("server: batch leader panicked: %v", r)
			}
			if g.err == nil && len(g.res) != len(g.plans) {
				g.err = fmt.Errorf("server: batch pass returned %d results for %d plans", len(g.res), len(g.plans))
			}
			close(g.done)
		}()
		g.res, g.err = b.flush(tbl, g.plans)
	}()
	if g.err != nil {
		return exec.Result{}, g.err
	}
	return g.res[0], nil
}
