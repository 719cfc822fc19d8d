package server

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hybridstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
)

// Cohorts are built, not timed: the batcher has no clock, so a test that
// wants requests to share a pass parks every pass slot of the shape
// inside the flush seam, lets the requests collect in the intake map and
// only then opens the gate.

type flushFn = func(*hybridstore.Table, []exec.Plan) ([]exec.Result, error)

// gate is a flush seam that parks every pass until it is released.
type gate struct {
	s       *Server
	entered chan int      // one value per pass that reached flush: its slot count
	release chan struct{} // one receive lets one parked pass go; closed lets all go
}

// parkPasses installs a flush on s that reports on entered, parks on
// release and then runs inner.
func parkPasses(s *Server, inner flushFn) *gate {
	g := &gate{s: s, entered: make(chan int, 256), release: make(chan struct{})}
	s.bat.flush = func(tbl *hybridstore.Table, plans []exec.Plan) ([]exec.Result, error) {
		g.entered <- len(plans)
		<-g.release
		return inner(tbl, plans)
	}
	return g
}

// pass waits for the next pass to reach flush and returns its slot
// count.
func (g *gate) pass(t *testing.T) int {
	t.Helper()
	select {
	case k := <-g.entered:
		return k
	case <-time.After(hung):
		t.Fatal("no pass reached flush")
		return 0
	}
}

// joined counts the requests that joined a cohort another request
// opened, over both cohort families.
func joined() int64 {
	snap := obs.TakeSnapshot()
	return snap.Counter("server.batch.joined") + snap.Counter("server.gather.joined")
}

// hung bounds every wait of these tests: a batcher bug shows as a
// failure, not as the suite's timeout.
const hung = 10 * time.Second

// awaitCohort spins until the one open cohort holds n requests — its
// leader and n-1 that joined since the count was before. It yields
// between looks; nothing sleeps.
func (g *gate) awaitCohort(t *testing.T, before int64, n int) *cohort {
	t.Helper()
	for deadline := time.Now().Add(hung); ; {
		if time.Now().After(deadline) {
			t.Fatalf("no cohort of %d requests collected", n)
		}
		g.s.bat.mu.Lock()
		var open *cohort
		for _, c := range g.s.bat.open {
			open = c
		}
		g.s.bat.mu.Unlock()
		if open != nil && joined()-before == int64(n-1) {
			return open
		}
		runtime.Gosched()
	}
}

// reply is one request's answer.
type reply struct {
	body string
	code int
}

// fire sends body(i) for i in [from, to) from one goroutine each, storing
// the answers in out.
func fire(wg *sync.WaitGroup, s *Server, body func(i int) string, out []reply, from, to int) {
	for i := from; i < to; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].body, out[i].code = exec1(s, body(i))
		}(i)
	}
}

// buildCohort makes requests body(0..n-1) share one pass: it occupies
// every pass slot of their shape with the requests body(n..n+slots-1),
// parked in flush, lets the n collect behind them, releases everything
// and checks that exactly one further pass ran, carrying distinct slots.
// It returns all n+slots answers. All bodies must be of one shape, and
// the server must have no other traffic.
func buildCohort(t *testing.T, s *Server, inner flushFn, body func(i int) string, n, distinct int) []reply {
	t.Helper()
	g := parkPasses(s, inner)
	slots := s.bat.slots
	out := make([]reply, n+slots)
	var wg sync.WaitGroup
	fire(&wg, s, body, out, n, n+slots)
	for i := 0; i < slots; i++ {
		if k := g.pass(t); k != 1 {
			t.Fatalf("pass %d into a free slot carried %d plans, want 1", i, k)
		}
	}
	before := joined()
	fire(&wg, s, body, out, 0, n)
	if c := g.awaitCohort(t, before, n); len(c.plans) != distinct {
		t.Fatalf("cohort of %d requests holds %d slots, want %d", n, len(c.plans), distinct)
	}
	close(g.release)
	waitAll(t, &wg)
	if further := len(g.entered); further != 1 {
		t.Fatalf("%d passes after the parked ones, want the cohort's one", further)
	}
	if k := g.pass(t); k != distinct {
		t.Fatalf("the cohort's pass carried %d slots, want %d", k, distinct)
	}
	idle(t, s)
	return out
}

// waitAll waits for every fired request to be answered.
func waitAll(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(hung):
		t.Fatal("requests hung in the batcher")
	}
}

// idle asserts the batcher is at rest: no cohort in the intake map and
// no pass slot taken — a leaked slot would stall its shape forever.
func idle(t *testing.T, s *Server) {
	t.Helper()
	s.bat.mu.Lock()
	defer s.bat.mu.Unlock()
	if n := len(s.bat.open); n != 0 {
		t.Errorf("%d cohorts left in the intake map", n)
	}
	for shape, n := range s.bat.busy {
		if n != 0 {
			t.Errorf("%d pass slots of %v still taken", n, shape)
		}
	}
}

// sumBody renders a sum_where request with predicate lt(10+i).
func sumBody(sid string, stmt int) func(i int) string {
	return func(i int) string {
		return fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"pred":{"kind":"lt","hi":%d}}`, sid, stmt, 10+i)
	}
}

// TestLoneRequestNeverWaits: with every slot free a request runs at
// once, as a cohort of one — the intake map is empty while its pass
// runs, one slot is taken, and both are back to rest afterwards.
func TestLoneRequestNeverWaits(t *testing.T) {
	s, tbl := newItemServer(t, hybridstore.Options{ChunkRows: 128}, Config{BatchWindow: DefaultBatchWindow})
	sid, _ := s.CreateSession("")
	body := sumBody(sid, prep(t, s, sid, "sum_where", hybridstore.ItemPriceColumn, 0))
	passes := 0
	s.bat.flush = func(tbl *hybridstore.Table, plans []exec.Plan) ([]exec.Result, error) {
		passes++
		s.bat.mu.Lock()
		open, busy := len(s.bat.open), s.bat.busy[plans[0].Shape()]
		s.bat.mu.Unlock()
		if open != 0 || busy != 1 || len(plans) != 1 {
			t.Errorf("lone pass: %d plans, %d open cohorts, %d slots taken; want 1, 0, 1", len(plans), open, busy)
		}
		return tbl.Execute(plans)
	}
	want, n, err := tbl.SumFloat64Where(hybridstore.ItemPriceColumn, hybridstore.LtFloat(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, code := exec1(s, body(0))
		if exp := fmt.Sprintf(`{"sum":%s,"count":%d}`, appendF64(nil, want), n); code != 200 || resp != exp {
			t.Fatalf("lone sum_where: %d %s, want %s", code, resp, exp)
		}
		if idle(t, s); t.Failed() {
			t.FailNow() // a leaked slot would hang a later request
		}
	}
	if passes != 3 {
		t.Fatalf("%d passes for 3 lone requests", passes)
	}
}

// TestArrivalAfterHandOffStartsNextCohort: the pass that hands a cohort
// its slot closes the cohort's intake first, so a request arriving while
// that cohort executes — even one with the very same plan — is not
// answered from its snapshot: it opens the next cohort.
func TestArrivalAfterHandOffStartsNextCohort(t *testing.T) {
	s, _ := newItemServer(t, hybridstore.Options{ChunkRows: 128}, Config{BatchWindow: DefaultBatchWindow})
	sid, _ := s.CreateSession("")
	body := sumBody(sid, prep(t, s, sid, "sum_where", hybridstore.ItemPriceColumn, 0))
	same := func(int) string { return body(0) }
	g := parkPasses(s, (*hybridstore.Table).Execute)
	slots := s.bat.slots
	out := make([]reply, slots+2)
	var wg sync.WaitGroup
	fire(&wg, s, same, out, 0, slots)
	for i := 0; i < slots; i++ {
		g.pass(t)
	}
	// The first request behind the full slots opens cohort A; one pass
	// ends and hands A its slot, and A's own pass parks in flush.
	before := joined()
	fire(&wg, s, same, out, slots, slots+1)
	a := g.awaitCohort(t, before, 1)
	g.release <- struct{}{}
	if k := g.pass(t); k != 1 {
		t.Fatalf("cohort A's pass carried %d slots, want 1", k)
	}
	s.bat.mu.Lock()
	open := len(s.bat.open)
	s.bat.mu.Unlock()
	if open != 0 {
		t.Fatalf("cohort A executes with its intake still open (%d cohorts in the map)", open)
	}
	// The same plan again, while A executes: a new cohort, not A.
	fire(&wg, s, same, out, slots+1, slots+2)
	if b := g.awaitCohort(t, before, 1); b == a {
		t.Fatal("a request that arrived after the hand-off joined the executing cohort")
	}
	close(g.release)
	waitAll(t, &wg)
	if further := len(g.entered); further != 1 {
		t.Fatalf("%d passes after cohort A's, want the next cohort's one", further)
	}
	for i, r := range out {
		if r.code != 200 || r.body != out[0].body {
			t.Errorf("request %d: %d %s, want 200 %s", i, r.code, r.body, out[0].body)
		}
	}
	idle(t, s)
}
