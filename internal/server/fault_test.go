package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hybridstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
)

// Leader-failure coverage: every cohort kind shares one cohort type and
// one flush seam, so one table drives it. Whatever way the shared pass
// ends badly, the leader AND every waiter must see an error — never a
// zero answer, never a hang.

// cohortKinds are the three batched statement kinds: body renders
// request i of a cohort (distinct slots for sum_where and get; identical
// plans collapsing to one slot for group_sum_where).
var cohortKinds = map[string]struct {
	op       string
	collapse bool
	body     func(i int) string
}{
	"sum":   {"sum_where", false, func(i int) string { return fmt.Sprintf(`"pred":{"kind":"lt","hi":%d}`, 10+i) }},
	"group": {"group_sum_where", true, func(int) string { return `"pred":{"kind":"lt","hi":30}` }},
	"get":   {"get", false, func(i int) string { return fmt.Sprintf(`"row":%d`, i) }},
}

// leaderFailures are the ways a flush can go wrong, each with the text
// every cohort member's 500 must carry.
var leaderFailures = map[string]struct {
	flush func(*hybridstore.Table, []exec.Plan) ([]exec.Result, error)
	want  string
}{
	"error": {func(*hybridstore.Table, []exec.Plan) ([]exec.Result, error) {
		return nil, errors.New("injected storage failure")
	}, "injected storage failure"},
	"panic": {func(*hybridstore.Table, []exec.Plan) ([]exec.Result, error) {
		panic("injected leader panic")
	}, "panicked"},
	// Short for every cohort: fewer results than plans is an error for
	// everyone, not an out-of-range panic or a silently wrong zero.
	"short": {func(*hybridstore.Table, []exec.Plan) ([]exec.Result, error) {
		return nil, nil
	}, "returned 0 results"},
}

// leaderFailure runs one (cohort kind, failure) cell: six waiters are
// built into one cohort behind parked passes, every pass — the parked
// ones and the cohort's — fails the injected way, and every request
// must finish 500 with the failure's text, leaving the batcher at rest
// (buildCohort checks that no cohort stays open and no slot stays taken).
func leaderFailure(t *testing.T, kind, failure string) {
	t.Helper()
	s, _ := newItemServer(t, hybridstore.Options{ChunkRows: 128},
		Config{BatchWindow: DefaultBatchWindow})
	sid, _ := s.CreateSession("")
	k := cohortKinds[kind]
	id := prep(t, s, sid, k.op, hybridstore.ItemPriceColumn, 0)

	const waiters = 6
	distinct := waiters
	if k.collapse {
		distinct = 1
	}
	body := func(i int) string {
		return fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,%s}`, sid, id, k.body(i))
	}
	for i, r := range buildCohort(t, s, leaderFailures[failure].flush, body, waiters, distinct) {
		if r.code != 500 || !strings.Contains(r.body, leaderFailures[failure].want) {
			t.Errorf("request %d: %d %s", i, r.code, r.body)
		}
	}
}

func TestBatchLeaderError(t *testing.T)         { leaderFailure(t, "sum", "error") }
func TestBatchLeaderPanic(t *testing.T)         { leaderFailure(t, "sum", "panic") }
func TestBatchLeaderShortResults(t *testing.T)  { leaderFailure(t, "sum", "short") }
func TestBatchGroupLeaderPanic(t *testing.T)    { leaderFailure(t, "group", "panic") }
func TestGatherLeaderError(t *testing.T)        { leaderFailure(t, "get", "error") }
func TestGatherLeaderPanic(t *testing.T)        { leaderFailure(t, "get", "panic") }
func TestGatherLeaderShortResults(t *testing.T) { leaderFailure(t, "get", "short") }

// TestAdmissionInFlightStorm fires a storm of requests where many fail
// (unknown rows, failing batch leaders, throttles and overloads mixed
// in) and asserts the in-flight gauge returns exactly to its starting
// level: no error path may leak an admission token.
func TestAdmissionInFlightStorm(t *testing.T) {
	s, _ := newItemServer(t, hybridstore.Options{ChunkRows: 128},
		Config{BatchWindow: DefaultBatchWindow,
			Admission: Admission{Rate: 1e6, MaxInFlight: 8}})
	boom := errors.New("injected storm failure")
	s.bat.flush = func(tbl *hybridstore.Table, plans []exec.Plan) ([]exec.Result, error) {
		if plans[0].Op == exec.KindSumWhere {
			return nil, boom
		}
		return tbl.Execute(plans)
	}
	sid, _ := s.CreateSession("storm")
	get := prep(t, s, sid, "get", 0, 0)
	sum := prep(t, s, sid, "sum_where", hybridstore.ItemPriceColumn, 0)

	before := obs.TakeSnapshot().Gauge("server.admission.inflight")
	const workers, perWorker = 16, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var body string
				switch i % 3 {
				case 0: // bad row → 500
					body = fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":999999}`, sid, get)
				case 1: // failing batch leader → 500
					body = fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"pred":{"kind":"lt","hi":%d}}`, sid, sum, i)
				default: // fine
					body = fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":1}`, sid, get)
				}
				exec1(s, body)
			}
		}(w)
	}
	wg.Wait()
	after := obs.TakeSnapshot().Gauge("server.admission.inflight")
	if after != before {
		t.Fatalf("in-flight gauge leaked: %d before storm, %d after", before, after)
	}
	idle(t, s) // nor a pass slot
}
