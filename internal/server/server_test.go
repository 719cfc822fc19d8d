package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hybridstore"
	"hybridstore/internal/obs"
)

// newItemServer opens a DB with a loaded item table and a server over
// it. Returns the server and the table for ground-truth queries.
func newItemServer(t *testing.T, opts hybridstore.Options, cfg Config) (*Server, *hybridstore.Table) {
	t.Helper()
	db := hybridstore.Open(opts)
	tbl, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Free)
	const rows = 800
	for i := uint64(0); i < rows; i++ {
		if _, err := tbl.Insert(hybridstore.Item(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Leave unmerged deltas so the serving path crosses the MVCC patch.
	for i := uint64(0); i < rows; i += 41 {
		if err := tbl.Update(i, hybridstore.ItemPriceColumn, hybridstore.FloatValue(float64(i%53))); err != nil {
			t.Fatal(err)
		}
	}
	cfg.DB = db
	return New(cfg), tbl
}

// prep prepares one statement or fails the test.
func prep(t *testing.T, s *Server, sid, op string, col, keyCol int) int {
	t.Helper()
	id, err := s.Prepare(sid, op, "item", col, keyCol)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", op, err)
	}
	return id
}

// exec1 runs one wire-format request and returns body and status.
func exec1(s *Server, body string) (string, int) {
	out, code := s.Exec([]byte(body), nil)
	return string(out), code
}

func TestServeLifecycle(t *testing.T) {
	s, tbl := newItemServer(t, hybridstore.Options{ChunkRows: 128}, Config{})
	sid, _ := s.CreateSession()

	get := prep(t, s, sid, "get", 0, 0)
	upd := prep(t, s, sid, "update", hybridstore.ItemPriceColumn, 0)
	sum := prep(t, s, sid, "sum_where", hybridstore.ItemPriceColumn, 0)
	grp := prep(t, s, sid, "group_sum_where", hybridstore.ItemPriceColumn, 1)
	ins := prep(t, s, sid, "insert", 0, 0)
	pks := prep(t, s, sid, "get_pk", 0, 0)

	// Point read, then point write, then read back through the server.
	resp, code := exec1(s, fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":7}`, sid, get))
	if code != 200 || !strings.HasPrefix(resp, `{"record":[7,`) {
		t.Fatalf("get: %d %s", code, resp)
	}
	resp, code = exec1(s, fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":7,"value":12.25}`, sid, upd))
	if code != 200 || resp != `{"ok":true}` {
		t.Fatalf("update: %d %s", code, resp)
	}
	rec, err := tbl.Get(7)
	if err != nil || rec[hybridstore.ItemPriceColumn].F != 12.25 {
		t.Fatalf("update not visible: %v %v", rec, err)
	}

	// Predicate aggregate matches the facade bit for bit, including the
	// decimal round trip.
	wantSum, wantN, err := tbl.SumFloat64Where(hybridstore.ItemPriceColumn, hybridstore.LtFloat(30))
	if err != nil {
		t.Fatal(err)
	}
	resp, code = exec1(s, fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"pred":{"kind":"lt","hi":30}}`, sid, sum))
	exp := fmt.Sprintf(`{"sum":%s,"count":%d}`, string(appendF64(nil, wantSum)), wantN)
	if code != 200 || resp != exp {
		t.Fatalf("sum_where: %d %s, want %s", code, resp, exp)
	}

	// Grouped aggregate equals the facade's answer in key order.
	groups, err := tbl.GroupBySumWhere(1, hybridstore.ItemPriceColumn, hybridstore.GtFloat(1))
	if err != nil {
		t.Fatal(err)
	}
	var b []byte
	b = append(b, `{"groups":[`...)
	for i, g := range groups {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendI64(append(b, '['), g.Key)
		b = appendF64(append(b, ','), g.Sum)
		b = appendI64(append(b, ','), g.Count)
		b = append(b, ']')
	}
	b = append(b, `]}`...)
	resp, code = exec1(s, fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"pred":{"kind":"gt","lo":1}}`, sid, grp))
	if code != 200 || resp != string(b) {
		t.Fatalf("group_sum_where: %d\n got %s\nwant %s", code, resp, b)
	}

	// Insert through the wire, then read it back by primary key.
	rows := tbl.Rows()
	resp, code = exec1(s, fmt.Sprintf(
		`{"session_id":"%s","stmt_id":%d,"record":[9001,17,"itmx","ab",3.5]}`, sid, ins))
	if code != 200 || resp != fmt.Sprintf(`{"row":%d}`, rows) {
		t.Fatalf("insert: %d %s", code, resp)
	}
	resp, code = exec1(s, fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"pk":9001}`, sid, pks))
	if code != 200 || !strings.HasPrefix(resp, `{"record":[9001,17,"itmx","ab",3.5]`) {
		t.Fatalf("get_pk: %d %s", code, resp)
	}
}

func TestServeErrors(t *testing.T) {
	s, tbl := newItemServer(t, hybridstore.Options{ChunkRows: 128}, Config{})
	sid, _ := s.CreateSession()
	sum := prep(t, s, sid, "sum_where", hybridstore.ItemPriceColumn, 0)
	get := prep(t, s, sid, "get", 0, 0)
	upd := prep(t, s, sid, "update", hybridstore.ItemPriceColumn, 0)
	updIM := prep(t, s, sid, "update", 1, 0)   // i_im_id INT32
	updName := prep(t, s, sid, "update", 2, 0) // i_name CHAR(6)
	ins := prep(t, s, sid, "insert", 0, 0)

	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"bad json", `{"session_id"`, 400},
		{"unknown session", `{"session_id":"nope","stmt_id":0}`, 404},
		{"unknown stmt", fmt.Sprintf(`{"session_id":"%s","stmt_id":99}`, sid), 404},
		{"missing pred", fmt.Sprintf(`{"session_id":"%s","stmt_id":%d}`, sid, sum), 400},
		{"bad pred kind", fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"pred":{"kind":"ge","lo":1}}`, sid, sum), 400},
		// A negative row is a protocol error, not row 2^64-1 of the table.
		{"negative get row", fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":-1}`, sid, get), 400},
		{"negative update row", fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":-1,"value":1.5}`, sid, upd), 400},
		// A value its column cannot hold is the client's error, refused
		// before the engine sees it — not wrapped, not truncated, not a 500.
		{"int32 out of range", fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":3,"value":4294967303}`, sid, updIM), 400},
		{"char over width", fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":3,"value":"elevenbytes"}`, sid, updName), 400},
		{"insert char over width", fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"record":[9001,1,"elevenbytes","ab",1.5]}`, sid, ins), 400},
		{"insert int32 out of range", fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"record":[9002,-2147483649,"n","ab",1.5]}`, sid, ins), 400},
	} {
		resp, code := exec1(s, tc.body)
		if code != tc.code || !strings.Contains(resp, `"error"`) {
			t.Errorf("%s: got %d %s, want status %d with error payload", tc.name, code, resp, tc.code)
		}
	}
	if rec, err := tbl.Get(3); err != nil || !rec.Equal(hybridstore.Item(3)) {
		t.Errorf("row 3 after refused updates = %v, %v; want %v", rec, err, hybridstore.Item(3))
	}
	if err := tbl.Merge(); err != nil {
		t.Errorf("Merge after refused requests: %v", err)
	}

	// Prepare-time validation.
	if _, err := s.Prepare(sid, "sum_where", "item", 0, 0); err == nil {
		t.Error("sum_where over an int column prepared without error")
	}
	if _, err := s.Prepare(sid, "get", "void", 0, 0); err == nil {
		t.Error("prepare against unknown table succeeded")
	}
	if _, err := s.Prepare("zz", "get", "item", 0, 0); err == nil {
		t.Error("prepare against unknown session succeeded")
	}
}

// TestCharFieldsRoundTripAsJSON: a Char field holding a quote, a
// backslash or a control byte is served as valid JSON, and a string sent
// over the wire is stored as the bytes it denotes — served ≡ direct,
// whichever side the record entered by.
func TestCharFieldsRoundTripAsJSON(t *testing.T) {
	s, tbl := newItemServer(t, hybridstore.Options{ChunkRows: 128}, Config{})
	sid, _ := s.CreateSession()
	ins := prep(t, s, sid, "insert", 0, 0)
	get := prep(t, s, sid, "get", 0, 0)
	for i, name := range []string{`a"b\c`, `"`, `\`, "a\nb", "\x01", "plain"} {
		var row uint64
		if i%2 == 1 { // in through the wire ...
			wire, _ := json.Marshal(name)
			resp, code := exec1(s, fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"record":[%d,1,%s,"ab",2.5]}`, sid, ins, 9000+i, wire))
			if _, err := fmt.Sscanf(resp, `{"row":%d}`, &row); code != 200 || err != nil {
				t.Fatalf("%q: insert answered %d %s", name, code, resp)
			}
		} else { // ... or through the facade
			rec := hybridstore.Item(uint64(9000 + i))
			rec[2] = hybridstore.CharValue(name)
			var err error
			if row, err = tbl.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		direct, err := tbl.Get(row)
		if err != nil {
			t.Fatal(err)
		}
		if direct[2].S != name {
			t.Fatalf("%q: stored as %q", name, direct[2].S)
		}
		resp, code := exec1(s, fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":%d}`, sid, get, row))
		var served struct{ Record []any }
		if err := json.Unmarshal([]byte(resp), &served); code != 200 || err != nil {
			t.Fatalf("%q: get answered %d %s: %v", name, code, resp, err)
		}
		if got := served.Record[2]; got != direct[2].S || served.Record[3] != direct[3].S {
			t.Fatalf("%q: served %q, direct %q", name, got, direct[2].S)
		}
	}
	// An error message is a JSON string too, whatever the request put in it.
	resp, _ := exec1(s, `{"session_id":"no\"such\nsession","stmt_id":0}`)
	var e struct{ Error string }
	if err := json.Unmarshal([]byte(resp), &e); err != nil || e.Error == "" {
		t.Fatalf("error payload %s: %v", resp, err)
	}
}

// TestNaNPredRejected: strconv accepts "NaN", and a NaN bound never
// equals itself — a plan carrying one could never be deleted from the
// cohort intake map again (one leaked cohort per request) nor collapse
// with its own repeats. The wire parser refuses it with a 400 and the
// intake map stays empty.
func TestNaNPredRejected(t *testing.T) {
	s, _ := newItemServer(t, hybridstore.Options{ChunkRows: 128},
		Config{BatchWindow: DefaultBatchWindow})
	sid, _ := s.CreateSession()
	grp := prep(t, s, sid, "group_sum_where", hybridstore.ItemPriceColumn, 1)
	sum := prep(t, s, sid, "sum_where", hybridstore.ItemPriceColumn, 0)
	for i := 0; i < 3; i++ {
		for _, id := range []int{grp, sum} {
			body := fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"pred":{"kind":"gt","lo":NaN}}`, sid, id)
			if resp, code := exec1(s, body); code != 400 {
				t.Fatalf("NaN predicate answered %d %s, want 400", code, resp)
			}
		}
	}
	if n := len(s.bat.open); n != 0 {
		t.Fatalf("%d cohorts leaked in the intake map", n)
	}
}

// TestBatchedBitIdentity is the serving-layer property test: with
// batching on, 32 concurrent clients firing compatible
// analytics must each receive exactly the bytes the solo (unbatched)
// execution of their request produces — shared passes are a pure
// execution-cost optimization, invisible in results.
func TestBatchedBitIdentity(t *testing.T) {
	s, tbl := newItemServer(t,
		hybridstore.Options{ChunkRows: 128, DeviceCache: true},
		Config{BatchWindow: DefaultBatchWindow})
	sid, _ := s.CreateSession()
	sum := prep(t, s, sid, "sum_where", hybridstore.ItemPriceColumn, 0)
	grp := prep(t, s, sid, "group_sum_where", hybridstore.ItemPriceColumn, 1)

	preds := []struct {
		wire string
		p    hybridstore.FloatPred
	}{
		{`{"kind":"lt","hi":30}`, hybridstore.LtFloat(30)},
		{`{"kind":"gt","lo":50}`, hybridstore.GtFloat(50)},
		{`{"kind":"between","lo":10,"hi":60}`, hybridstore.BetweenFloat(10, 60)},
		{`{"kind":"eq","lo":42}`, hybridstore.EqFloat(42)},
	}
	// Ground truth from the facade, serialized exactly as the server
	// serializes. Writes are quiesced for the whole read phase.
	wantSum := make([]string, len(preds))
	wantGrp := make([]string, len(preds))
	for i, pr := range preds {
		ws, wn, err := tbl.SumFloat64Where(hybridstore.ItemPriceColumn, pr.p)
		if err != nil {
			t.Fatal(err)
		}
		wantSum[i] = fmt.Sprintf(`{"sum":%s,"count":%d}`, string(appendF64(nil, ws)), wn)
		groups, err := tbl.GroupBySumWhere(1, hybridstore.ItemPriceColumn, pr.p)
		if err != nil {
			t.Fatal(err)
		}
		var b []byte
		b = append(b, `{"groups":[`...)
		for j, g := range groups {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendI64(append(b, '['), g.Key)
			b = appendF64(append(b, ','), g.Sum)
			b = appendI64(append(b, ','), g.Count)
			b = append(b, ']')
		}
		wantGrp[i] = string(append(b, `]}`...))
	}

	before := obs.TakeSnapshot()
	const clients = 32
	const reqsEach = 20
	var wg sync.WaitGroup
	errs := make(chan string, clients*reqsEach)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < reqsEach; i++ {
				k := r.Intn(len(preds))
				if r.Intn(4) == 0 {
					resp, code := exec1(s, fmt.Sprintf(
						`{"session_id":"%s","stmt_id":%d,"pred":%s}`, sid, grp, preds[k].wire))
					if code != 200 || resp != wantGrp[k] {
						errs <- fmt.Sprintf("group pred %d: %d %s\nwant %s", k, code, resp, wantGrp[k])
						return
					}
				} else {
					resp, code := exec1(s, fmt.Sprintf(
						`{"session_id":"%s","stmt_id":%d,"pred":%s}`, sid, sum, preds[k].wire))
					if code != 200 || resp != wantSum[k] {
						errs <- fmt.Sprintf("sum pred %d: %d %s\nwant %s", k, code, resp, wantSum[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// The cohort structure must be visible: passes were shared.
	after := obs.TakeSnapshot()
	flushes := after.Counter("server.batch.flushes") - before.Counter("server.batch.flushes")
	joined := after.Counter("server.batch.joined") - before.Counter("server.batch.joined")
	if flushes == 0 {
		t.Error("no batch flushes under 32 concurrent clients")
	}
	if joined == 0 {
		t.Error("no requests joined a shared pass under 32 concurrent clients")
	}
	total := int64(clients * reqsEach)
	if flushes >= total {
		t.Errorf("flushes %d not smaller than requests %d: nothing was shared", flushes, total)
	}
}

// TestPredRoundTrip pins the wire format's bit-exactness: a predicate
// rendered by appendPredJSON parses back to identical bounds, for
// random (including non-representable-in-short-decimal) float64s.
func TestPredRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		var p hybridstore.FloatPred
		lo := math.Float64frombits(r.Uint64())
		hi := math.Float64frombits(r.Uint64())
		if math.IsNaN(lo) || math.IsNaN(hi) {
			continue
		}
		switch i % 4 {
		case 0:
			p = hybridstore.EqFloat(lo)
		case 1:
			p = hybridstore.LtFloat(hi)
		case 2:
			p = hybridstore.GtFloat(lo)
		default:
			p = hybridstore.BetweenFloat(lo, hi)
		}
		got, err := parsePred(appendPredJSON(nil, p))
		if err != nil {
			t.Fatalf("round trip %v: %v", p, err)
		}
		if math.Float64bits(got.Lo) != math.Float64bits(p.Lo) ||
			math.Float64bits(got.Hi) != math.Float64bits(p.Hi) || got.Op != p.Op {
			t.Fatalf("round trip changed pred: %#v -> %#v", p, got)
		}
	}
}
