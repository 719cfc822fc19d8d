package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"hybridstore"
)

// post sends a JSON body and returns status and response body.
func post(t *testing.T, client *http.Client, url, body string) (int, string) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestHTTPEndToEnd drives the full wire protocol over a real TCP
// loopback listener: session, prepare, exec of every op class, metrics
// and health — the same path cmd/loadgen exercises.
func TestHTTPEndToEnd(t *testing.T) {
	s, tbl := newItemServer(t,
		hybridstore.Options{ChunkRows: 128, DeviceCache: true},
		Config{BatchWindow: DefaultBatchWindow})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	// Clients may still name a tenant; the key is ignored. A body that is
	// not an object is refused.
	if code, body := post(t, c, ts.URL+"/v1/session", `{"tenant"`); code != 400 {
		t.Fatalf("malformed session body: %d %s, want 400", code, body)
	}
	code, body := post(t, c, ts.URL+"/v1/session", `{"tenant":"t1"}`)
	if code != 200 || !strings.HasPrefix(body, `{"session_id":"`) {
		t.Fatalf("session: %d %s", code, body)
	}
	sid := strings.TrimSuffix(strings.TrimPrefix(body, `{"session_id":"`), `"}`)

	code, body = post(t, c, ts.URL+"/v1/prepare", fmt.Sprintf(
		`{"session_id":"%s","op":"sum_where","table":"item","col":%d}`, sid, hybridstore.ItemPriceColumn))
	if code != 200 || body != `{"stmt_id":0}` {
		t.Fatalf("prepare: %d %s", code, body)
	}

	ws, wn, err := tbl.SumFloat64Where(hybridstore.ItemPriceColumn, hybridstore.LtFloat(30))
	if err != nil {
		t.Fatal(err)
	}
	code, body = post(t, c, ts.URL+"/v1/exec", fmt.Sprintf(
		`{"session_id":"%s","stmt_id":0,"pred":{"kind":"lt","hi":30}}`, sid))
	want := fmt.Sprintf(`{"sum":%s,"count":%d}`, string(appendF64(nil, ws)), wn)
	if code != 200 || body != want {
		t.Fatalf("exec: %d %s, want %s", code, body, want)
	}

	// Protocol errors surface as HTTP statuses with error payloads.
	code, body = post(t, c, ts.URL+"/v1/exec", `{"session_id":"zz","stmt_id":0}`)
	if code != 404 || !strings.Contains(body, "error") {
		t.Fatalf("unknown session over HTTP: %d %s", code, body)
	}

	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(mb), "server.exec.sum_where.ops") {
		t.Fatalf("metrics: %d (%d bytes)", resp.StatusCode, len(mb))
	}
	resp, err = c.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(hb) != `{"ok":true}` {
		t.Fatalf("healthz: %d %s", resp.StatusCode, hb)
	}
}

// TestRequestBodyBound: a request body is bounded by maxBodyBytes on
// all three POST handlers. A body announced beyond the bound is refused
// on its header alone — the server must not allocate in proportion to a
// Content-Length a client merely sends — and one that turns out longer
// while it is read (chunked, so nothing is announced) is refused as soon
// as it crosses the bound. A body of exactly the bound is served.
func TestRequestBodyBound(t *testing.T) {
	s, _ := newItemServer(t, hybridstore.Options{ChunkRows: 128}, Config{})
	h := s.Handler()
	serve := func(path string, body io.Reader, announced int64) (int, uint64) {
		req := httptest.NewRequest("POST", path, body)
		req.ContentLength = announced
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		return rec.Code, after.TotalAlloc - before.TotalAlloc
	}
	for _, path := range []string{"/v1/session", "/v1/prepare", "/v1/exec"} {
		code, alloc := serve(path, strings.NewReader("{}"), 1<<30)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s announcing 1 GiB: status %d, want 413", path, code)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s announcing 1 GiB: allocated %d bytes for a 2-byte body", path, alloc)
		}
		// io.MultiReader hides the length: the request is chunked.
		chunked := io.MultiReader(strings.NewReader(`{"pad":"`), strings.NewReader(strings.Repeat("a", 2<<20)), strings.NewReader(`"}`))
		if code, _ := serve(path, chunked, -1); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a chunked 2 MiB body: status %d, want 413", path, code)
		}
	}
	pad := strings.Repeat("a", maxBodyBytes-len(`{"tenant":"t","pad":""}`))
	full := `{"tenant":"t","pad":"` + pad + `"}`
	if len(full) != maxBodyBytes {
		t.Fatalf("fixture is %d bytes, want %d", len(full), maxBodyBytes)
	}
	for _, announced := range []int64{int64(len(full)), -1} {
		if code, _ := serve("/v1/session", strings.NewReader(full), announced); code != 200 {
			t.Errorf("session with a body of exactly the bound (announced %d): status %d, want 200", announced, code)
		}
	}
}

// A statement that could never execute does not prepare: /v1/prepare
// answers 400 for a float or char group key, an out-of-range column and
// a non-float aggregate. And over every (op, col, key_col) the item
// schema allows, whatever does prepare executes — no statement id is
// handed out that Exec can only answer with a 500 about its columns
// (group_sum_where with key_col = price used to be one).
func TestPrepareRejectsWhatExecWould(t *testing.T) {
	s, _ := newItemServer(t, hybridstore.Options{ChunkRows: 128}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sid, _ := s.CreateSession()
	const price, name, arity = hybridstore.ItemPriceColumn, 2, 5
	for _, tc := range []struct {
		op          string
		col, keyCol int
	}{
		{"group_sum_where", price, price}, // float key
		{"group_sum_where", price, name},  // char key
		{"group_sum_where", price, arity}, // key out of range
		{"group_sum_where", price, -1},
		{"group_sum_where", 1, 1}, // int32 aggregate
		{"sum_where", arity, 0},
		{"sum", -1, 0},
		{"sum_where", name, 0},
	} {
		code, body := post(t, ts.Client(), ts.URL+"/v1/prepare", fmt.Sprintf(
			`{"session_id":"%s","op":"%s","table":"item","col":%d,"key_col":%d}`, sid, tc.op, tc.col, tc.keyCol))
		if code != 400 {
			t.Errorf("prepare %s col %d key_col %d: %d %s, want 400", tc.op, tc.col, tc.keyCol, code, body)
		}
	}

	args := map[string]string{
		"get": `"row":3`, "get_pk": `"pk":3`, "sum": `"x":0`,
		"sum_where":       `"pred":{"kind":"lt","hi":30}`,
		"group_sum_where": `"pred":{"kind":"gt","lo":1}`,
	}
	prepared := 0
	for op, arg := range args {
		for col := -1; col <= arity; col++ {
			for keyCol := -1; keyCol <= arity; keyCol++ {
				id, err := s.Prepare(sid, op, "item", col, keyCol)
				if err != nil {
					continue
				}
				prepared++
				body, code := exec1(s, fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,%s}`, sid, id, arg))
				if code != 200 {
					t.Errorf("%s col %d key_col %d prepared, then Exec: %d %s", op, col, keyCol, code, body)
				}
			}
		}
	}
	// get and get_pk bind no column (2·49); the two float aggregates take
	// price with any key_col (2·7); the grouped one the two integer keys.
	if want := 2*49 + 2*7 + 2; prepared != want {
		t.Errorf("%d statements prepared, want %d", prepared, want)
	}
}

// TestSessionAndStatementCaps: the server refuses what would make it
// hold unbounded state — /v1/session answers 503 past maxSessions,
// /v1/prepare 400 naming the cap past maxStmtsPerSession — and a
// statement prepared before the cap still executes at it.
func TestSessionAndStatementCaps(t *testing.T) {
	s, _ := newItemServer(t, hybridstore.Options{ChunkRows: 128}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sid, _ := s.CreateSession()
	first := prep(t, s, sid, "get", 0, 0)
	for i := 1; i < maxStmtsPerSession; i++ {
		prep(t, s, sid, "get", 0, 0)
	}
	code, body := post(t, ts.Client(), ts.URL+"/v1/prepare",
		fmt.Sprintf(`{"session_id":"%s","op":"get","table":"item","col":0}`, sid))
	if code != 400 || !strings.Contains(body, fmt.Sprint(maxStmtsPerSession)) {
		t.Fatalf("prepare past the cap: %d %s, want 400 naming %d", code, body, maxStmtsPerSession)
	}
	code, body = post(t, ts.Client(), ts.URL+"/v1/exec",
		fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":3}`, sid, first))
	if code != 200 || !strings.HasPrefix(body, `{"record":[3,`) {
		t.Fatalf("exec at the statement cap: %d %s", code, body)
	}

	for i := 1; i < maxSessions; i++ {
		if _, err := s.CreateSession(); err != nil {
			t.Fatalf("session %d of %d refused: %v", i+1, maxSessions, err)
		}
	}
	if code, body = post(t, ts.Client(), ts.URL+"/v1/session", `{}`); code != 503 {
		t.Fatalf("session past the cap: %d %s, want 503", code, body)
	}
	// The full table still serves the sessions it holds.
	if _, code := exec1(s, fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":3}`, sid, first)); code != 200 {
		t.Fatalf("exec at the session cap: %d", code)
	}
}
