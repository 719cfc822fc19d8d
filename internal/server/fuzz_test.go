package server

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"hybridstore"
	"hybridstore/internal/exec"
)

// appendPredJSON renders p back to the wire form parsePred accepts —
// the exact bits survive the round trip because bounds are printed with
// strconv's shortest-exact format. It is the reference renderer the
// round-trip properties below hold parsePred to.
func appendPredJSON(buf []byte, p exec.Pred) []byte {
	buf = append(buf, `{"kind":"`...)
	buf = append(buf, p.Op.String()...)
	buf = append(buf, '"')
	switch p.Op {
	case exec.OpLT:
		buf = append(buf, `,"hi":`...)
		buf = appendF64(buf, p.Hi)
	case exec.OpGT, exec.OpEQ:
		buf = append(buf, `,"lo":`...)
		buf = appendF64(buf, p.Lo)
	case exec.OpBetween:
		buf = append(buf, `,"lo":`...)
		buf = appendF64(buf, p.Lo)
		buf = append(buf, `,"hi":`...)
		buf = appendF64(buf, p.Hi)
	}
	return append(buf, '}')
}

// FuzzParsePred feeds untrusted wire bytes to the predicate decoder: it
// never panics, and whatever it accepts re-renders through
// appendPredJSON and parses back to identical bounds.
func FuzzParsePred(f *testing.F) {
	for _, p := range []exec.Pred{
		exec.Eq(1.5), exec.Lt(-0.0), exec.Gt(math.MaxFloat64),
		exec.Between(math.SmallestNonzeroFloat64, 0.1), exec.Between(3, 3),
		exec.Lt(math.Inf(1)), exec.Gt(math.Inf(-1)),
	} {
		f.Add(appendPredJSON(nil, p))
	}
	for _, raw := range []string{
		`{"kind":"eq","v":7}`, `{"kind":"between","lo":5,"hi":1}`, `{"kind":"lt","hi":"x"}`,
		`{"kind":"gt","lo":NaN}`, `{"kind":"ne","lo":1}`, `{"kind":"eq","lo":1e999}`, `{`, ``,
	} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := parsePred(raw)
		if err != nil {
			return
		}
		wire := appendPredJSON(nil, p)
		got, err := parsePred(wire)
		if err != nil {
			t.Fatalf("%q parsed as %#v, whose rendering %q does not parse: %v", raw, p, wire, err)
		}
		if got.Op != p.Op || math.Float64bits(got.Lo) != math.Float64bits(p.Lo) ||
			math.Float64bits(got.Hi) != math.Float64bits(p.Hi) {
			t.Fatalf("%q: round trip changed pred: %#v -> %#v", raw, p, got)
		}
	})
}

// fuzzStmts are the statements FuzzExec prepares, in order (statement i
// has id i): an update on every column kind of the item schema, then an
// insert and every read.
var fuzzStmts = []struct {
	op          string
	col, keyCol int
	args        string // a valid argument list, the seed
}{
	{"update", 0, 0, `"row":1,"value":7`}, // INT64 (the immutable key)
	{"update", 1, 0, `"row":2,"value":-5`},
	{"update", 2, 0, `"row":3,"value":"a\"b"`},
	{"update", 3, 0, `"row":4,"value":"zz"`},
	{"update", 4, 0, `"row":5,"value":2.5`},
	{"insert", 0, 0, `"record":[900,1,"n","ab",3.5]`},
	{"get", 0, 0, `"row":6`},
	{"get_pk", 0, 0, `"pk":7`},
	{"sum", 4, 0, ``},
	{"sum_where", 4, 0, `"pred":{"kind":"between","lo":1,"hi":30}`},
	{"group_sum_where", 4, 1, `"pred":{"kind":"gt","lo":10}`},
}

// FuzzExec feeds arbitrary bodies to Server.Exec — the wire scanner above
// parsePred, argument decoding and dispatch — over a fresh small item
// table with every statement of fuzzStmts prepared. It never panics,
// every response is valid JSON, a non-200 response is exactly
// {"error":"…"}, and afterwards the table still merges and every row
// reads.
func FuzzExec(f *testing.F) {
	for i, st := range fuzzStmts {
		body := fmt.Sprintf(`{"session_id":"s1","stmt_id":%d`, i)
		if st.args != "" {
			body += "," + st.args
		}
		f.Add([]byte(body + "}"))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		db := hybridstore.Open(hybridstore.Options{ChunkRows: 16, HotChunks: 1})
		tbl, err := db.CreateTable("item", hybridstore.ItemSchema())
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Free()
		for i := uint64(0); i < 40; i++ {
			if _, err := tbl.Insert(hybridstore.Item(i)); err != nil {
				t.Fatal(err)
			}
		}
		s := New(Config{DB: db, BatchWindow: DefaultBatchWindow})
		sid, err := s.CreateSession()
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range fuzzStmts {
			if id, err := s.Prepare(sid, st.op, "item", st.col, st.keyCol); err != nil || id != i {
				t.Fatalf("prepare %s: id %d, %v", st.op, id, err)
			}
		}

		out, code := s.Exec(body, nil)
		if !json.Valid(out) {
			t.Fatalf("%q answered %d with invalid JSON %q", body, code, out)
		}
		if code != 200 {
			var e map[string]json.RawMessage
			var msg string
			if err := json.Unmarshal(out, &e); err != nil || len(e) != 1 || json.Unmarshal(e["error"], &msg) != nil {
				t.Fatalf("%q answered %d with %s, want {\"error\":…}", body, code, out)
			}
		}
		if err := tbl.Merge(); err != nil {
			t.Fatalf("%q: Merge: %v", body, err)
		}
		for r := uint64(0); r < tbl.Rows(); r++ {
			if _, err := tbl.Get(r); err != nil {
				t.Fatalf("%q: Get(%d): %v", body, r, err)
			}
		}
	})
}
