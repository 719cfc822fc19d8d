package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"hybridstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
)

// Config assembles a Server.
type Config struct {
	// DB is the open store the server fronts. Required.
	DB *hybridstore.DB
	// BatchWindow switches shared-scan batching on: any value above 0
	// means on, 0 (the default) that every request executes solo. The
	// batcher keeps no clock — a cohort collects while its shape's pass
	// slots are taken (batch.go) — so the duration itself means nothing;
	// the field keeps its name and type because bench/ sets it, and
	// becomes a bool with the next benchmark PR.
	BatchWindow time.Duration
}

// DefaultBatchWindow is the value callers that want batching pass as
// Config.BatchWindow. Only its being above 0 matters (see there); the
// rename waits for the same benchmark PR.
const DefaultBatchWindow = 200 * time.Microsecond

// Server is the serving layer: sessions, prepared statements and the
// batching scheduler over one DB.
type Server struct {
	db  *hybridstore.DB
	bat *batcher

	mu       sync.RWMutex
	sessions map[string]*session

	// Per-op-class telemetry, indexed by opKind. Latency is observed
	// BEFORE the op counter increments (the obs snapshot pairing
	// convention), so a metrics scrape never sees an op whose latency
	// is missing.
	opNs  [opCount]*obs.Histogram
	opOps [opCount]*obs.Counter
	opErr [opCount]*obs.Counter

	// Result-cache pre-check telemetry per op class: lookups counts
	// every dispatch that consulted the cache before paying for
	// execution; hits the subset answered on the spot. Write classes never consult, so
	// their counters stay zero.
	opCacheLk  [opCount]*obs.Counter
	opCacheHit [opCount]*obs.Counter
}

// New builds a Server over cfg.DB.
func New(cfg Config) *Server {
	s := &Server{
		db:       cfg.DB,
		bat:      newBatcher(cfg.BatchWindow > 0),
		sessions: make(map[string]*session),
	}
	for k := range opName {
		s.opNs[k] = obs.NewHistogram("server.exec." + opName[k] + ".ns")
		s.opOps[k] = obs.NewCounter("server.exec." + opName[k] + ".ops")
		s.opErr[k] = obs.NewCounter("server.exec." + opName[k] + ".errors")
		s.opCacheLk[k] = obs.NewCounter("server.cache." + opName[k] + ".lookups")
		s.opCacheHit[k] = obs.NewCounter("server.cache." + opName[k] + ".hits")
	}
	return s
}

// Exec runs one prepared statement from its wire-format body and
// appends the response JSON to out — the transport-independent core
// the HTTP handler, the benchmarks and the in-process load harness all
// drive. Returns the extended buffer and the HTTP status code.
//
// The body is scanned in place and the response built into the
// caller's (pooled) buffer: a warm sum_where costs a fixed handful of
// allocations end to end (gated by TestServeSumWhereAllocBudget).
func (s *Server) Exec(body, out []byte) ([]byte, int) {
	var (
		sessID, value, predRaw, recordRaw []byte
		stmtID, row, pk                   int64
		hasRow, hasPK                     bool
	)
	stmtID = -1
	_, err := scanObject(body, func(key, val []byte) error {
		switch string(key) {
		case "session_id":
			sessID = val
		case "stmt_id":
			n, err := parseI64(val)
			if err != nil {
				return fmt.Errorf("%w: stmt_id: %v", errProto, err)
			}
			stmtID = n
		case "row":
			n, err := parseI64(val)
			if err != nil {
				return fmt.Errorf("%w: row: %v", errProto, err)
			}
			row, hasRow = n, true
		case "pk":
			n, err := parseI64(val)
			if err != nil {
				return fmt.Errorf("%w: pk: %v", errProto, err)
			}
			pk, hasPK = n, true
		case "value":
			value = val
		case "pred":
			predRaw = val
		case "record":
			recordRaw = val
		}
		return nil
	})
	if err != nil {
		return appendError(out, err), 400
	}
	ss := s.session(sessID)
	if ss == nil {
		return appendError(out, fmt.Errorf("server: unknown session %q", sessID)), 404
	}
	st := ss.stmt(stmtID)
	if st == nil {
		return appendError(out, fmt.Errorf("server: unknown statement %d", stmtID)), 404
	}

	t0 := time.Now()
	out, err = s.dispatch(st, out, execArgs{
		row: row, pk: pk, hasRow: hasRow, hasPK: hasPK,
		value: value, predRaw: predRaw, recordRaw: recordRaw,
	})
	s.opNs[st.op].ObserveSince(t0)
	s.opOps[st.op].Inc()
	if err != nil {
		s.opErr[st.op].Inc()
		if errors.Is(err, errProto) {
			return appendError(out, err), 400
		}
		return appendError(out, err), 500
	}
	return out, 200
}

// execArgs is the decoded argument set of one Exec call.
type execArgs struct {
	row, pk       int64
	hasRow, hasPK bool
	value         []byte
	predRaw       []byte
	recordRaw     []byte
}

// dispatch executes st and appends the success payload to out. On
// error the partial payload is discarded by the caller via appendError.
func (s *Server) dispatch(st *stmt, out []byte, a execArgs) ([]byte, error) {
	switch st.op {
	case opUpdate:
		if !a.hasRow || a.value == nil {
			return out, fmt.Errorf("%w: update needs row and value", errProto)
		}
		if a.row < 0 {
			return out, fmt.Errorf("%w: negative row %d", errProto, a.row)
		}
		v, err := decodeValue(st.col, a.value)
		if err != nil {
			return out, err
		}
		if err := st.tbl.Update(uint64(a.row), st.plan.Col, v); err != nil {
			return out, err
		}
		return append(out, `{"ok":true}`...), nil

	case opInsert:
		if a.recordRaw == nil {
			return out, fmt.Errorf("%w: insert needs record", errProto)
		}
		sc := st.tbl.Schema()
		rec := make(hybridstore.Record, 0, sc.Arity())
		i := 0
		err := scanArray(a.recordRaw, func(val []byte) error {
			if i >= sc.Arity() {
				return fmt.Errorf("%w: record has more than %d fields", errProto, sc.Arity())
			}
			v, err := decodeValue(sc.Attr(i), val)
			if err != nil {
				return err
			}
			rec = append(rec, v)
			i++
			return nil
		})
		if err != nil {
			return out, err
		}
		if i != sc.Arity() {
			return out, fmt.Errorf("%w: record has %d of %d fields", errProto, i, sc.Arity())
		}
		rowID, err := st.tbl.Insert(rec)
		if err != nil {
			return out, err
		}
		out = append(out, `{"row":`...)
		out = appendI64(out, int64(rowID))
		return append(out, '}'), nil
	}

	// Every read is one path: bind the statement's plan template, probe
	// the result cache (a hit skips the batcher and the storage pass),
	// execute, serialize by kind. Only predicated scans ride the batcher:
	// a point read is one row, and an unpredicated sum has no co-runners
	// to share a pass with.
	p := st.plan
	known := true // get_pk: false when the key is not indexed
	switch {
	case st.op == opGetPK:
		if !a.hasPK {
			return out, fmt.Errorf("%w: get_pk needs pk", errProto)
		}
		p.Row, known = st.tbl.LookupPK(a.pk)
	case p.Op == exec.KindGet:
		if !a.hasRow {
			return out, fmt.Errorf("%w: get needs row", errProto)
		}
		if a.row < 0 {
			return out, fmt.Errorf("%w: negative row %d", errProto, a.row)
		}
		p.Row = uint64(a.row)
	case p.HasPred:
		if a.predRaw == nil {
			return out, fmt.Errorf("%w: %s needs pred", errProto, opName[st.op])
		}
		var err error
		if p.Pred, err = parsePred(a.predRaw); err != nil {
			return out, err
		}
	}
	s.opCacheLk[st.op].Inc()
	var res hybridstore.Result
	var err error
	hit := false
	if known {
		res, hit = st.tbl.Peek(p)
	}
	switch {
	case hit:
		s.opCacheHit[st.op].Inc()
	case st.op == opGetPK:
		res.Rec, err = st.tbl.GetByPK(a.pk)
	default:
		res, err = s.bat.exec(st.tbl, p, !p.HasPred)
	}
	if err != nil {
		return out, err
	}

	switch st.op {
	case opGet, opGetPK:
		return AppendRecord(out, res.Rec), nil
	case opSum:
		out = append(out, `{"sum":`...)
		out = appendF64(out, res.Sum)
		return append(out, '}'), nil
	case opSumWhere:
		out = append(out, `{"sum":`...)
		out = appendF64(out, res.Sum)
		out = append(out, `,"count":`...)
		out = appendI64(out, res.Count)
		return append(out, '}'), nil
	case opGroupSumWhere:
		out = append(out, `{"groups":[`...)
		for i, g := range res.Groups {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, '[')
			out = appendI64(out, g.Key)
			out = append(out, ',')
			out = appendF64(out, g.Sum)
			out = append(out, ',')
			out = appendI64(out, g.Count)
			out = append(out, ']')
		}
		return append(out, `]}`...), nil
	}
	return out, fmt.Errorf("server: unhandled op %d", st.op)
}

// decodeValue builds a value of attribute a from raw wire bytes. A value
// the column cannot hold (an INT32 out of range, an over-width CHAR) is a
// malformed request, refused before any engine sees it.
func decodeValue(a schema.Attribute, raw []byte) (schema.Value, error) {
	var v schema.Value
	switch a.Kind {
	case schema.Float64:
		f, err := parseF64(raw)
		if err != nil {
			return v, fmt.Errorf("%w: float value: %v", errProto, err)
		}
		v = schema.FloatValue(f)
	case schema.Int64, schema.Int32:
		n, err := parseI64(raw)
		if err != nil {
			return v, fmt.Errorf("%w: %s value: %v", errProto, a.Kind, err)
		}
		v = schema.Value{Kind: a.Kind, I: n}
	case schema.Char:
		s := string(raw)
		// The scanner hands strings over unquoted with their escapes
		// intact; the rare one that carries any is decoded by the standard
		// library, off the hot path.
		if bytes.IndexByte(raw, '\\') >= 0 {
			if err := json.Unmarshal(append(append([]byte{'"'}, raw...), '"'), &s); err != nil {
				return v, fmt.Errorf("%w: char value: %v", errProto, err)
			}
		}
		v = schema.CharValue(s)
	}
	if err := schema.ValidateValue(a, v); err != nil {
		return v, fmt.Errorf("%w: %v", errProto, err)
	}
	return v, nil
}

// AppendRecord renders a record as the {"record":[...]} payload a point
// read answers with: shortest-exact floats, Char fields as JSON strings.
func AppendRecord(out []byte, rec hybridstore.Record) []byte {
	out = append(out, `{"record":[`...)
	for i, v := range rec {
		if i > 0 {
			out = append(out, ',')
		}
		switch v.Kind {
		case schema.Float64:
			out = appendF64(out, v.F)
		case schema.Char:
			out = append(out, '"')
			out = appendEscaped(out, v.S)
			out = append(out, '"')
		default:
			out = appendI64(out, v.I)
		}
	}
	return append(out, `]}`...)
}

// appendError resets out to an {"error":...} payload. The partial
// response built before the failure is discarded; the buffer is reused.
func appendError(out []byte, err error) []byte {
	out = out[:0]
	out = append(out, `{"error":"`...)
	out = appendEscaped(out, err.Error())
	return append(out, `"}`...)
}

// appendEscaped appends the body of a JSON string holding s: quote,
// backslash and control bytes escaped, everything else verbatim.
func appendEscaped(out []byte, s string) []byte {
	const hex = "0123456789abcdef"
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			out = append(out, '\\', c)
		case c < 0x20:
			out = append(out, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			out = append(out, c)
		}
	}
	return out
}
