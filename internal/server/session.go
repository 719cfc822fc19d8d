package server

import (
	"fmt"
	"sync"

	"hybridstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/schema"
)

// opKind enumerates the prepared-statement operations — the serving
// protocol's whole query surface. Analytic classes (sum_where,
// count_where, group_sum_where) are batchable; the rest execute
// directly.
type opKind uint8

const (
	opGet opKind = iota
	opGetPK
	opUpdate
	opInsert
	opSum
	opSumWhere
	opCountWhere
	opGroupSumWhere
	opCount // number of kinds
)

// opName is the wire name of each kind, also the op-class label in
// metrics and the load harness.
var opName = [opCount]string{
	opGet:           "get",
	opGetPK:         "get_pk",
	opUpdate:        "update",
	opInsert:        "insert",
	opSum:           "sum",
	opSumWhere:      "sum_where",
	opCountWhere:    "count_where",
	opGroupSumWhere: "group_sum_where",
}

func opKindOf(name []byte) (opKind, bool) {
	for k, n := range opName {
		if n == string(name) {
			return opKind(k), true
		}
	}
	return 0, false
}

// stmt is one prepared statement: the parse/bind work — table lookup,
// column validation, kind resolution — done once at Prepare so Exec
// only decodes arguments. A read statement holds its plan template
// (kind, table, columns); Exec binds the predicate or row into a copy.
type stmt struct {
	op      opKind
	tbl     *hybridstore.Table
	plan    exec.Plan   // read template; writes use only plan.Col
	colKind schema.Kind // kind of plan.Col, resolved at prepare (update)
}

// planKind maps each read statement to the plan kind it executes:
// count_where reads the Count of a sum_where plan, get_pk is a get once
// the index resolved the key.
var planKind = map[opKind]exec.Kind{
	opGet:           exec.KindGet,
	opGetPK:         exec.KindGet,
	opSum:           exec.KindSum,
	opSumWhere:      exec.KindSumWhere,
	opCountWhere:    exec.KindSumWhere,
	opGroupSumWhere: exec.KindGroupSumWhere,
}

// Bounds on what clients can make the server hold: sessions and
// statements are never dropped, so each is refused past its cap.
const (
	maxSessions        = 4096
	maxStmtsPerSession = 256
)

// errTooManySessions refuses a session past maxSessions; the HTTP layer
// maps it to 503.
var errTooManySessions = fmt.Errorf("server: session limit (%d) reached", maxSessions)

// session is one client's statement namespace. Statements are
// append-only and identified by index, so Exec resolves a statement
// with one bounds check under a read lock.
type session struct {
	id     string
	tenant string
	mu     sync.RWMutex
	stmts  []*stmt
}

func (ss *session) stmt(id int64) *stmt {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	if id < 0 || id >= int64(len(ss.stmts)) {
		return nil
	}
	return ss.stmts[id]
}

// CreateSession registers a new session for tenant (empty means
// "default") and returns its id, or errTooManySessions.
func (s *Server) CreateSession(tenant string) (string, error) {
	if tenant == "" {
		tenant = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) >= maxSessions {
		return "", errTooManySessions
	}
	id := fmt.Sprintf("s%d", len(s.sessions)+1) // sessions are never dropped: unique
	s.sessions[id] = &session{id: id, tenant: tenant}
	return id, nil
}

func (s *Server) session(id []byte) *session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[string(id)] // map lookup by []byte key does not allocate
}

// Prepare resolves and validates a statement in session sid, returning
// the statement id Exec uses.
func (s *Server) Prepare(sid, op, table string, col, keyCol int) (int, error) {
	ss := s.session([]byte(sid))
	if ss == nil {
		return 0, fmt.Errorf("server: unknown session %q", sid)
	}
	kind, ok := opKindOf([]byte(op))
	if !ok {
		return 0, fmt.Errorf("server: unknown op %q", op)
	}
	tbl := s.db.Table(table)
	if tbl == nil {
		return 0, fmt.Errorf("server: unknown table %q", table)
	}
	sc := tbl.Schema()
	st := &stmt{op: kind, tbl: tbl, plan: exec.Plan{Table: tbl.Name(), Op: planKind[kind], Col: col, KeyCol: keyCol}}
	if _, read := planKind[kind]; read {
		// The check Execute runs on every plan, run once here: a statement
		// that prepares cannot fail on its columns at Exec.
		if err := st.plan.Check(sc); err != nil {
			return 0, fmt.Errorf("server: %w", err)
		}
	} else if kind == opUpdate {
		if col < 0 || col >= sc.Arity() {
			return 0, fmt.Errorf("server: col %d out of range", col)
		}
		st.colKind = sc.Attr(col).Kind
	}
	st.plan = st.plan.Normalize()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if len(ss.stmts) >= maxStmtsPerSession {
		return 0, fmt.Errorf("server: session %q holds the maximum of %d prepared statements", sid, maxStmtsPerSession)
	}
	ss.stmts = append(ss.stmts, st)
	return len(ss.stmts) - 1, nil
}
