package exec

import (
	"errors"
	"fmt"

	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
)

// ErrBadPlan is returned for a plan of an unknown kind, or a batch
// mixing shapes.
var ErrBadPlan = errors.New("exec: bad plan")

// Kind names the read operation a Plan describes. Kinds are the wire
// names of the serving protocol's read statements, so a plan literal
// reads as the query it is: Plan{Op: "sum_where", Col: 2, Pred: ...}.
type Kind string

// Plan kinds.
const (
	// KindGet materializes the record at Row.
	KindGet Kind = "get"
	// KindSum is SELECT SUM(Col).
	KindSum Kind = "sum"
	// KindSumWhere is SELECT SUM(Col), COUNT(*) WHERE Pred (count-where
	// reads the Count of the same result).
	KindSumWhere Kind = "sum_where"
	// KindGroupSum is SELECT KeyCol, SUM(Col), COUNT(*) GROUP BY KeyCol.
	KindGroupSum Kind = "group_sum"
	// KindGroupSumWhere is KindGroupSum WHERE Pred.
	KindGroupSumWhere Kind = "group_sum_where"
)

// Filtered reports whether the kind carries a predicate.
func (k Kind) Filtered() bool { return k == KindSumWhere || k == KindGroupSumWhere }

// Grouped reports whether the kind groups by a key column.
func (k Kind) Grouped() bool { return k == KindGroupSum || k == KindGroupSumWhere }

// aggregate reports whether the kind is one of the four scans.
func (k Kind) aggregate() bool { return k == KindSum || k.Filtered() || k.Grouped() }

// Plan is the one descriptor of a read, passed unchanged from the wire
// parser to the storage engine: every layer has a single entry that
// takes it (server dispatch, facade and core Execute/Peek). It is a
// comparable value, so a normalized plan is also its own batching slot
// and its own result-cache key. Dimensions a kind does not use stay
// zero.
type Plan struct {
	// Table is the serving name of the table; the engine fills it in, so
	// callers of Execute may leave it empty.
	Table string
	// Op is the operation kind.
	Op Kind
	// Col is the aggregated float64 column (unused by KindGet: a point
	// read returns the whole record).
	Col int
	// KeyCol is the integer grouping column of the group kinds.
	KeyCol int
	// Row is the row position of KindGet.
	Row uint64
	// Pred is the predicate of the *Where kinds.
	Pred Pred
	// HasPred distinguishes a zero-valued predicate from no predicate;
	// Normalize derives it from Op.
	HasPred bool
}

// Normalize canonicalizes a plan so that semantically identical
// spellings compare equal: the predicate is normalized (see Normalize
// for Pred), HasPred follows Op, and every dimension the kind does not
// read is zeroed.
func (p Plan) Normalize() Plan {
	n := Plan{Table: p.Table, Op: p.Op}
	if p.Op == KindGet {
		n.Row = p.Row
		return n
	}
	if p.Op.Grouped() {
		n.KeyCol = p.KeyCol
	}
	n.Col = p.Col
	if p.Op.Filtered() {
		n.Pred, n.HasPred = Normalize(p.Pred), true
	}
	return n
}

// Check validates the columns the plan reads against a schema — the one
// column-kind check of every scan entry: the aggregate must be a
// float64 attribute, a group key an int64 or int32 one. An ordinal
// outside the schema fails with layout.ErrOutOfRange, a column of the
// wrong kind with ErrBadColumn, an unknown kind with ErrBadPlan.
func (p Plan) Check(s *schema.Schema) error {
	if p.Op == KindGet {
		return nil
	}
	if !p.Op.aggregate() {
		return fmt.Errorf("%w: kind %q", ErrBadPlan, p.Op)
	}
	if p.Op.Grouped() {
		if p.KeyCol < 0 || p.KeyCol >= s.Arity() {
			return fmt.Errorf("%w: col %d", layout.ErrOutOfRange, p.KeyCol)
		}
		if a := s.Attr(p.KeyCol); a.Kind != schema.Int64 && a.Kind != schema.Int32 {
			return fmt.Errorf("%w: group key %s is %s", ErrBadColumn, a.Name, a.Kind)
		}
	}
	if p.Col < 0 || p.Col >= s.Arity() {
		return fmt.Errorf("%w: col %d", layout.ErrOutOfRange, p.Col)
	}
	if a := s.Attr(p.Col); a.Kind != schema.Float64 {
		return fmt.Errorf("%w: aggregate %s is %s", ErrBadColumn, a.Name, a.Kind)
	}
	return nil
}

// Shape is the plan with its per-request arguments (predicate bounds,
// row) removed: plans of one shape read the same columns of the same
// table with the same operator, so one snapshot pass can answer all of
// them. It keys the serving layer's batching cohorts.
func (p Plan) Shape() Plan {
	p.Pred, p.Row = Pred{}, 0
	return p
}

// Result is the answer to one Plan. Which fields are meaningful depends
// on the plan's kind; the rest stay zero.
type Result struct {
	// Sum is the aggregate total (KindSum, KindSumWhere).
	Sum float64
	// Count is the qualifying-row count (KindSumWhere).
	Count int64
	// Groups is the key-sorted group table (group kinds).
	Groups []GroupResult
	// Rec is the record (KindGet).
	Rec schema.Record
}
