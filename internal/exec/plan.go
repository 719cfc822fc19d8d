package exec

import "hybridstore/internal/schema"

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
	Pred Pred[float64]
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
	switch p.Op {
	case KindGet:
		n.Row = p.Row
		return n
	case KindGroupSum, KindGroupSumWhere:
		n.KeyCol = p.KeyCol
	}
	n.Col = p.Col
	if p.Op == KindSumWhere || p.Op == KindGroupSumWhere {
		n.Pred, n.HasPred = Normalize(p.Pred), true
	}
	return n
}

// Shape is the plan with its per-request arguments (predicate bounds,
// row) removed: plans of one shape read the same columns of the same
// table with the same operator, so one snapshot pass can answer all of
// them. It keys the serving layer's batching cohorts.
func (p Plan) Shape() Plan {
	p.Pred, p.Row = Pred[float64]{}, 0
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
