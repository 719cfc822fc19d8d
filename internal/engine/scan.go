package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"hybridstore/internal/exec"
	"hybridstore/internal/mem"
	"hybridstore/internal/schema"
)

// This file is the one scan body of all eleven engines, the reference
// engine included. The paper classifies a storage engine by where its
// fragments live and how they are linearized (Table 1; Section IV-C,
// "mixed data location"), and that is all an engine says about a scan:
// it is a Source of pieces — which exist for a column, and for each
// whether it is host memory, host memory worth shipping to the card, or
// device-resident, compressed or raw — and, where its pieces lag the
// current state, a Patcher. ScanCohort validates the plans, hands the
// pieces to the host and device executors through the same exec.Scan
// descriptor, combines their results and applies the patches.

// Source is what a storage engine contributes to an aggregate scan.
type Source interface {
	// Schema returns the relation schema the plan's columns index.
	Schema() *schema.Schema
	// Pieces returns, in row order, the pieces of the plan's aggregate
	// column and — for the grouped kinds, else nil — the row-aligned
	// pieces of its key column, in lists the scan body may reorder. Each
	// value piece's Place routes its pair: the engine marks Shipped only
	// what a device kernel can run (Plan.DeviceOK). A cohort asks once,
	// with one of its plans: the answer may depend on the plan's shape and
	// on whether a kernel exists for it, never on its predicate's bounds.
	Pieces(p exec.Plan) (keys, vals []exec.Piece, err error)
}

// ColumnPieces assembles a Source's answer from a per-column piece
// builder: the plan's aggregate column and, for the grouped kinds, its
// key column.
func ColumnPieces(p exec.Plan, col func(col int) ([]exec.Piece, error)) (keys, vals []exec.Piece, err error) {
	if vals, err = col(p.Col); err == nil && p.Op.Grouped() {
		keys, err = col(p.KeyCol)
	}
	return keys, vals, err
}

// Cell is one row's contribution to a scan: its aggregate value and, for
// the grouped kinds, its group key.
type Cell struct {
	Key int64
	Val float64
}

// Patcher is implemented by sources whose pieces are a settled base the
// current state has moved on from (L-Store's tail pages, the reference
// engine's MVCC deltas): Patches calls fn, in ascending row order, with
// the base and the current cell of every such row. Like Pieces it is
// asked once per cohort and reads only the plan's columns.
type Patcher interface {
	Patches(p exec.Plan, fn func(base, cur Cell)) error
}

// Scan answers one aggregate plan over the source: the K=1 cohort.
func Scan(src Source, host exec.Config, dev exec.ScanExecutor, p exec.Plan) (exec.Result, error) {
	res, err := ScanCohort(src, host, dev, []exec.Plan{p})
	if err != nil {
		return exec.Result{}, err
	}
	return res[0], nil
}

// member is one live plan of a cohort — one that reaches the pieces,
// which join it in the descriptor once the source has listed them — the
// closed interval [lo, hi] its predicate, if it has one, matches, and
// the result slot it fills.
type member struct {
	exec.Scan
	lo, hi float64
	res    *exec.Result
}

// match reports whether the member's predicate selects x; a plan without
// one selects everything.
func (m *member) match(x float64) bool { return !m.HasPred || m.lo <= x && x <= m.hi }

// ScanCohort answers any number of plans of one shape from a single
// pass over the source — one Pieces call, one walk of the patch rows —
// with host pieces on the host configuration and shipped and resident
// pieces on the device executor (which may be nil for a source that
// never places any). Result k belongs to plans[k] and is exactly what a
// solo Scan of plans[k] returns over the same source state, because per
// plan the fold order is fixed and independent of the cohort:
//
//   - a predicate no value can satisfy (it has no closed form: Lt(-Inf),
//     an inverted or NaN-bounded between) is answered with the zero
//     result without reaching a piece, and the unfiltered kinds, whose
//     plans are identical, are computed once and copied;
//   - the device pieces run per live plan, resident fragments first,
//     then the shipped ones through the fragment cache (the first
//     predicate warms an image, the rest scan it for zero bus bytes);
//   - the host pieces of a sum_where cohort are streamed ONCE through
//     exec.SumFloat64WhereMulti, every predicate folding the piece
//     stream in solo order; the other kinds scan them once per plan;
//   - the device result folds first, then the host result, then the
//     patch, which walks rows outer / plans inner and so preserves each
//     plan's ascending-row patch order.
func ScanCohort(src Source, host exec.Config, dev exec.ScanExecutor, plans []exec.Plan) ([]exec.Result, error) {
	out := make([]exec.Result, len(plans))
	if len(plans) == 0 {
		return out, nil
	}
	shape := plans[0].Normalize().Shape()
	if shape.Op == exec.KindGet {
		return nil, fmt.Errorf("%w: kind %q is not a scan", exec.ErrBadPlan, shape.Op)
	}
	if err := shape.Check(src.Schema()); err != nil {
		return nil, err
	}
	live := make([]member, 0, len(plans))
	for k, p := range plans {
		p = p.Normalize()
		if s := p.Shape(); s != shape {
			return nil, fmt.Errorf("%w: %v batched with %v", exec.ErrBadPlan, s, shape)
		}
		// Live: a predicate something can match, or the first of the
		// identical unfiltered plans.
		m := member{Scan: exec.Scan{Plan: p}, res: &out[k]}
		isLive := k == 0
		if shape.HasPred {
			m.lo, m.hi, isLive = p.Pred.Closed()
		}
		if isLive {
			live = append(live, m)
		}
	}
	if len(live) > 0 {
		if err := scanLive(src, host, dev, live); err != nil {
			return nil, err
		}
	}
	if !shape.HasPred {
		for k := 1; k < len(out); k++ {
			out[k] = out[0]
			out[k].Groups = slices.Clone(out[0].Groups)
		}
	}
	return out, nil
}

// scanLive runs the legs of a cohort's live plans, which all read the
// same pieces and the same patch rows.
func scanLive(src Source, host exec.Config, dev exec.ScanExecutor, live []member) error {
	shape := live[0].Plan
	keys, vals, err := src.Pieces(shape)
	if err != nil {
		return err
	}
	if keys != nil && len(keys) != len(vals) {
		return fmt.Errorf("%w: %d key pieces for %d value pieces", exec.ErrBadColumn, len(keys), len(vals))
	}
	// Split by placement in place: resident pieces, then shipped, then
	// host, row order kept inside each class (the sort is stable and
	// allocates nothing). A key piece goes where its value piece goes.
	nRes, nDev := 0, 0
	for i, vp := range vals {
		if vp.Place == exec.Resident {
			nRes++
		}
		if vp.Place != exec.OnHost {
			nDev++
		}
		if keys != nil {
			keys[i].Place = vp.Place
		}
	}
	if nDev > 0 {
		if dev == nil {
			return fmt.Errorf("%w: device pieces without a device executor", ErrUnsupported)
		}
		byPlace := func(a, b exec.Piece) int { return cmp.Compare(b.Place, a.Place) }
		slices.SortStableFunc(keys, byPlace)
		slices.SortStableFunc(vals, byPlace)
	}
	for j := range live {
		live[j].Keys, live[j].Vals = keys, vals
	}

	if nDev > 0 {
		for _, m := range live {
			if *m.res, err = deviceLeg(host, dev, m.Slice(0, nDev), nRes); err != nil {
				return err
			}
		}
	}
	// The host leg is skipped only when the device leg took every piece.
	if nDev == 0 || nDev < len(vals) {
		var shared []exec.Result
		if shape.Op == exec.KindSumWhere {
			preds := make([]exec.Pred, len(live))
			for j, m := range live {
				preds[j] = m.Pred
			}
			if shared, err = exec.SumFloat64WhereMulti(host, vals[nDev:], preds); err != nil {
				return err
			}
		}
		for j, m := range live {
			var part exec.Result
			if shared != nil {
				part = shared[j]
			} else if part, err = host.Scan(m.Slice(nDev, len(vals))); err != nil {
				return err
			}
			if nDev == 0 {
				*m.res = part
			} else {
				fold(m.res, part)
			}
		}
	}
	if pt, ok := src.(Patcher); ok {
		return patch(pt, live)
	}
	return nil
}

// deviceLeg scans one plan's device pieces — sc's first nRes are
// resident, the rest shipped — on the device executor. A card that
// cannot hold the images the plan has to ship (too small, or every image
// pinned by concurrent scans) is no reason to fail a query the host can
// answer: the shipped pieces are host memory and scan there, counted as
// a fallback, while the resident ones, which need no image, still
// launch. Every other device error propagates.
func deviceLeg(host exec.Config, dev exec.ScanExecutor, sc exec.Scan, nRes int) (exec.Result, error) {
	res, err := dev.Scan(sc)
	if !errors.Is(err, mem.ErrOutOfMemory) {
		return res, err
	}
	exec.NoteDeviceFallback(sc.Op)
	res = exec.Result{}
	if nRes > 0 {
		if res, err = dev.Scan(sc.Slice(0, nRes)); err != nil {
			return exec.Result{}, err
		}
	}
	part, err := host.Scan(sc.Slice(nRes, len(sc.Vals)))
	fold(&res, part)
	return res, err
}

// fold adds a later leg's partial result to an earlier one's.
func fold(res *exec.Result, part exec.Result) {
	res.Sum += part.Sum
	res.Count += part.Count
	res.Groups = exec.MergeGroupResults(res.Groups, part.Groups)
}

// patch applies the source's patch rows to the live plans' base
// results: one walk, every plan folding each row. The patch stays exact
// under zone pruning because zones are conservative: a base value that
// matches a predicate always lives in a fragment whose zone admits it,
// so it was part of the bulk pass and can be subtracted.
func patch(pt Patcher, live []member) error {
	shape := live[0].Plan
	switch {
	case shape.Op.Grouped():
		gps := make([]*GroupPatch, len(live))
		for j := range live {
			gps[j] = NewGroupPatch(live[j].res.Groups, live[j].match)
		}
		err := pt.Patches(shape, func(base, cur Cell) {
			for _, gp := range gps {
				gp.Apply(base, cur)
			}
		})
		for j, m := range live {
			m.res.Groups = gps[j].Groups()
		}
		return err
	case shape.HasPred:
		return pt.Patches(shape, func(base, cur Cell) {
			for j := range live {
				m := &live[j]
				if m.match(base.Val) {
					m.res.Sum -= base.Val
					m.res.Count--
				}
				if m.match(cur.Val) {
					m.res.Sum += cur.Val
					m.res.Count++
				}
			}
		})
	default:
		res := live[0].res
		return pt.Patches(shape, func(base, cur Cell) { res.Sum += cur.Val - base.Val })
	}
}

// GroupPatch folds patch rows into a bulk-aggregated group table: a
// row's base contribution leaves its base group, its current one enters
// the group of its current key — so an update that changes the key moves
// the row between groups. The patch table materializes lazily: with no
// patch rows (the common warm serving state) the bulk result is returned
// as-is, with no second hash table and no re-sort.
type GroupPatch struct {
	groups []exec.GroupResult
	match  func(float64) bool
	table  map[int64]*exec.GroupResult
}

// NewGroupPatch starts a patch over a key-sorted bulk group table; match
// is the scan's predicate (always true for an unpredicated group-by).
func NewGroupPatch(groups []exec.GroupResult, match func(float64) bool) *GroupPatch {
	return &GroupPatch{groups: groups, match: match}
}

// Apply folds one patch row.
func (g *GroupPatch) Apply(base, cur Cell) {
	if g.table == nil {
		g.table = make(map[int64]*exec.GroupResult, len(g.groups))
		for i := range g.groups {
			gr := g.groups[i]
			g.table[gr.Key] = &gr
		}
	}
	if gr := g.table[base.Key]; gr != nil && g.match(base.Val) {
		gr.Sum -= base.Val
		gr.Count--
	}
	if g.match(cur.Val) {
		gr := g.table[cur.Key]
		if gr == nil {
			gr = &exec.GroupResult{Key: cur.Key}
			g.table[cur.Key] = gr
		}
		gr.Sum += cur.Val
		gr.Count++
	}
}

// Groups returns the patched table, key-sorted, without the groups the
// patches emptied.
func (g *GroupPatch) Groups() []exec.GroupResult {
	if g.table == nil {
		return g.groups
	}
	out := make([]exec.GroupResult, 0, len(g.table))
	for _, gr := range g.table {
		if gr.Count > 0 {
			out = append(out, *gr)
		}
	}
	exec.SortGroupResults(out)
	return out
}
