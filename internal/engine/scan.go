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
// descriptor, combines their results — or takes them from a store of
// settled bases (Bases) — and applies the patches.

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

// Bases is a store of settled-base answers: a plan's result over the
// source's pieces alone, before any patch. That result is a function of
// the base the pieces stand for, so a store keyed on it can hand the
// answer to a later cohort, which then only replays its own patch.
type Bases interface {
	// Base returns a private copy of p's settled-base answer, if known.
	Base(p exec.Plan) (exec.Result, bool)
	// Settled hands over p's settled-base answer, computed just now; the
	// store copies what it keeps.
	Settled(p exec.Plan, base exec.Result)
}

// Scan answers one aggregate plan over the source: the K=1 cohort.
func Scan(src Source, host exec.Config, dev exec.ScanExecutor, p exec.Plan) (exec.Result, error) {
	res, err := ScanCohort(src, host, dev, []exec.Plan{p}, nil)
	if err != nil {
		return exec.Result{}, err
	}
	return res[0], nil
}

// member is one live plan of a cohort — one that reaches the pieces or
// a settled base, and the patch — the closed interval [lo, hi] its
// predicate, if it has one, matches, and the result slot it fills.
type member struct {
	exec.Plan
	lo, hi float64
	res    *exec.Result
}

// match reports whether the member's predicate selects x; a plan without
// one selects everything.
func (m *member) match(x float64) bool { return !m.HasPred || m.lo <= x && x <= m.hi }

// ScanCohort answers any number of plans of one shape from a single
// pass over the source — one Pieces call, one exec.Scan carrying every
// live plan's predicate to each leg, one walk of the patch rows — with
// host pieces on the host configuration and shipped and resident pieces
// on the device executor (which may be nil for a source that never
// places any). Result k belongs to plans[k] and has the bits a solo Scan
// of plans[k] returns over the same source state, under every host
// policy, because per plan the fold order is fixed and independent of
// the cohort:
//
//   - a predicate no value can satisfy (it has no closed form: Lt(-Inf),
//     an inverted or NaN-bounded between) is answered with the zero
//     result without reaching a piece, and the unfiltered kinds, whose
//     plans are identical, are computed once and copied;
//   - a plan whose settled base bases (nil: none) knows skips the pieces
//     and both legs; the others settle theirs into it before the patch;
//   - each leg folds every plan's pieces in piece order, as that plan's
//     solo scan does (see exec.Config.Scan and exec.DeviceScan.Scan);
//   - the device result folds first, then the host result, then the
//     patch, which walks rows outer / plans inner — known bases and
//     fresh ones alike — and so preserves each plan's ascending-row
//     patch order.
func ScanCohort(src Source, host exec.Config, dev exec.ScanExecutor, plans []exec.Plan, bases Bases) ([]exec.Result, error) {
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
	// live[:n] need the legs; live[n:] start from a known base.
	live := make([]member, 0, len(plans))
	n := 0
	for k, p := range plans {
		p = p.Normalize()
		if s := p.Shape(); s != shape {
			return nil, fmt.Errorf("%w: %v batched with %v", exec.ErrBadPlan, s, shape)
		}
		// Live: a predicate something can match, or the first of the
		// identical unfiltered plans.
		m := member{Plan: p, res: &out[k]}
		isLive := k == 0
		if shape.HasPred {
			m.lo, m.hi, isLive = p.Pred.Closed()
		}
		if !isLive {
			continue
		}
		known := false
		if bases != nil {
			out[k], known = bases.Base(p)
		}
		if live = append(live, m); !known {
			live[n], live[len(live)-1] = live[len(live)-1], live[n]
			n++
		}
	}
	if n > 0 {
		if err := legs(src, host, dev, live[:n]); err != nil {
			return nil, err
		}
		for j := 0; bases != nil && j < n; j++ {
			bases.Settled(live[j].Plan, *live[j].res)
		}
	}
	if pt, ok := src.(Patcher); ok && len(live) > 0 {
		if err := patch(pt, live); err != nil {
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

// legs runs the device and host legs of plans that all read the same
// pieces, each leg once for all of them: their settled-base answers. A
// card that cannot hold the images the cohort has to ship (too small,
// or every image pinned by concurrent scans) is no reason to fail a
// query the host can answer: the device executor refuses before it
// accounts anything, the shipped pieces — host memory — join the host
// leg, counted as a fallback, and the resident ones, which need no
// image, launch on their own. Every other device error propagates.
func legs(src Source, host exec.Config, dev exec.ScanExecutor, live []member) error {
	sc := exec.Scan{Plan: live[0].Plan}
	var err error
	if sc.Keys, sc.Vals, err = src.Pieces(sc.Plan); err != nil {
		return err
	}
	keys, vals := sc.Keys, sc.Vals
	if keys != nil && len(keys) != len(vals) {
		return fmt.Errorf("%w: %d key pieces for %d value pieces", exec.ErrBadColumn, len(keys), len(vals))
	}
	// Split by placement in place: resident pieces, then shipped, then
	// host, row order kept inside each class. A key piece goes where its
	// value piece goes. The split is an insertion sort that compares the
	// placements in place and allocates nothing: cold chunks ship and
	// the hot tail stays, so the list is usually in class order already
	// and it moves nothing.
	nRes, nDev := 0, 0
	for i := range vals {
		if vals[i].Place == exec.Resident {
			nRes++
		}
		if vals[i].Place != exec.OnHost {
			nDev++
		}
		for j := i; j > 0 && vals[j].Place > vals[j-1].Place; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
			if keys != nil {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
	}
	if nDev > 0 && dev == nil {
		return fmt.Errorf("%w: device pieces without a device executor", ErrUnsupported)
	}
	if len(live) > 1 {
		sc.Preds = make([]exec.Pred, len(live))
		for j, m := range live {
			sc.Preds[j] = m.Pred
		}
	}

	// res[:K] is the device leg's answers, res[K:] the host leg's.
	nk := len(live)
	res := make([]exec.Result, 2*nk)
	devRan, hostFrom := nDev > 0, nDev
	if devRan {
		err = dev.Scan(sc.Slice(0, nDev), res[:nk])
		if errors.Is(err, mem.ErrOutOfMemory) {
			exec.NoteDeviceFallback(sc.Op)
			devRan, hostFrom, err = nRes > 0, nRes, nil
			if devRan {
				err = dev.Scan(sc.Slice(0, nRes), res[:nk])
			}
		}
		if err != nil {
			return err
		}
	}
	// The host leg is skipped only when the device leg took every piece.
	hostRan := !devRan || hostFrom < len(vals)
	if hostRan {
		hostOut := res[:nk]
		if devRan {
			hostOut = res[nk:]
		}
		if err := host.Scan(sc.Slice(hostFrom, len(vals)), hostOut); err != nil {
			return err
		}
	}
	// The device result folds first, then the host result.
	for j, m := range live {
		if *m.res = res[j]; devRan && hostRan {
			part := res[nk+j]
			m.res.Sum += part.Sum
			m.res.Count += part.Count
			m.res.Groups = exec.MergeGroupResults(m.res.Groups, part.Groups)
		}
	}
	return nil
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

// GroupPatch folds patch rows into a bulk-aggregated group table, in
// place: a row's base contribution leaves its base group, its current
// one enters the group of its current key — so an update that changes
// the key moves the row between groups. The table is the caller's own
// key-sorted slice; a key the bulk never held goes to a key-sorted side
// list merged in at the end. With no patch rows (the common warm serving
// state) the bulk slice comes back as it went in, allocating nothing.
type GroupPatch struct {
	groups, added []exec.GroupResult
	match         func(float64) bool
}

// NewGroupPatch starts a patch over a key-sorted bulk group table, which
// it takes over; match is the scan's predicate (always true for an
// unpredicated group-by).
func NewGroupPatch(groups []exec.GroupResult, match func(float64) bool) *GroupPatch {
	return &GroupPatch{groups: groups, match: match}
}

// group returns key's accumulator: the bulk table's, else the side
// list's, which add creates, zero, for a key neither holds (else nil).
// Both are key-sorted, so a lookup is a binary search — after one probe
// at the key's offset from the first bulk key, which over a dense key
// set is the group itself (the offset is taken unsigned, so any key
// outside the table's span wraps out of range).
func (g *GroupPatch) group(key int64, add bool) *exec.GroupResult {
	if len(g.groups) > 0 {
		if i := uint64(key) - uint64(g.groups[0].Key); i < uint64(len(g.groups)) && g.groups[i].Key == key {
			return &g.groups[i]
		}
	}
	byKey := func(gr exec.GroupResult, k int64) int { return cmp.Compare(gr.Key, k) }
	if i, ok := slices.BinarySearchFunc(g.groups, key, byKey); ok {
		return &g.groups[i]
	}
	i, ok := slices.BinarySearchFunc(g.added, key, byKey)
	if !ok {
		if !add {
			return nil
		}
		g.added = slices.Insert(g.added, i, exec.GroupResult{Key: key})
	}
	return &g.added[i]
}

// Apply folds one patch row.
func (g *GroupPatch) Apply(base, cur Cell) {
	if g.match(base.Val) {
		if gr := g.group(base.Key, false); gr != nil {
			gr.Sum -= base.Val
			gr.Count--
		}
	}
	if g.match(cur.Val) {
		gr := g.group(cur.Key, true)
		gr.Sum += cur.Val
		gr.Count++
	}
}

// Groups returns the patched table, key-sorted, without the groups the
// patches emptied.
func (g *GroupPatch) Groups() []exec.GroupResult {
	out := slices.DeleteFunc(append(g.groups, g.added...), func(gr exec.GroupResult) bool { return gr.Count <= 0 })
	if len(g.added) > 0 {
		exec.SortGroupResults(out)
	}
	return out
}
