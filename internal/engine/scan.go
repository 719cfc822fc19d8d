package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

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

// Patch is a source's MVCC patch as parallel columns, one element per
// row whose current state the pieces lag, ascending by row: the row's
// base and current aggregate value and, for the grouped kinds (else
// nil), its base and current group key.
type Patch struct {
	Base, Cur       []float64
	BaseKey, CurKey []int64
}

// Patcher is implemented by sources whose pieces are a settled base the
// current state has moved on from (L-Store's tail pages, the reference
// engine's MVCC deltas): Patches calls fn once with the whole patch of
// the plan's columns, whose slices are valid only for the duration of
// the call. Like Pieces it is asked once per cohort. Handing the patch
// out as columns lets each plan fold it in one typed loop, with no call
// per row.
type Patcher interface {
	Patches(p exec.Plan, fn func(Patch)) error
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
	plans, out := [1]exec.Plan{p}, [1]exec.Result{}
	err := ScanCohort(src, host, dev, plans[:], nil, out[:])
	return out[0], err
}

// member is one live plan of a cohort — one that reaches the pieces or
// a settled base, and the patch — the closed interval [lo, hi] its
// predicate, if it has one, matches, and its plan's index k.
type member struct {
	exec.Plan
	lo, hi float64
	k      int
}

// cohort is what one ScanCohort call works in: the live members, the
// result of each plan, the legs' answers (pair: [:K] the device leg's,
// [K:] the host leg's), the group buffers the host leg drains into when
// its answers are partials the device answers absorb, and the fold its
// patch runs, built once per cohort. Cohorts are recycled, every result
// cleared, so a warm scan's scaffolding allocates nothing; a group
// buffer only ever holds a host partial, which FoldGroups copies out of
// before the buffer is reused.
type cohort struct {
	live []member
	res  []exec.Result // res[k] is plans[k]'s
	pair []exec.Result
	bufs [][]exec.GroupResult
	fold func(Patch)
}

var cohorts = sync.Pool{New: func() any { return newCohort() }}

// newCohort builds an empty cohort and its patch fold: every live
// member folds the whole patch into its result.
func newCohort() *cohort {
	c := new(cohort)
	c.fold = func(pa Patch) {
		for _, m := range c.live {
			m.fold(pa, &c.res[m.k])
		}
	}
	return c
}

// release recycles the cohort, its results and answers cleared.
func (c *cohort) release() {
	clear(c.live[:cap(c.live)])
	clear(c.res[:cap(c.res)])
	clear(c.pair[:cap(c.pair)])
	c.live, c.res, c.pair = c.live[:0], c.res[:0], c.pair[:0]
	cohorts.Put(c)
}

// ScanCohort answers any number of plans of one shape from a single
// pass over the source — one Pieces call, one exec.Scan carrying every
// live plan's predicate to each leg, one Patches call — with
// host pieces on the host configuration and shipped and resident pieces
// on the device executor (which may be nil for a source that never
// places any). Result k goes to out[k], one slot per plan, and has the
// bits a solo Scan of plans[k] returns over the same source state, under
// every host policy, because per plan the fold order is fixed and
// independent of the cohort:
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
//     patch, which every plan — known bases and fresh ones alike — folds
//     whole, in ascending row order.
//
// Each result's groups are its own, shared with nothing the cohort keeps.
func ScanCohort(src Source, host exec.Config, dev exec.ScanExecutor, plans []exec.Plan, bases Bases, out []exec.Result) error {
	if len(out) != len(plans) {
		return fmt.Errorf("%w: %d result slots for %d plans", exec.ErrBadPlan, len(out), len(plans))
	}
	clear(out)
	if len(plans) == 0 {
		return nil
	}
	shape := plans[0].Normalize().Shape()
	if shape.Op == exec.KindGet {
		return fmt.Errorf("%w: kind %q is not a scan", exec.ErrBadPlan, shape.Op)
	}
	if err := shape.Check(src.Schema()); err != nil {
		return err
	}
	c := cohorts.Get().(*cohort)
	defer c.release()
	c.res = slices.Grow(c.res, len(plans))[:len(plans)]
	// live[:n] need the legs; live[n:] start from a known base.
	n := 0
	for k, p := range plans {
		p = p.Normalize()
		if s := p.Shape(); s != shape {
			return fmt.Errorf("%w: %v batched with %v", exec.ErrBadPlan, s, shape)
		}
		// Live: a predicate something can match, or the first of the
		// identical unfiltered plans.
		m := member{Plan: p, k: k}
		isLive := k == 0
		if shape.HasPred {
			m.lo, m.hi, isLive = p.Pred.Closed()
		}
		if !isLive {
			continue
		}
		known := false
		if bases != nil {
			c.res[k], known = bases.Base(p)
		}
		if c.live = append(c.live, m); !known {
			c.live[n], c.live[len(c.live)-1] = c.live[len(c.live)-1], c.live[n]
			n++
		}
	}
	if n > 0 {
		if err := c.legs(src, host, dev, n); err != nil {
			return err
		}
		for j := 0; bases != nil && j < n; j++ {
			bases.Settled(c.live[j].Plan, c.res[c.live[j].k])
		}
	}
	if pt, ok := src.(Patcher); ok && len(c.live) > 0 {
		// The patch stays exact under zone pruning because zones are
		// conservative: a base value that matches a predicate always
		// lives in a fragment whose zone admits it, so it was part of
		// the bulk pass and can be subtracted.
		if err := pt.Patches(c.live[0].Plan, c.fold); err != nil {
			return err
		}
	}
	copy(out, c.res)
	if !shape.HasPred {
		for k := 1; k < len(out); k++ {
			out[k] = out[0]
			out[k].Groups = slices.Clone(out[0].Groups)
		}
	}
	return nil
}

// legs runs the device and host legs of the cohort's first n members,
// which all read the same pieces, each leg once for all of them: their
// settled-base answers. A card that cannot hold the images the cohort
// has to ship (too small, or every image pinned by concurrent scans) is
// no reason to fail a query the host can answer: the device executor
// refuses before it accounts anything, the shipped pieces — host memory
// — join the host leg, counted as a fallback, and the resident ones,
// which need no image, launch on their own. Every other device error
// propagates. When both legs run, the host answers are partials that
// fold into the device answers in place (exec.FoldGroups) from the
// cohort's own buffers, so a grouped answer is the device leg's one
// table, grown only by keys the host alone holds.
func (c *cohort) legs(src Source, host exec.Config, dev exec.ScanExecutor, n int) error {
	live := c.live[:n]
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

	nk := len(live)
	c.pair = slices.Grow(c.pair, 2*nk)[:2*nk]
	res := c.pair
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
	both := devRan && hostRan
	if hostRan {
		hostOut := res[:nk]
		if both {
			hostOut = res[nk:]
			for j := 0; keys != nil && j < nk; j++ {
				if j == len(c.bufs) {
					c.bufs = append(c.bufs, nil)
				}
				hostOut[j].Groups = c.bufs[j][:0]
			}
		}
		if err := host.Scan(sc.Slice(hostFrom, len(vals)), hostOut); err != nil {
			return err
		}
	}
	// The device result folds first, then the host result.
	for j, m := range live {
		r := &c.res[m.k]
		if *r = res[j]; both {
			part := res[nk+j]
			r.Sum += part.Sum
			r.Count += part.Count
			if keys != nil {
				r.Groups = exec.FoldGroups(r.Groups, part.Groups)
				c.bufs[j] = part.Groups[:0]
			}
		}
	}
	return nil
}

// fold folds the whole patch into the member's result, its accumulator
// and interval held in locals, rows ascending, a row's base value
// leaving before its current one enters — the order of a per-row fold,
// so the answers keep its bits.
func (m *member) fold(pa Patch, res *exec.Result) {
	switch {
	case m.Op.Grouped():
		gp := NewGroupPatch(res.Groups, m.HasPred, m.lo, m.hi)
		gp.Fold(pa)
		res.Groups = gp.Groups()
	case m.HasPred:
		s, n, lo, hi := res.Sum, res.Count, m.lo, m.hi
		for i, b := range pa.Base {
			if lo <= b && b <= hi {
				s -= b
				n--
			}
			if c := pa.Cur[i]; lo <= c && c <= hi {
				s += c
				n++
			}
		}
		res.Sum, res.Count = s, n
	default:
		s := res.Sum
		for i, b := range pa.Base {
			s += pa.Cur[i] - b
		}
		res.Sum = s
	}
}

// GroupPatch folds a patch into a bulk-aggregated group table, in
// place: a row's base contribution leaves its base group, its current
// one enters the group of its current key — so an update that changes
// the key moves the row between groups. The table is the caller's own
// key-sorted slice; a key the bulk never held goes to a key-sorted side
// list merged in at the end. With no patch rows (the common warm serving
// state) the bulk slice comes back as it went in, allocating nothing.
type GroupPatch struct {
	groups, added []exec.GroupResult
	pred          bool
	lo, hi        float64
}

// NewGroupPatch starts a patch over a key-sorted bulk group table, which
// it takes over. pred reports whether the scan has a predicate, which
// matches the closed interval [lo, hi]; without one every value matches.
func NewGroupPatch(groups []exec.GroupResult, pred bool, lo, hi float64) *GroupPatch {
	return &GroupPatch{groups: groups, pred: pred, lo: lo, hi: hi}
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

// Fold folds a whole grouped patch, rows ascending.
func (g *GroupPatch) Fold(pa Patch) {
	all, lo, hi := !g.pred, g.lo, g.hi
	for i, b := range pa.Base {
		if all || lo <= b && b <= hi {
			if gr := g.group(pa.BaseKey[i], false); gr != nil {
				gr.Sum -= b
				gr.Count--
			}
		}
		if c := pa.Cur[i]; all || lo <= c && c <= hi {
			gr := g.group(pa.CurKey[i], true)
			gr.Sum += c
			gr.Count++
		}
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
