package engine

import (
	"fmt"
	"slices"

	"hybridstore/internal/exec"
	"hybridstore/internal/schema"
)

// This file is the one scan body of the surveyed engines. The paper
// classifies a storage engine by where its fragments live and how they
// are linearized (Table 1; Section IV-C, "mixed data location"), and
// that is all an engine says about a scan: it is a Source of pieces —
// which exist for a column, and for each whether it is host memory, host
// memory worth shipping to the card, or device-resident, compressed or
// raw — and, where its pieces lag the current state, a Patcher. Scan
// validates the plan, hands the pieces to the host and device executors
// through the same exec.Scan descriptor, combines their results and
// applies the patches.

// Source is what a storage engine contributes to an aggregate scan.
type Source interface {
	// Schema returns the relation schema the plan's columns index.
	Schema() *schema.Schema
	// Pieces returns, in row order, the pieces of the plan's aggregate
	// column and — for the grouped kinds, else nil — the row-aligned
	// pieces of its key column. Each piece's Place routes it: the engine
	// marks Shipped only what a device kernel can run (Plan.DeviceOK).
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
// current state has moved on from (L-Store's tail pages): Patches calls
// fn, in ascending row order, with the base and the current cell of
// every such row.
type Patcher interface {
	Patches(p exec.Plan, fn func(base, cur Cell)) error
}

// Scan answers one aggregate plan over the source: host pieces on the
// host configuration, shipped and resident pieces on the device executor
// (which may be nil for a source that never places any), device result
// first.
func Scan(src Source, host exec.Config, dev exec.ScanExecutor, p exec.Plan) (exec.Result, error) {
	p = p.Normalize()
	if p.Op == exec.KindGet {
		return exec.Result{}, fmt.Errorf("%w: kind %q is not a scan", exec.ErrBadPlan, p.Op)
	}
	if err := p.Check(src.Schema()); err != nil {
		return exec.Result{}, err
	}
	keys, vals, err := src.Pieces(p)
	if err != nil {
		return exec.Result{}, err
	}
	// The common case — every piece on the host — hands the lists over
	// as given; otherwise they split by placement.
	onHost, onDev := exec.Scan{Plan: p, Keys: keys, Vals: vals}, exec.Scan{Plan: p}
	if slices.ContainsFunc(vals, func(vp exec.Piece) bool { return vp.Place != exec.OnHost }) {
		onHost.Keys, onHost.Vals = nil, nil
		empty := p.Op.Filtered() && !p.DeviceOK()
		for i, vp := range vals {
			to := &onDev
			switch {
			case vp.Place == exec.OnHost:
				to = &onHost
			case vp.Place == exec.Resident && empty:
				continue // an empty interval matches nothing, and no kernel takes one
			}
			to.Vals = append(to.Vals, vp)
			if keys != nil {
				to.Keys = append(to.Keys, keys[i])
			}
		}
	}
	var res exec.Result
	devRan := len(onDev.Vals) > 0
	if devRan {
		if dev == nil {
			return exec.Result{}, fmt.Errorf("%w: device pieces without a device executor", ErrUnsupported)
		}
		if res, err = dev.Scan(onDev); err != nil {
			return exec.Result{}, err
		}
	}
	if !devRan || len(onHost.Vals) > 0 {
		part, err := host.Scan(onHost)
		if err != nil {
			return exec.Result{}, err
		}
		if !devRan {
			res = part
		} else {
			res.Sum += part.Sum
			res.Count += part.Count
			res.Groups = exec.MergeGroupResults(res.Groups, part.Groups)
		}
	}
	if pt, ok := src.(Patcher); ok {
		err = patch(pt, p, &res)
	}
	return res, err
}

// patch applies the source's patch rows to a base result.
func patch(pt Patcher, p exec.Plan, res *exec.Result) error {
	match := func(x float64) bool { return !p.HasPred || p.Pred.Match(x) }
	if p.Op.Grouped() {
		gp := NewGroupPatch(res.Groups, match)
		err := pt.Patches(p, gp.Apply)
		res.Groups = gp.Groups()
		return err
	}
	return pt.Patches(p, func(base, cur Cell) {
		if !p.HasPred {
			res.Sum += cur.Val - base.Val
			return
		}
		if match(base.Val) {
			res.Sum -= base.Val
			res.Count--
		}
		if match(cur.Val) {
			res.Sum += cur.Val
			res.Count++
		}
	})
}

// GroupPatch folds patch rows into a bulk-aggregated group table: a
// row's base contribution leaves its base group, its current one enters
// the group of its current key — so an update that changes the key moves
// the row between groups. The patch stays exact under zone pruning
// because zones are conservative: a base value that matches always lives
// in an admitted fragment, so it was part of the bulk pass and can be
// subtracted. The patch table materializes lazily: with no patch rows
// (the common warm serving state) the bulk result is returned as-is,
// with no second hash table and no re-sort.
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
