package core

import (
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/tx"
)

// groupLocked answers the group-sum / group-sum-where plans of one
// (key, value) column pair under the caller's read lock and snapshot,
// one fused pass per plan: SELECT keyCol, SUM(valCol), COUNT(*) [WHERE
// p] GROUP BY keyCol. The base fragments are aggregated in bulk, then
// the snapshot's visible delta versions are patched into the group
// table (moving a row between groups when its key changed).
//
// Predicated plans use the fused single-pass operator: no selection
// vector, fragments whose value zones exclude p pruned with both
// columns' bytes saved, compressed cold chunks aggregated in the
// compressed domain. With DeviceCache on, cold chunk pairs run the
// one-launch fused group kernel through the fragment cache (group keys
// stay raw for the kernel); a device refusal falls back to the host
// fused operator and is counted. Unpredicated plans are a host-side
// operation over raw pieces. Device-resident fragments are read through
// the bus (charged on the simulated clock) either way.
func (t *Table) groupLocked(reader *tx.Tx, shape exec.Plan, plans []exec.Plan, res []exec.Result) error {
	for k, pl := range plans {
		if k > 0 && !shape.HasPred {
			res[k].Groups = append([]exec.GroupResult(nil), res[0].Groups...) // identical plans
			continue
		}
		groups, err := t.groupOneLocked(reader, pl, shape.HasPred)
		if err != nil {
			return err
		}
		res[k].Groups = groups
	}
	return nil
}

// groupOneLocked runs one grouped plan; hasPred is the normalized
// shape's flag (callers need not have set it on pl).
func (t *Table) groupOneLocked(reader *tx.Tx, pl exec.Plan, hasPred bool) ([]exec.GroupResult, error) {
	keyCol, valCol, p := pl.KeyCol, pl.Col, pl.Pred
	match := func(x float64) bool { return !hasPred || p.Match(x) }
	closed := pl.DeviceOK()
	rows := t.rel.Rows()
	var hostK, hostV, cacheK, cacheV []exec.Piece
	for _, c := range t.chunks {
		if c.rows.Begin >= rows {
			break
		}
		kp, devBytes, err := t.pieceFor(c, keyCol)
		if err != nil {
			return nil, err
		}
		vp, devBytes2, err := t.pieceFor(c, valCol)
		if err != nil {
			return nil, err
		}
		if t.env.Clock != nil && devBytes+devBytes2 > 0 {
			t.env.Clock.Advance(t.env.GPU.Profile().TransferNs(devBytes + devBytes2))
		}
		if hasPred {
			// Cold pairs ride the device fused group kernel through the
			// fragment cache; the key piece stays raw (the kernel sweeps it
			// alongside the values). Hot chunks stay on the host operator.
			t.attachCompressed(&vp, c, valCol)
			if t.eng.opts.DeviceCache && t.env.Cache != nil && c.state == cold && closed && devBytes+devBytes2 == 0 {
				cacheK, cacheV = append(cacheK, kp), append(cacheV, vp)
				continue
			}
			t.attachCompressed(&kp, c, keyCol)
		}
		hostK, hostV = append(hostK, kp), append(hostV, vp)
	}
	var merged []exec.GroupResult
	if hasPred {
		var devGroups []exec.GroupResult
		if len(cacheV) > 0 {
			dev, err := t.env.DeviceExec(t.rel.Name()).Scan(exec.Scan{Plan: pl, Keys: cacheK, Vals: cacheV})
			if err != nil {
				// The device kernel refused the pair shape; the host fused
				// operator handles everything it cannot.
				exec.NoteGroupFusedFallback()
				hostK, hostV = append(hostK, cacheK...), append(hostV, cacheV...)
			}
			devGroups = dev.Groups
		}
		hostGroups, err := exec.GroupSumFloat64Where(t.cfg, hostK, hostV, p)
		if err != nil {
			return nil, err
		}
		merged = exec.MergeGroupResults(devGroups, hostGroups)
	} else {
		var err error
		if merged, err = exec.GroupSumFloat64(t.cfg, hostK, hostV); err != nil {
			return nil, err
		}
	}

	// Patch the snapshot's visible versions: move matching rows between
	// groups, drop rows whose new value no longer matches, add rows whose
	// new value now does (see engine.GroupPatch).
	gp := engine.NewGroupPatch(merged, match)
	err := t.patchRows(reader, func(row uint64, rec schema.Record, _ uint64) error {
		baseKey, err := t.baseValue(row, keyCol)
		if err != nil {
			return err
		}
		baseVal, err := t.baseValue(row, valCol)
		if err != nil {
			return err
		}
		gp.Apply(engine.Cell{Key: baseKey.I, Val: baseVal.F}, engine.Cell{Key: rec[keyCol].I, Val: rec[valCol].F})
		return nil
	})
	return gp.Groups(), err
}

// pieceFor builds one zone-carrying column piece for a chunk, reporting
// device-resident bytes (which callers charge to the bus or route to
// the device kernels).
func (t *Table) pieceFor(c *chunk, col int) (exec.Piece, int64, error) {
	frag, err := t.fragmentForCol(c, col)
	if err != nil {
		return exec.Piece{}, 0, err
	}
	v, err := frag.ColVector(col)
	if err != nil {
		return exec.Piece{}, 0, err
	}
	var devBytes int64
	if frag.Space() == t.env.GPU.Allocator().Space() {
		devBytes = int64(v.Len * v.Size)
	}
	return exec.Piece{
		Rows:   layout.RowRange{Begin: c.rows.Begin, End: c.rows.Begin + uint64(v.Len)},
		Vec:    v,
		Zone:   frag.Stats(col),
		FragID: frag.ID(), FragVersion: frag.Version(),
	}, devBytes, nil
}
