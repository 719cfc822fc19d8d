package figures

import (
	"encoding/binary"
	"fmt"
	"math"

	"hybridstore/internal/device"
	"hybridstore/internal/exec"
	"hybridstore/internal/perfmodel"
)

// The fusion panel measures the fused predicate→group-by pipeline
// against the classical materialize-then-aggregate plan: SELECT key,
// SUM(val), COUNT(*) WHERE val BETWEEN … GROUP BY key, swept over group
// cardinality and selectivity. The fused operator reads both columns in
// one pass and accumulates per-group partials directly; the baseline
// first builds a selection vector, then gathers the matching (key, val)
// pairs out of the columns (priced as a record-centric materialization
// of 16-byte records spread over two fragments), then aggregates the
// materialized pair. On the device the fused plan is one kernel launch
// and one group-table download per fragment, while the baseline runs a
// filter kernel plus two gather kernels and ships every matching pair
// over the bus. Compressed legs aggregate the dictionary-coded value
// column in the compressed domain versus decode-then-baseline.

// FusionPoint is one (group cardinality, selectivity) cell of the sweep.
type FusionPoint struct {
	// Groups is the group-key cardinality; Selectivity the achieved
	// matching fraction (Matched rows of the total).
	Groups      int
	Selectivity float64
	Matched     int64
	// Host dense legs: the fused single-pass operator versus the
	// materialize-then-aggregate baseline, per threading policy.
	FusedSingleNs, FusedMultiNs, FusedMorselNs float64
	BaseSingleNs, BaseMultiNs, BaseMorselNs    float64
	// Host compressed-domain legs (single-threaded): fused aggregation
	// over the dictionary-coded value column versus decode-then-baseline.
	FusedCompNs, BaseCompNs float64
	// Device legs through the fragment cache (cold): the one-launch fused
	// group kernel versus filter + gather + host aggregation.
	DeviceFusedNs, DeviceBaseNs             float64
	DeviceFusedKernels, DeviceBaseKernels   int64
	DeviceFusedD2HBytes, DeviceBaseD2HBytes int64
	// Device compressed leg: the fused kernel decoding and aggregating in
	// one launch per fragment.
	DeviceCompFusedNs      float64
	DeviceCompFusedKernels int64
}

// FusionSweep is the full panel.
type FusionSweep struct {
	// Rows is the column size; FragmentRows the rows per fragment.
	Rows, FragmentRows uint64
	// Fragments is the fragment count.
	Fragments int
	// Points holds one entry per (cardinality, selectivity) cell.
	Points []FusionPoint
}

// DefaultFusionCards returns the swept group cardinalities.
func DefaultFusionCards() []int { return []int{8, 1024} }

// DefaultFusionSelectivities returns the swept selectivities. The
// low end stays at 5% where the one-pass plan still wins on the host:
// below roughly 2% the model (correctly) lets the baseline's cheaper
// single-column selection scan pull ahead under parallel gathers.
func DefaultFusionSelectivities() []float64 { return []float64{0.05, 0.10, 0.50, 1.00} }

// fusionDistinct is the value-domain cardinality: values are the
// integers 0..99, so BETWEEN [0, s*100-1] selects a fraction s and the
// column dictionary-encodes at 8x.
const fusionDistinct = 100

// MeasureFusion executes the sweep for real. Every leg's group table is
// cross-checked against a host-side shadow aggregation.
func MeasureFusion(rows uint64, fragments int, cards []int, sels []float64) (*FusionSweep, error) {
	fragRows, err := fragmentRows(rows, fragments)
	if err != nil {
		return nil, err
	}
	sweep := &FusionSweep{Rows: rows, FragmentRows: fragRows, Fragments: fragments}

	// The value column is shared across cardinalities: a hashed spread of
	// the integers 0..fusionDistinct-1, so every fragment spans the full
	// value range (no zone pruning — this panel isolates fusion).
	vals := make([]float64, rows)
	for i := uint64(0); i < rows; i++ {
		vals[i] = float64((i * 2654435761 >> 7) % fusionDistinct)
	}
	valsDense := floatColumn(vals, 8)
	valPieces, err := cutPieces(valsDense, 8, fragments, false)
	if err != nil {
		return nil, err
	}
	compVals, err := compressPieces(valPieces)
	if err != nil {
		return nil, err
	}

	for _, card := range cards {
		keys := make([]int64, rows)
		for i := uint64(0); i < rows; i++ {
			keys[i] = int64((i * 0x9E3779B97F4A7C15 >> 11) % uint64(card))
		}
		keysDense := denseColumn(len(keys), 8, func(i int) uint64 { return uint64(keys[i]) })
		keyPieces, err := cutPieces(keysDense, 8, fragments, false)
		if err != nil {
			return nil, err
		}

		for _, s := range sels {
			q := float64(int(s*fusionDistinct+0.5) - 1)
			p := exec.Between(0.0, q)
			pt := FusionPoint{Groups: card}
			shadow := groupTable{}
			for i := uint64(0); i < rows; i++ {
				if p.Match(vals[i]) {
					pt.Matched++
					shadow.add(keys[i], vals[i])
				}
			}
			pt.Selectivity = float64(pt.Matched) / float64(rows)
			l := legs{what: fmt.Sprintf("fusion %d/%.2f", card, s), want: exec.Result{Groups: shadow.groups()}}
			plan := exec.Plan{Op: exec.KindGroupSumWhere, KeyCol: 0, Col: 1, Pred: p}
			dense := exec.Scan{Plan: plan, Keys: keyPieces, Vals: valPieces}
			comp := exec.Scan{Plan: plan, Keys: keyPieces, Vals: compVals}

			// Host dense legs, all three policies: the fused operator and the
			// baseline, each on a fresh clock.
			for _, hl := range []struct {
				policy          exec.Policy
				fusedNs, baseNs *float64
			}{
				{exec.SingleThreaded, &pt.FusedSingleNs, &pt.BaseSingleNs},
				{exec.MultiThreaded, &pt.FusedMultiNs, &pt.BaseMultiNs},
				{exec.MorselDriven, &pt.FusedMorselNs, &pt.BaseMorselNs},
			} {
				*hl.fusedNs = l.on(newRig(false), "fused", onHost(hl.policy, dense)).Ns
				*hl.baseNs = l.on(newRig(false), "baseline", func(r *rig) (exec.Result, error) {
					return grouped(fusionHostBaseline(r.host(hl.policy), keysDense, valsDense, rows, valPieces, p))
				}).Ns
			}

			// Host compressed legs (single-threaded): fused in the
			// compressed domain versus decode-then-baseline.
			pt.FusedCompNs = l.on(newRig(false), "fused-comp", onHost(exec.SingleThreaded, comp)).Ns
			pt.BaseCompNs = l.on(newRig(false), "baseline-comp", func(r *rig) (exec.Result, error) {
				// Decode pass: rebuild the dense value image, then run the
				// dense baseline over it.
				decoded := make([]byte, 0, rows*8)
				for _, cp := range compVals {
					decoded = append(decoded, cp.Comp.Decompress()...)
				}
				cfg := r.host(exec.SingleThreaded)
				r.clock.Advance(cfg.Host.SeqScanNs(int64(len(decoded)), int64(rows)))
				return grouped(fusionHostBaseline(cfg, keysDense, decoded, rows, valPieces, p))
			}).Ns

			// Device fused leg: one kernel launch and one group-table
			// download per fragment, through the fragment cache (cold).
			c := l.on(newRig(true), "device-fused", onCard("fusion", dense))
			pt.DeviceFusedNs, pt.DeviceFusedKernels, pt.DeviceFusedD2HBytes = c.Ns, c.Kernels, c.D2H

			// Device baseline leg: per fragment a filter kernel plus two
			// gather kernels materializing every matching pair over the bus,
			// aggregated on the host.
			c = l.on(newRig(false), "device-baseline", func(r *rig) (exec.Result, error) {
				return grouped(fusionDeviceBaseline(r, keysDense, valsDense, vals, fragments, fragRows, p))
			})
			pt.DeviceBaseNs, pt.DeviceBaseKernels, pt.DeviceBaseD2HBytes = c.Ns, c.Kernels, c.D2H

			// Device compressed leg: the fused kernel decodes and aggregates
			// the dictionary image in the same single launch per fragment.
			c = l.on(newRig(true), "device-fused-comp", onCard("fusion-comp", comp))
			pt.DeviceCompFusedNs, pt.DeviceCompFusedKernels = c.Ns, c.Kernels
			if l.err != nil {
				return nil, l.err
			}
			sweep.Points = append(sweep.Points, pt)
		}
	}
	return sweep, nil
}

// grouped wraps a baseline's group table as the answer a leg checks.
func grouped(groups []exec.GroupResult, err error) (exec.Result, error) {
	return exec.Result{Groups: groups}, err
}

// fusionHostBaseline is the materialize-then-aggregate plan: a predicate
// selection over the value column, a gather of the matching (key, val)
// pairs priced as a record-centric materialization of 16-byte records
// spread over two fragments, and a grouped aggregation over the
// materialized pair.
func fusionHostBaseline(cfg exec.Config, keysDense, valsDense []byte, rows uint64, valPieces []exec.Piece, p exec.Pred) ([]exec.GroupResult, error) {
	host := cfg.Host
	sel, err := exec.SelectFloat64Pred(cfg, valPieces, p)
	if err != nil {
		return nil, err
	}
	defer sel.Release()
	pos := sel.Positions()
	matK := make([]byte, len(pos)*8)
	matV := make([]byte, len(pos)*8)
	for i, gp := range pos {
		copy(matK[i*8:], keysDense[gp*8:gp*8+8])
		copy(matV[i*8:], valsDense[gp*8:gp*8+8])
	}
	if cfg.Clock != nil && len(pos) > 0 {
		k, n := int64(len(pos)), int64(rows)
		switch cfg.Policy {
		case exec.MorselDriven:
			cfg.Clock.Advance(host.MaterializeMorselNs(k, n, 16, 2, host.Threads))
		case exec.MultiThreaded:
			cfg.Clock.Advance(host.MaterializeNs(k, n, 16, 2, host.Threads))
		default:
			cfg.Clock.Advance(host.MaterializeNs(k, n, 16, 2, 1))
		}
	}
	if len(pos) == 0 {
		return nil, nil
	}
	mk, err := cutPieces(matK, 8, 1, false)
	if err != nil {
		return nil, err
	}
	mv, err := cutPieces(matV, 8, 1, false)
	if err != nil {
		return nil, err
	}
	return exec.GroupSumFloat64(cfg, mk, mv)
}

// fusionDeviceBaseline is the device materialize-then-aggregate plan:
// both columns cross the bus, a filter kernel evaluates the predicate,
// two gather kernels materialize the matching keys and values back over
// the bus, and the host folds the pairs into the group table.
func fusionDeviceBaseline(r *rig, keysDense, valsDense []byte, vals []float64, fragments int, fragRows uint64, p exec.Pred) ([]exec.GroupResult, error) {
	gpu, host := r.gpu, perfmodel.DefaultHost()
	lo, hi, ok := p.Closed()
	if !ok {
		return nil, fmt.Errorf("figures: fusion baseline predicate %v not closed", p.Op)
	}
	table := groupTable{}
	for f := 0; f < fragments; f++ {
		begin := uint64(f) * fragRows
		kbuf, err := gpu.Alloc(int(fragRows) * 8)
		if err != nil {
			return nil, err
		}
		vbuf, err := gpu.Alloc(int(fragRows) * 8)
		if err != nil {
			return nil, err
		}
		if err := gpu.CopyToDevice(kbuf, 0, keysDense[begin*8:(begin+fragRows)*8]); err != nil {
			return nil, err
		}
		if err := gpu.CopyToDevice(vbuf, 0, valsDense[begin*8:(begin+fragRows)*8]); err != nil {
			return nil, err
		}
		vvec := device.Vec{Buf: vbuf, Stride: 8, Size: 8, Len: int(fragRows)}
		// The filter kernel: evaluates the predicate over the fragment and
		// reports the match count the gathers are sized for.
		if _, err := gpu.Launch(device.Kernel{Vals: vvec, Where: true, Lo: lo, Hi: hi, Config: device.DefaultReduceConfig()}); err != nil {
			return nil, err
		}
		var positions []int
		for j := uint64(0); j < fragRows; j++ {
			if p.Match(vals[begin+j]) {
				positions = append(positions, int(j))
			}
		}
		kb, err := gpu.Gather(kbuf, 8, positions)
		if err != nil {
			return nil, err
		}
		vb, err := gpu.Gather(vbuf, 8, positions)
		if err != nil {
			return nil, err
		}
		for i := range positions {
			table.add(int64(binary.LittleEndian.Uint64(kb[i*8:])), math.Float64frombits(binary.LittleEndian.Uint64(vb[i*8:])))
		}
		r.clock.Advance(host.SeqScanNs(int64(len(positions))*16, int64(len(positions))))
		kbuf.Free()
		vbuf.Free()
	}
	return table.groups(), nil
}

// HostFusedWins reports whether the fused operator beat the baseline at
// every swept point under every threading policy.
func (s *FusionSweep) HostFusedWins() bool {
	for _, pt := range s.Points {
		if pt.FusedSingleNs >= pt.BaseSingleNs ||
			pt.FusedMultiNs >= pt.BaseMultiNs ||
			pt.FusedMorselNs >= pt.BaseMorselNs {
			return false
		}
	}
	return true
}

// DeviceFusedWins reports whether the one-launch device plan beat the
// materializing device baseline at every swept point at or below the
// given selectivity.
func (s *FusionSweep) DeviceFusedWins(maxSel float64) bool {
	for _, pt := range s.Points {
		if pt.Selectivity <= maxSel && pt.DeviceFusedNs >= pt.DeviceBaseNs {
			return false
		}
	}
	return true
}

// Tables renders the sweep, one row per point.
func (s *FusionSweep) Tables() []Table {
	ns := func(csv, text string) Column { return Column{CSV: csv, Text: text, TextVerb: "%.0f"} }
	t := Table{
		Caption: []string{
			fmt.Sprintf("fusion panel: SELECT key, SUM(val), COUNT(*) WHERE … GROUP BY key over %d rows in %d fragments (%d rows each)",
				s.Rows, s.Fragments, s.FragmentRows),
			"fused = one-pass predicate→group-by; base = selection vector + pair materialization + aggregation",
		},
		Columns: []Column{
			{CSV: "groups", Text: "groups"},
			{CSV: "selectivity", Text: "sel", TextVerb: "%.2f"},
			{CSV: "matched"},
			ns("fused_single_ns", "fused 1T"), ns("base_single_ns", "base 1T"),
			ns("fused_multi_ns", "fused MT"), ns("base_multi_ns", "base MT"),
			ns("fused_morsel_ns", "fused MD"), ns("base_morsel_ns", "base MD"),
			ns("fused_comp_ns", "fused comp"), ns("base_comp_ns", "base comp"),
			ns("device_fused_ns", "dev fused"), ns("device_base_ns", "dev base"),
			{CSV: "device_fused_kernels"}, {CSV: "device_base_kernels"}, {Text: "dev krn f/b"},
			{CSV: "device_fused_d2h_bytes"}, {CSV: "device_base_d2h_bytes"}, {Text: "dev d2h f/b"},
			ns("device_comp_fused_ns", "dev comp"),
			{CSV: "device_comp_fused_kernels"},
		},
		Footer: []string{
			fmt.Sprintf("host fused wins (all policies, all points): %v", s.HostFusedWins()),
			fmt.Sprintf("device fused wins at ≤10%% selectivity:      %v", s.DeviceFusedWins(0.10)),
		},
	}
	for _, p := range s.Points {
		t.Rows = append(t.Rows, []any{p.Groups, p.Selectivity, p.Matched,
			p.FusedSingleNs, p.BaseSingleNs, p.FusedMultiNs, p.BaseMultiNs,
			p.FusedMorselNs, p.BaseMorselNs, p.FusedCompNs, p.BaseCompNs,
			p.DeviceFusedNs, p.DeviceBaseNs,
			p.DeviceFusedKernels, p.DeviceBaseKernels, fmt.Sprintf("%d/%d", p.DeviceFusedKernels, p.DeviceBaseKernels),
			p.DeviceFusedD2HBytes, p.DeviceBaseD2HBytes, fmt.Sprintf("%d/%d", p.DeviceFusedD2HBytes, p.DeviceBaseD2HBytes),
			p.DeviceCompFusedNs, p.DeviceCompFusedKernels})
	}
	return []Table{t}
}
