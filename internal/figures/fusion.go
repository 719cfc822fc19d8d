package figures

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"hybridstore/internal/compress"
	"hybridstore/internal/device"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
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
	if fragments < 1 || rows%uint64(fragments) != 0 {
		return nil, fmt.Errorf("figures: rows %d not divisible into %d fragments", rows, fragments)
	}
	fragRows := rows / uint64(fragments)
	sweep := &FusionSweep{Rows: rows, FragmentRows: fragRows, Fragments: fragments}
	host := perfmodel.DefaultHost()

	// The value column is shared across cardinalities: a hashed spread of
	// the integers 0..fusionDistinct-1, so every fragment spans the full
	// value range (no zone pruning — this panel isolates fusion).
	vals := make([]float64, rows)
	valsDense := make([]byte, rows*8)
	for i := uint64(0); i < rows; i++ {
		vals[i] = float64((i * 2654435761 >> 7) % fusionDistinct)
		binary.LittleEndian.PutUint64(valsDense[i*8:], math.Float64bits(vals[i]))
	}
	valPieces, compVals, err := fusionValPieces(valsDense, fragments, fragRows)
	if err != nil {
		return nil, err
	}

	for _, card := range cards {
		keys := make([]int64, rows)
		keysDense := make([]byte, rows*8)
		for i := uint64(0); i < rows; i++ {
			keys[i] = int64((i * 0x9E3779B97F4A7C15 >> 11) % uint64(card))
			binary.LittleEndian.PutUint64(keysDense[i*8:], uint64(keys[i]))
		}
		keyPieces := fusionPieces(keysDense, fragments, fragRows)

		for _, s := range sels {
			q := float64(int(s*fusionDistinct+0.5) - 1)
			p := exec.Between(0.0, q)
			pt := FusionPoint{Groups: card}
			want := make(map[int64]*exec.GroupResult)
			for i := uint64(0); i < rows; i++ {
				if p.Match(vals[i]) {
					pt.Matched++
					if g, ok := want[keys[i]]; ok {
						g.Sum += vals[i]
						g.Count++
					} else {
						want[keys[i]] = &exec.GroupResult{Key: keys[i], Sum: vals[i], Count: 1}
					}
				}
			}
			pt.Selectivity = float64(pt.Matched) / float64(rows)
			check := func(leg string, got []exec.GroupResult, err error) error {
				if err != nil {
					return fmt.Errorf("figures: fusion %d/%.2f %s: %w", card, s, leg, err)
				}
				if len(got) != len(want) {
					return fmt.Errorf("figures: fusion %d/%.2f %s: %d groups, want %d", card, s, leg, len(got), len(want))
				}
				for _, g := range got {
					w := want[g.Key]
					if w == nil || g.Count != w.Count ||
						math.Abs(g.Sum-w.Sum) > 1e-6*math.Max(1, math.Abs(w.Sum)) {
						return fmt.Errorf("figures: fusion %d/%.2f %s: group %d got (%v, %d)", card, s, leg, g.Key, g.Sum, g.Count)
					}
				}
				return nil
			}

			// Host dense legs, all three policies.
			for _, leg := range []struct {
				policy          exec.Policy
				fusedNs, baseNs *float64
			}{
				{exec.SingleThreaded, &pt.FusedSingleNs, &pt.BaseSingleNs},
				{exec.MultiThreaded, &pt.FusedMultiNs, &pt.BaseMultiNs},
				{exec.MorselDriven, &pt.FusedMorselNs, &pt.BaseMorselNs},
			} {
				clock := &perfmodel.Clock{}
				cfg := exec.Config{Policy: leg.policy, Host: host, Clock: clock}
				groups, err := exec.GroupSumFloat64Where(cfg, keyPieces, valPieces, p)
				if err := check("fused", groups, err); err != nil {
					return nil, err
				}
				*leg.fusedNs = clock.ElapsedNs()

				clock = &perfmodel.Clock{}
				cfg = exec.Config{Policy: leg.policy, Host: host, Clock: clock}
				groups, err = fusionHostBaseline(cfg, host, keysDense, valsDense, rows, valPieces, p)
				if err := check("baseline", groups, err); err != nil {
					return nil, err
				}
				*leg.baseNs = clock.ElapsedNs()
			}

			// Host compressed legs (single-threaded): fused in the
			// compressed domain versus decode-then-baseline.
			{
				clock := &perfmodel.Clock{}
				cfg := exec.Config{Policy: exec.SingleThreaded, Host: host, Clock: clock}
				groups, err := exec.GroupSumFloat64Where(cfg, keyPieces, compVals, p)
				if err := check("fused-comp", groups, err); err != nil {
					return nil, err
				}
				pt.FusedCompNs = clock.ElapsedNs()

				clock = &perfmodel.Clock{}
				cfg = exec.Config{Policy: exec.SingleThreaded, Host: host, Clock: clock}
				// Decode pass: rebuild the dense value image, then run the
				// dense baseline over it.
				decoded := make([]byte, 0, rows*8)
				for _, cp := range compVals {
					decoded = append(decoded, cp.Comp.Decompress()...)
				}
				clock.Advance(host.SeqScanNs(int64(len(decoded)), int64(rows)))
				groups, err = fusionHostBaseline(cfg, host, keysDense, decoded, rows, valPieces, p)
				if err := check("baseline-comp", groups, err); err != nil {
					return nil, err
				}
				pt.BaseCompNs = clock.ElapsedNs()
			}

			// Device fused leg: one kernel launch and one group-table
			// download per fragment, through the fragment cache (cold).
			{
				clock := &perfmodel.Clock{}
				gpu := device.New(perfmodel.DefaultDevice(), clock)
				cache := device.NewFragCache(gpu)
				ds := exec.DeviceScan{GPU: gpu, Cache: cache, Table: "fusion"}
				groups, err := groupSumWhereOn(ds, keyPieces, valPieces, p)
				if err := check("device-fused", groups, err); err != nil {
					return nil, err
				}
				st := gpu.Stats()
				pt.DeviceFusedNs = clock.ElapsedNs()
				pt.DeviceFusedKernels = st.KernelLaunches
				pt.DeviceFusedD2HBytes = st.DeviceToHostBytes
			}

			// Device baseline leg: per fragment a filter kernel plus two
			// gather kernels materializing every matching pair over the bus,
			// aggregated on the host.
			{
				clock := &perfmodel.Clock{}
				gpu := device.New(perfmodel.DefaultDevice(), clock)
				groups, err := fusionDeviceBaseline(gpu, clock, host, keysDense, valsDense, vals, fragments, fragRows, p)
				if err := check("device-baseline", groups, err); err != nil {
					return nil, err
				}
				st := gpu.Stats()
				pt.DeviceBaseNs = clock.ElapsedNs()
				pt.DeviceBaseKernels = st.KernelLaunches
				pt.DeviceBaseD2HBytes = st.DeviceToHostBytes
			}

			// Device compressed leg: the fused kernel decodes and aggregates
			// the dictionary image in the same single launch per fragment.
			{
				clock := &perfmodel.Clock{}
				gpu := device.New(perfmodel.DefaultDevice(), clock)
				cache := device.NewFragCache(gpu)
				ds := exec.DeviceScan{GPU: gpu, Cache: cache, Table: "fusion-comp"}
				groups, err := groupSumWhereOn(ds, keyPieces, compVals, p)
				if err := check("device-fused-comp", groups, err); err != nil {
					return nil, err
				}
				pt.DeviceCompFusedNs = clock.ElapsedNs()
				pt.DeviceCompFusedKernels = gpu.Stats().KernelLaunches
			}

			sweep.Points = append(sweep.Points, pt)
		}
	}
	return sweep, nil
}

// fusionPieces slices a dense 8-byte column into per-fragment pieces.
func fusionPieces(dense []byte, fragments int, fragRows uint64) []exec.Piece {
	pieces := make([]exec.Piece, fragments)
	for i := 0; i < fragments; i++ {
		begin := uint64(i) * fragRows
		pieces[i] = exec.Piece{
			Rows: layout.RowRange{Begin: begin, End: begin + fragRows},
			Vec: layout.ColVector{
				Data: dense, Base: int(begin * 8),
				Stride: 8, Size: 8, Len: int(fragRows),
			},
			FragID: uint64(i + 1), FragVersion: 1,
		}
	}
	return pieces
}

// fusionValPieces builds the dense and the compressed piece lists of the
// value column.
func fusionValPieces(dense []byte, fragments int, fragRows uint64) (raw, comp []exec.Piece, err error) {
	raw = fusionPieces(dense, fragments, fragRows)
	comp = make([]exec.Piece, fragments)
	for i := 0; i < fragments; i++ {
		begin := uint64(i) * fragRows
		cc, err := compress.Compress(dense[begin*8:(begin+fragRows)*8], int(fragRows), 8)
		if err != nil {
			return nil, nil, fmt.Errorf("figures: compressing fusion fragment %d: %w", i, err)
		}
		comp[i] = exec.Piece{
			Rows: layout.RowRange{Begin: begin, End: begin + fragRows},
			Vec:  layout.ColVector{Stride: 8, Size: 8, Len: int(fragRows)},
			Comp: cc, FragID: uint64(i + 1), FragVersion: 1,
		}
	}
	return raw, comp, nil
}

// fusionHostBaseline is the materialize-then-aggregate plan: a predicate
// selection over the value column, a gather of the matching (key, val)
// pairs priced as a record-centric materialization of 16-byte records
// spread over two fragments, and a grouped aggregation over the
// materialized pair.
func fusionHostBaseline(cfg exec.Config, host perfmodel.HostProfile, keysDense, valsDense []byte, rows uint64, valPieces []exec.Piece, p exec.Pred[float64]) ([]exec.GroupResult, error) {
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
	mk := fusionPieces(matK, 1, uint64(len(pos)))
	mv := fusionPieces(matV, 1, uint64(len(pos)))
	if len(pos) == 0 {
		return nil, nil
	}
	return exec.GroupSumFloat64(cfg, mk, mv)
}

// fusionDeviceBaseline is the device materialize-then-aggregate plan:
// both columns cross the bus, a filter kernel evaluates the predicate,
// two gather kernels materialize the matching keys and values back over
// the bus, and the host folds the pairs into the group table.
func fusionDeviceBaseline(gpu *device.GPU, clock *perfmodel.Clock, host perfmodel.HostProfile, keysDense, valsDense []byte, vals []float64, fragments int, fragRows uint64, p exec.Pred[float64]) ([]exec.GroupResult, error) {
	lo, hi, ok := exec.ClosedFloat64(p)
	if !ok {
		return nil, fmt.Errorf("figures: fusion baseline predicate %v not closed", p.Op)
	}
	table := make(map[int64]*exec.GroupResult)
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
			key := int64(binary.LittleEndian.Uint64(kb[i*8:]))
			v := math.Float64frombits(binary.LittleEndian.Uint64(vb[i*8:]))
			if g, okg := table[key]; okg {
				g.Sum += v
				g.Count++
			} else {
				table[key] = &exec.GroupResult{Key: key, Sum: v, Count: 1}
			}
		}
		clock.Advance(host.SeqScanNs(int64(len(positions))*16, int64(len(positions))))
		kbuf.Free()
		vbuf.Free()
	}
	out := make([]exec.GroupResult, 0, len(table))
	for _, g := range table {
		out = append(out, *g)
	}
	return exec.MergeGroupResults(out), nil
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

// Render formats the sweep as a fixed-width table.
func (s *FusionSweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fusion panel: SELECT key, SUM(val), COUNT(*) WHERE … GROUP BY key over %d rows in %d fragments (%d rows each)\n",
		s.Rows, s.Fragments, s.FragmentRows)
	b.WriteString("fused = one-pass predicate→group-by; base = selection vector + pair materialization + aggregation\n")
	rows := [][]string{{"groups", "sel", "fused 1T", "base 1T", "fused MT", "base MT",
		"fused MD", "base MD", "fused comp", "base comp",
		"dev fused", "dev base", "dev krn f/b", "dev d2h f/b", "dev comp"}}
	for _, p := range s.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Groups),
			fmt.Sprintf("%.2f", p.Selectivity),
			fmt.Sprintf("%.0f", p.FusedSingleNs),
			fmt.Sprintf("%.0f", p.BaseSingleNs),
			fmt.Sprintf("%.0f", p.FusedMultiNs),
			fmt.Sprintf("%.0f", p.BaseMultiNs),
			fmt.Sprintf("%.0f", p.FusedMorselNs),
			fmt.Sprintf("%.0f", p.BaseMorselNs),
			fmt.Sprintf("%.0f", p.FusedCompNs),
			fmt.Sprintf("%.0f", p.BaseCompNs),
			fmt.Sprintf("%.0f", p.DeviceFusedNs),
			fmt.Sprintf("%.0f", p.DeviceBaseNs),
			fmt.Sprintf("%d/%d", p.DeviceFusedKernels, p.DeviceBaseKernels),
			fmt.Sprintf("%d/%d", p.DeviceFusedD2HBytes, p.DeviceBaseD2HBytes),
			fmt.Sprintf("%.0f", p.DeviceCompFusedNs),
		})
	}
	renderTable(&b, rows)
	fmt.Fprintf(&b, "host fused wins (all policies, all points): %v\n", s.HostFusedWins())
	fmt.Fprintf(&b, "device fused wins at ≤10%% selectivity:      %v\n", s.DeviceFusedWins(0.10))
	return b.String()
}

// CSV renders the sweep as comma-separated values, one row per point.
func (s *FusionSweep) CSV() string {
	var b strings.Builder
	b.WriteString("groups,selectivity,matched," +
		"fused_single_ns,base_single_ns,fused_multi_ns,base_multi_ns," +
		"fused_morsel_ns,base_morsel_ns,fused_comp_ns,base_comp_ns," +
		"device_fused_ns,device_base_ns,device_fused_kernels,device_base_kernels," +
		"device_fused_d2h_bytes,device_base_d2h_bytes," +
		"device_comp_fused_ns,device_comp_fused_kernels\n")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%d,%g,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%d,%d,%d,%d,%g,%d\n",
			p.Groups, p.Selectivity, p.Matched,
			p.FusedSingleNs, p.BaseSingleNs, p.FusedMultiNs, p.BaseMultiNs,
			p.FusedMorselNs, p.BaseMorselNs, p.FusedCompNs, p.BaseCompNs,
			p.DeviceFusedNs, p.DeviceBaseNs, p.DeviceFusedKernels, p.DeviceBaseKernels,
			p.DeviceFusedD2HBytes, p.DeviceBaseD2HBytes,
			p.DeviceCompFusedNs, p.DeviceCompFusedKernels)
	}
	return b.String()
}

// sumWhereOn runs SUM(col), COUNT(*) WHERE p over the pieces on a scan
// executor.
func sumWhereOn(ex exec.ScanExecutor, col int, pieces []exec.Piece, p exec.Pred[float64]) (float64, int64, error) {
	r, err := ex.Scan(exec.Scan{Plan: exec.Plan{Op: exec.KindSumWhere, Col: col, Pred: p}, Vals: pieces})
	return r.Sum, r.Count, err
}

// groupSumWhereOn runs the fused predicate group-by over key column 0
// and value column 1 on a scan executor.
func groupSumWhereOn(ex exec.ScanExecutor, keys, vals []exec.Piece, p exec.Pred[float64]) ([]exec.GroupResult, error) {
	r, err := ex.Scan(exec.Scan{Plan: exec.Plan{Op: exec.KindGroupSumWhere, KeyCol: 0, Col: 1, Pred: p}, Keys: keys, Vals: vals})
	return r.Groups, err
}
