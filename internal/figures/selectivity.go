package figures

import (
	"fmt"
	"math"
	"time"

	"hybridstore/internal/device"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// The selectivity sweep extends Figure 2 with the data-skipping panel:
// the filtered aggregate SUM(price) WHERE price < cut is executed for
// real at selectivities from 0.01% to 100% over a table whose price
// column is monotone, so every fragment carries a narrow sealed zone and
// a range predicate prunes a prefix fraction of the fragments exactly.
// Three execution strategies are timed per host configuration:
//
//	Pruned  — the fused predicate operator consulting fragment zone maps
//	          (the path this repo's engines use).
//	Fused   — the same specialized operator with the zones stripped:
//	          isolates the kernel-specialization win from the skipping win.
//	Generic — the pre-existing closure-predicate scan over all fragments,
//	          the baseline an engine without the predicate API pays.
//
// The device series transfers and launches kernels only for surviving
// fragments, so pruning shows up as reduced bus traffic rather than
// host cycles.

// DefaultSelectivities is the sweep's x-axis: match fractions from one
// in ten thousand to the full table.
func DefaultSelectivities() []float64 {
	return []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 1.0}
}

// SelectivitySeries is one host configuration measured across the sweep.
// All times are best-of-repeats wall-clock nanoseconds on this machine.
type SelectivitySeries struct {
	// Label names the storage model and threading policy.
	Label string
	// PrunedNs times the fused operator with zone-map pruning.
	PrunedNs []float64
	// FusedNs times the fused operator with zones stripped (no skipping).
	FusedNs []float64
	// GenericNs times the closure-predicate scan (no zones, no fusion).
	GenericNs []float64
	// Speedup is GenericNs / PrunedNs per point.
	Speedup []float64
}

// DeviceRun is one device series across the sweep: the host-to-device
// bytes moved, the kernels launched and the simulated device time
// (transfer + kernels) from the calibrated model.
type DeviceRun struct {
	H2DBytes, Kernels []int64
	Ns                []float64
}

// DeviceSelectivity is the device-resident series, with and without
// zone-map pruning: pruning decides which fragments are transferred and
// reduced at all.
type DeviceSelectivity struct {
	Pruned, Unpruned DeviceRun
}

// SelectivitySweep is the full panel: the sweep geometry, the six host
// series and the device series.
type SelectivitySweep struct {
	// Rows is the table size.
	Rows uint64
	// Fragments is the fragment count per layout.
	Fragments int
	// Selectivities is the x-axis (match fraction per predicate).
	Selectivities []float64
	// Host holds the six measured host series.
	Host []SelectivitySeries
	// Device holds the transfer-centric device series.
	Device DeviceSelectivity
}

// selExpected returns the exact answer for price < cut.
func selExpected(rows uint64, cut float64) exec.Result {
	m := uint64(math.Ceil(cut))
	if m > rows {
		m = rows
	}
	return exec.Result{Sum: float64(m) * (float64(m) - 1) / 2, Count: int64(m)}
}

// buildSelectivityLayouts materializes the item table twice — an NSM
// row store and a price-only DSM column store, both chunked into the
// given fragment count — with the monotone price, and seals every
// fragment's zone as a freeze point would.
func buildSelectivityLayouts(rows uint64, fragments int) (rowL, colL *layout.Layout, err error) {
	if colL, err = priceLayout("sel-col", rows, fragments); err != nil {
		return nil, nil, err
	}
	chunk := rows / uint64(fragments)
	rowL, err = layout.Horizontal(mem.NewAllocator(mem.Host, 0), "sel-row", workload.ItemSchema(), rows, chunk, layout.NSM)
	if err != nil {
		colL.Free()
		return nil, nil, err
	}
	rowFrags := rowL.Fragments()
	for i := uint64(0); i < rows; i++ {
		rec := workload.Item(i)
		rec[workload.ItemPriceCol] = schema.FloatValue(monotonePrice(i))
		if err := rowFrags[i/chunk].AppendTuplet(rec); err != nil {
			rowL.Free()
			colL.Free()
			return nil, nil, err
		}
	}
	for _, f := range rowFrags {
		f.SealStats()
	}
	return rowL, colL, nil
}

// stripZones copies the pieces without their zone maps: the same data,
// no skipping possible.
func stripZones(pieces []exec.Piece) []exec.Piece {
	out := make([]exec.Piece, len(pieces))
	for i, p := range pieces {
		p.Zone = nil
		out[i] = p
	}
	return out
}

// bestOf runs a scan repeats times, checks every answer against want and
// returns the fastest wall-clock ns.
func bestOf(repeats int, want exec.Result, run func() (exec.Result, error)) (float64, error) {
	best := math.Inf(1)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		got, err := run()
		elapsed := float64(time.Since(start).Nanoseconds())
		if err == nil {
			err = checkAnswer(got, want)
		}
		if err != nil {
			return 0, err
		}
		if elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}

// MeasureSelectivity executes the sweep for real at the given geometry.
// Every timed run's answer is cross-checked against the closed form.
func MeasureSelectivity(rows uint64, fragments int, selectivities []float64, repeats int) (*SelectivitySweep, error) {
	rowL, colL, err := buildSelectivityLayouts(rows, fragments)
	if err != nil {
		return nil, err
	}
	defer rowL.Free()
	defer colL.Free()

	rowPieces, err := exec.ColumnView(rowL, workload.ItemPriceCol, rows)
	if err != nil {
		return nil, err
	}
	colPieces, err := exec.ColumnView(colL, workload.ItemPriceCol, rows)
	if err != nil {
		return nil, err
	}

	sweep := &SelectivitySweep{
		Rows:          rows,
		Fragments:     fragments,
		Selectivities: selectivities,
	}
	for _, hs := range hostSeries {
		pieces, cfg := colPieces, exec.Single()
		if hs.row {
			pieces = rowPieces
		}
		switch {
		case hs.morsel:
			cfg = exec.Morsel()
		case hs.multi:
			cfg = exec.MultiN(perfmodel.DefaultHost().Threads)
		}
		s := SelectivitySeries{Label: hs.label}
		stripped := stripZones(pieces)
		for _, sel := range selectivities {
			cut := sel * float64(rows)
			p := exec.Lt(cut)
			want := selExpected(rows, cut)
			plan := exec.Plan{Op: exec.KindSumWhere, Pred: p}
			var ns [3]float64 // pruned, fused, generic
			for i, leg := range []struct {
				want exec.Result
				run  func() (exec.Result, error)
			}{
				{want, func() (exec.Result, error) { return cfg.Scan(exec.Scan{Plan: plan, Vals: pieces}) }},
				{want, func() (exec.Result, error) { return cfg.Scan(exec.Scan{Plan: plan, Vals: stripped}) }},
				{exec.Result{Count: want.Count}, func() (exec.Result, error) {
					n, err := exec.CountFloat64(cfg, stripped, p.Match)
					return exec.Result{Count: n}, err
				}},
			} {
				if ns[i], err = bestOf(repeats, leg.want, leg.run); err != nil {
					return nil, fmt.Errorf("figures: selectivity %g on %s: %w", sel, hs.label, err)
				}
			}
			s.PrunedNs = append(s.PrunedNs, ns[0])
			s.FusedNs = append(s.FusedNs, ns[1])
			s.GenericNs = append(s.GenericNs, ns[2])
			s.Speedup = append(s.Speedup, ns[2]/ns[0])
		}
		sweep.Host = append(sweep.Host, s)
	}

	dev, err := measureDeviceSelectivity(colPieces, rows, selectivities)
	if err != nil {
		return nil, err
	}
	sweep.Device = dev
	return sweep, nil
}

// measureDeviceSelectivity runs the column-store sweep on the simulated
// device: the unpruned run ships every fragment over the bus; the pruned
// run consults the zones first and only transfers survivors.
func measureDeviceSelectivity(pieces []exec.Piece, rows uint64, selectivities []float64) (DeviceSelectivity, error) {
	var d DeviceSelectivity
	r := newRig(false)
	gpu := r.gpu
	run := func(p exec.Pred, prune bool) (exec.Result, error) {
		lo, hi, ok := p.Closed()
		var res exec.Result
		for _, pc := range pieces {
			bytes := int64(pc.Vec.Len) * int64(pc.Vec.Size)
			if prune {
				admitted := exec.ZoneAdmits(pc.Zone, p)
				exec.NoteZoneDecision(admitted, bytes)
				if !admitted {
					continue
				}
			}
			if !ok || pc.Vec.Len == 0 {
				continue
			}
			src := pc.Vec.Data[pc.Vec.Base : pc.Vec.Base+pc.Vec.Len*pc.Vec.Stride]
			buf, err := gpu.Alloc(len(src))
			if err != nil {
				return res, err
			}
			err = gpu.CopyToDevice(buf, 0, src)
			if err == nil {
				var part device.Partial
				part, err = gpu.Launch(device.Kernel{
					Vals:  device.Vec{Buf: buf, Stride: pc.Vec.Stride, Size: pc.Vec.Size, Len: pc.Vec.Len},
					Where: true, Lo: lo, Hi: hi, Config: device.ReduceConfigFor(pc.Vec.Len)})
				res.Sum += part.Sum
				res.Count += part.Count
			}
			buf.Free()
			if err != nil {
				return res, err
			}
		}
		return res, nil
	}
	for _, sel := range selectivities {
		cut := sel * float64(rows)
		p := exec.Lt(cut)
		l := legs{what: fmt.Sprintf("device selectivity %g", sel), want: selExpected(rows, cut)}
		for _, leg := range []struct {
			prune bool
			run   *DeviceRun
		}{{false, &d.Unpruned}, {true, &d.Pruned}} {
			c := l.on(r, fmt.Sprintf("(prune=%v)", leg.prune), func(*rig) (exec.Result, error) { return run(p, leg.prune) })
			if l.err != nil {
				return d, l.err
			}
			leg.run.H2DBytes = append(leg.run.H2DBytes, c.H2D)
			leg.run.Kernels = append(leg.run.Kernels, c.Kernels)
			leg.run.Ns = append(leg.run.Ns, c.Ns)
		}
	}
	return d, nil
}

// Tables renders the sweep: for a terminal the host speedups and then
// the device transfer profile, for tools one long table with a row per
// (selectivity, series) pair.
func (s *SelectivitySweep) Tables() []Table {
	host := Table{
		Caption: []string{
			fmt.Sprintf("Figure 2 / selectivity panel: SUM(price) WHERE price < cut, %d rows in %d fragments", s.Rows, s.Fragments),
			"host wall-clock (µs; pruned / fused-unpruned / generic, speedup = generic/pruned)",
		},
		Columns: []Column{{Text: "selectivity", TextVerb: "%.2f%%"}},
	}
	for _, h := range s.Host {
		host.Columns = append(host.Columns, Column{Text: h.Label})
	}
	dev := Table{
		Caption: []string{"device transfer profile (host-to-device bytes; pruned vs unpruned)"},
		Columns: []Column{
			{Text: "selectivity", TextVerb: "%.2f%%"},
			{Text: "pruned bytes"}, {Text: "unpruned bytes"},
			{Text: "pruned kernels"}, {Text: "unpruned kernels"},
			{Text: "sim speedup", TextVerb: "%.1fx"},
		},
	}
	long := Table{Columns: []Column{{CSV: "selectivity"}, {CSV: "series"},
		{CSV: "pruned_ns"}, {CSV: "fused_ns"}, {CSV: "generic_ns"}, {CSV: "speedup"}}}
	for i, sel := range s.Selectivities {
		row := []any{sel * 100}
		for _, h := range s.Host {
			row = append(row, fmt.Sprintf("%.0f / %.0f / %.0f (%.1fx)",
				h.PrunedNs[i]/1e3, h.FusedNs[i]/1e3, h.GenericNs[i]/1e3, h.Speedup[i]))
			long.Rows = append(long.Rows, []any{sel, h.Label, h.PrunedNs[i], h.FusedNs[i], h.GenericNs[i], h.Speedup[i]})
		}
		host.Rows = append(host.Rows, row)
		d := s.Device
		speedup := d.Unpruned.Ns[i] / math.Max(d.Pruned.Ns[i], 1)
		dev.Rows = append(dev.Rows, []any{sel * 100, d.Pruned.H2DBytes[i], d.Unpruned.H2DBytes[i],
			d.Pruned.Kernels[i], d.Unpruned.Kernels[i], speedup})
		long.Rows = append(long.Rows, []any{sel, "device h2d bytes (pruned; unpruned; kernels pruned; speedup)",
			d.Pruned.H2DBytes[i], d.Unpruned.H2DBytes[i], d.Pruned.Kernels[i], speedup})
	}
	return []Table{host, dev, long}
}
