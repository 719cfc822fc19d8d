package figures

import (
	"fmt"
	"math"
	"strings"
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

// DeviceSelectivity is the device-resident series: pruning decides which
// fragments are transferred and reduced at all.
type DeviceSelectivity struct {
	// Label names the series.
	Label string
	// PrunedH2DBytes and UnprunedH2DBytes are the host-to-device bytes
	// moved with and without zone-map pruning.
	PrunedH2DBytes, UnprunedH2DBytes []int64
	// PrunedKernels and UnprunedKernels count kernel launches.
	PrunedKernels, UnprunedKernels []int64
	// PrunedNs and UnprunedNs are simulated device times (transfer +
	// kernels) from the calibrated model.
	PrunedNs, UnprunedNs []float64
}

// SelectivitySweep is the full panel: the sweep geometry, the six host
// series and the device series.
type SelectivitySweep struct {
	// Rows is the table size; FragmentRows the rows per fragment.
	Rows, FragmentRows uint64
	// Fragments is the fragment count per layout.
	Fragments int
	// Selectivities is the x-axis (match fraction per predicate).
	Selectivities []float64
	// Host holds the six measured host series.
	Host []SelectivitySeries
	// Device holds the transfer-centric device series.
	Device DeviceSelectivity
}

// selPrice is the monotone price: price(i) = i. Each fragment's sealed
// zone is then the exact row range, so Lt(cut) admits precisely the
// prefix of fragments overlapping [0, cut).
func selPrice(i uint64) float64 { return float64(i) }

// selExpected returns the exact count and sum for price < cut.
func selExpected(rows uint64, cut float64) (int64, float64) {
	m := uint64(math.Ceil(cut))
	if m > rows {
		m = rows
	}
	return int64(m), float64(m) * (float64(m) - 1) / 2
}

// buildSelectivityLayouts materializes the item table twice — an NSM
// row store and a price-only DSM column store, both chunked into the
// given fragment count — with the monotone price, and seals every
// fragment's zone as a freeze point would.
func buildSelectivityLayouts(rows uint64, fragments int) (rowL, colL *layout.Layout, err error) {
	if fragments < 1 || rows%uint64(fragments) != 0 {
		return nil, nil, fmt.Errorf("figures: rows %d not divisible into %d fragments", rows, fragments)
	}
	chunk := rows / uint64(fragments)
	host := mem.NewAllocator(mem.Host, 0)
	items := workload.ItemSchema()
	rowL, err = layout.Horizontal(host, "sel-row", items, rows, chunk, layout.NSM)
	if err != nil {
		return nil, nil, err
	}
	colL = layout.NewLayout("sel-col", items)
	for begin := uint64(0); begin < rows; begin += chunk {
		f, err := layout.NewFragment(host, items, []int{workload.ItemPriceCol},
			layout.RowRange{Begin: begin, End: begin + chunk}, layout.Direct)
		if err == nil {
			err = colL.Add(f)
		}
		if err != nil {
			rowL.Free()
			colL.Free()
			return nil, nil, err
		}
	}
	rowFrags, colFrags := rowL.Fragments(), colL.Fragments()
	for i := uint64(0); i < rows; i++ {
		rec := workload.Item(i)
		rec[workload.ItemPriceCol] = schema.FloatValue(selPrice(i))
		fi := i / chunk
		if err := rowFrags[fi].AppendTuplet(rec); err == nil {
			err = colFrags[fi].AppendTuplet([]schema.Value{rec[workload.ItemPriceCol]})
		}
		if err != nil {
			rowL.Free()
			colL.Free()
			return nil, nil, err
		}
	}
	for _, l := range []*layout.Layout{rowL, colL} {
		for _, f := range l.Fragments() {
			f.SealStats()
		}
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

// bestOf runs fn repeats times and returns the fastest wall-clock ns.
func bestOf(repeats int, fn func() error) (float64, error) {
	best := math.Inf(1)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		err := fn()
		elapsed := float64(time.Since(start).Nanoseconds())
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
	if repeats < 1 {
		repeats = 2
	}
	if len(selectivities) == 0 {
		selectivities = DefaultSelectivities()
	}
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
		FragmentRows:  rows / uint64(fragments),
		Fragments:     fragments,
		Selectivities: selectivities,
	}
	threads := perfmodel.DefaultHost().Threads
	hostConfigs := []struct {
		label  string
		pieces []exec.Piece
		cfg    exec.Config
	}{
		{RowSingle, rowPieces, exec.Single()},
		{RowMulti, rowPieces, exec.MultiN(threads)},
		{RowMorsel, rowPieces, exec.Morsel()},
		{ColSingle, colPieces, exec.Single()},
		{ColMulti, colPieces, exec.MultiN(threads)},
		{ColMorsel, colPieces, exec.Morsel()},
	}
	for _, hc := range hostConfigs {
		s := SelectivitySeries{Label: hc.label}
		stripped := stripZones(hc.pieces)
		for _, sel := range selectivities {
			cut := sel * float64(rows)
			p := exec.Lt(cut)
			wantN, wantSum := selExpected(rows, cut)
			check := func(sum float64, n int64) error {
				if n != wantN || math.Abs(sum-wantSum) > 1e-6*math.Max(1, wantSum) {
					return fmt.Errorf("figures: selectivity %g on %s: got (%v, %d), want (%v, %d)",
						sel, hc.label, sum, n, wantSum, wantN)
				}
				return nil
			}
			pruned, err := bestOf(repeats, func() error {
				sum, n, err := exec.SumFloat64Where(hc.cfg, hc.pieces, p)
				if err != nil {
					return err
				}
				return check(sum, n)
			})
			if err != nil {
				return nil, err
			}
			fused, err := bestOf(repeats, func() error {
				sum, n, err := exec.SumFloat64Where(hc.cfg, stripped, p)
				if err != nil {
					return err
				}
				return check(sum, n)
			})
			if err != nil {
				return nil, err
			}
			generic, err := bestOf(repeats, func() error {
				n, err := exec.CountFloat64(hc.cfg, stripped, p.Match)
				if err != nil {
					return err
				}
				if n != wantN {
					return fmt.Errorf("figures: generic count at %g on %s: got %d, want %d", sel, hc.label, n, wantN)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			s.PrunedNs = append(s.PrunedNs, pruned)
			s.FusedNs = append(s.FusedNs, fused)
			s.GenericNs = append(s.GenericNs, generic)
			s.Speedup = append(s.Speedup, generic/pruned)
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
	d := DeviceSelectivity{Label: ColDevice}
	clock := &perfmodel.Clock{}
	gpu := device.New(perfmodel.DefaultDevice(), clock)
	run := func(p exec.Pred[float64], prune bool) (float64, int64, error) {
		lo, hi, ok := exec.ClosedFloat64(p)
		var sum float64
		var n int64
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
				return 0, 0, err
			}
			err = gpu.CopyToDevice(buf, 0, src)
			if err == nil {
				var part device.Partial
				part, err = gpu.Launch(device.Kernel{
					Vals:  device.Vec{Buf: buf, Stride: pc.Vec.Stride, Size: pc.Vec.Size, Len: pc.Vec.Len},
					Where: true, Lo: lo, Hi: hi, Config: device.ReduceConfigFor(pc.Vec.Len)})
				sum += part.Sum
				n += part.Count
			}
			buf.Free()
			if err != nil {
				return 0, 0, err
			}
		}
		return sum, n, nil
	}
	for _, sel := range selectivities {
		cut := sel * float64(rows)
		p := exec.Lt(cut)
		wantN, wantSum := selExpected(rows, cut)
		for _, prune := range []bool{false, true} {
			before := gpu.Stats()
			startNs := clock.ElapsedNs()
			sum, n, err := run(p, prune)
			if err != nil {
				return d, err
			}
			if n != wantN || math.Abs(sum-wantSum) > 1e-6*math.Max(1, wantSum) {
				return d, fmt.Errorf("figures: device selectivity %g (prune=%v): got (%v, %d), want (%v, %d)",
					sel, prune, sum, n, wantSum, wantN)
			}
			after := gpu.Stats()
			ns := clock.ElapsedNs() - startNs
			if prune {
				d.PrunedH2DBytes = append(d.PrunedH2DBytes, after.HostToDeviceBytes-before.HostToDeviceBytes)
				d.PrunedKernels = append(d.PrunedKernels, after.KernelLaunches-before.KernelLaunches)
				d.PrunedNs = append(d.PrunedNs, ns)
			} else {
				d.UnprunedH2DBytes = append(d.UnprunedH2DBytes, after.HostToDeviceBytes-before.HostToDeviceBytes)
				d.UnprunedKernels = append(d.UnprunedKernels, after.KernelLaunches-before.KernelLaunches)
				d.UnprunedNs = append(d.UnprunedNs, ns)
			}
		}
	}
	return d, nil
}

// Render formats the sweep as fixed-width tables: host speedups first,
// then the device transfer profile.
func (s *SelectivitySweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 / selectivity panel: SUM(price) WHERE price < cut, %d rows in %d fragments\n",
		s.Rows, s.Fragments)
	b.WriteString("host wall-clock (µs; pruned / fused-unpruned / generic, speedup = generic/pruned)\n")
	header := []string{"selectivity"}
	for _, h := range s.Host {
		header = append(header, h.Label)
	}
	rows := [][]string{header}
	for i, sel := range s.Selectivities {
		row := []string{fmt.Sprintf("%.2f%%", sel*100)}
		for _, h := range s.Host {
			row = append(row, fmt.Sprintf("%.0f / %.0f / %.0f (%.1fx)",
				h.PrunedNs[i]/1e3, h.FusedNs[i]/1e3, h.GenericNs[i]/1e3, h.Speedup[i]))
		}
		rows = append(rows, row)
	}
	renderTable(&b, rows)
	b.WriteString("\ndevice transfer profile (host-to-device bytes; pruned vs unpruned)\n")
	devRows := [][]string{{"selectivity", "pruned bytes", "unpruned bytes", "pruned kernels", "unpruned kernels", "sim speedup"}}
	for i, sel := range s.Selectivities {
		devRows = append(devRows, []string{
			fmt.Sprintf("%.2f%%", sel*100),
			fmt.Sprintf("%d", s.Device.PrunedH2DBytes[i]),
			fmt.Sprintf("%d", s.Device.UnprunedH2DBytes[i]),
			fmt.Sprintf("%d", s.Device.PrunedKernels[i]),
			fmt.Sprintf("%d", s.Device.UnprunedKernels[i]),
			fmt.Sprintf("%.1fx", s.Device.UnprunedNs[i]/math.Max(s.Device.PrunedNs[i], 1)),
		})
	}
	renderTable(&b, devRows)
	return b.String()
}

// CSV renders the sweep as comma-separated values, one row per
// (selectivity, series) pair.
func (s *SelectivitySweep) CSV() string {
	var b strings.Builder
	b.WriteString("selectivity,series,pruned_ns,fused_ns,generic_ns,speedup\n")
	for i, sel := range s.Selectivities {
		for _, h := range s.Host {
			fmt.Fprintf(&b, "%g,%s,%g,%g,%g,%g\n", sel, strings.ReplaceAll(h.Label, ",", ";"),
				h.PrunedNs[i], h.FusedNs[i], h.GenericNs[i], h.Speedup[i])
		}
		fmt.Fprintf(&b, "%g,%s,%d,%d,%d,%g\n", sel, "device h2d bytes (pruned; unpruned; kernels pruned; speedup)",
			s.Device.PrunedH2DBytes[i], s.Device.UnprunedH2DBytes[i], s.Device.PrunedKernels[i],
			s.Device.UnprunedNs[i]/math.Max(s.Device.PrunedNs[i], 1))
	}
	return b.String()
}

// renderTable writes rows as a fixed-width table with a rule under the
// header.
func renderTable(b *strings.Builder, rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for r, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			b.WriteString(cell)
		}
		b.WriteByte('\n')
		if r == 0 {
			total := 0
			for i, w := range widths {
				if i > 0 {
					total += 2
				}
				total += w
			}
			b.WriteString(strings.Repeat("-", total))
			b.WriteByte('\n')
		}
	}
}
