// Package figures regenerates the paper's experimental figure (Section
// II-B, Figure 2) as data series. Each of the four panels sweeps table
// sizes and reports one value per configuration:
//
//	Panel 1 — "materialize 150 customers": record-centric materialization
//	          of 150 customers by sorted position list, milliseconds,
//	          over row-store/column-store × single-/multi-threaded.
//	Panel 2 — "sum prices of 150 items": tiny attribute-centric aggregate
//	          over a 150-position list, microseconds, same four series.
//	Panel 3 — "sum all prices in items table": full-column aggregate
//	          throughput in million rows/second, host row/column ×
//	          single/multi plus the device with bus transfer included.
//	Panel 4 — the same with transfer costs to the device excluded
//	          (column resident in device memory).
//
// Times come from the calibrated analytical platform model
// (internal/perfmodel), the documented substitution for the paper's
// i7-6700HQ + CUDA testbed (DESIGN.md Section 2); Verify executes the
// same queries for real on engine-built tables at reduced scale and
// cross-checks every answer against the workload's closed forms.
//
// Beside the model panels the package measures the executed panels
// (selectivity, devicecache, compression, fusion, multidevice,
// resultcache). All of them share one harness (DESIGN.md Section 4): a
// sweep returns a typed result and renders it as Tables (table.go), the
// executed sweeps build their columns, rigs and checked legs from one
// fixture (fixture.go), and Registry (registry.go) names every panel
// cmd/htapbench can regenerate.
package figures

import (
	"fmt"

	"hybridstore/internal/perfmodel"
	"hybridstore/internal/workload"
)

// Series is one line of a panel: a label and one value per swept size.
type Series struct {
	// Label names the configuration as in the figure legend.
	Label string
	// Values holds one y-value per x point.
	Values []float64
}

// Panel is one sub-plot of Figure 2.
type Panel struct {
	// Number is the panel index (1-4, left to right in the figure).
	Number int
	// Title is the paper's caption for the sub-plot.
	Title string
	// XLabel and YLabel describe the axes.
	XLabel, YLabel string
	// Sizes are the x-axis points (#records).
	Sizes []uint64
	// Series are the plotted lines.
	Series []Series
}

// Legend labels, mirroring the figure. The morsel-driven series extend
// the paper's comparison with the morsel-driven policy.
const (
	RowSingle      = "row-store / host & single-threaded"
	RowMulti       = "row-store / host & multi-threaded"
	RowMorsel      = "row-store / host & morsel-driven"
	ColSingle      = "column-store / host & single-threaded"
	ColMulti       = "column-store / host & multi-threaded"
	ColMorsel      = "column-store / host & morsel-driven"
	ColDevice      = "column-store / device"
	ColDeviceNoBus = "column-store / device (transfer excluded)"
)

// DefaultSizes returns the paper's sweep for each panel.
func DefaultSizes(panel int) []uint64 {
	switch panel {
	case 1:
		return []uint64{5e6, 25e6, 45e6, 65e6, 85e6}
	case 2:
		return []uint64{10e6, 20e6, 30e6, 40e6, 50e6, 60e6}
	default:
		return []uint64{5e6, 15e6, 25e6, 35e6, 45e6, 55e6, 65e6}
	}
}

// Config carries the platform profiles the panels are priced on.
type Config struct {
	Host   perfmodel.HostProfile
	Device perfmodel.DeviceProfile
}

// Default returns the paper-calibrated configuration.
func Default() Config {
	return Config{Host: perfmodel.DefaultHost(), Device: perfmodel.DefaultDevice()}
}

// hostSeries are the six host configurations every panel sweeps: storage
// model × threading policy.
var hostSeries = []struct {
	label string
	// row selects the NSM row store (else the DSM column store), multi all
	// host threads (else one), morsel the morsel-driven policy (else
	// blockwise threads).
	row, multi, morsel bool
}{
	{RowSingle, true, false, false},
	{RowMulti, true, true, false},
	{RowMorsel, true, true, true},
	{ColSingle, false, false, false},
	{ColMulti, false, true, false},
	{ColMorsel, false, true, true},
}

// withHostSeries appends one series per host configuration, pricing each
// point of the sweep with price.
func (c Config) withHostSeries(p Panel, price func(row bool, threads int, morsel bool, n int64) float64) Panel {
	for _, hs := range hostSeries {
		threads := 1
		if hs.multi {
			threads = c.Host.Threads
		}
		s := Series{Label: hs.label}
		for _, n := range p.Sizes {
			s.Values = append(s.Values, price(hs.row, threads, hs.morsel, int64(n)))
		}
		p.Series = append(p.Series, s)
	}
	return p
}

// materializeNs prices the position list's point accesses into n records
// of the given width, each record spread over spread fragments.
func (c Config) materializeNs(morsel bool, n int64, width, spread, threads int) float64 {
	if morsel {
		return c.Host.MaterializeMorselNs(workload.PositionListSize, n, width, spread, threads)
	}
	return c.Host.MaterializeNs(workload.PositionListSize, n, width, spread, threads)
}

// Panel1 prices the record-centric materialization of 150 customers:
// the row store reads one record, the column store gathers it from one
// fragment per attribute.
func (c Config) Panel1(sizes []uint64) Panel {
	p := Panel{
		Number: 1,
		Title:  "materialize 150 customers",
		XLabel: "#records in customer table",
		YLabel: "simulated ms",
		Sizes:  sizes,
	}
	return c.withHostSeries(p, func(row bool, threads int, morsel bool, n int64) float64 {
		spread := workload.CustomerArity
		if row {
			spread = 1
		}
		return c.materializeNs(morsel, n, workload.CustomerWidth, spread, threads) / 1e6
	})
}

// Panel2 prices the tiny attribute-centric aggregate over 150 item
// positions: point accesses to the price field, where the record width
// sets the working set and per-access decode cost.
func (c Config) Panel2(sizes []uint64) Panel {
	p := Panel{
		Number: 2,
		Title:  "sum prices of 150 items",
		XLabel: "#records in item table",
		YLabel: "simulated µs",
		Sizes:  sizes,
	}
	return c.withHostSeries(p, func(row bool, threads int, morsel bool, n int64) float64 {
		return c.materializeNs(morsel, n, priceStride(row), 1, threads) / 1e3
	})
}

// priceStride is the width a price access strides over: the whole item
// record in the row store, the price field alone in the column store.
func priceStride(row bool) int {
	if row {
		return workload.ItemWidth
	}
	return workload.ItemPriceSize
}

// Panel3 prices the full-column aggregate with the device series paying
// the bus transfer.
func (c Config) Panel3(sizes []uint64) Panel {
	return c.fullScanPanel(3, "sum all prices in items table", sizes, true)
}

// Panel4 prices the full-column aggregate with the price column resident
// in device memory (transfer costs excluded).
func (c Config) Panel4(sizes []uint64) Panel {
	return c.fullScanPanel(4, "sum all prices in items table (transfer costs to device excluded)", sizes, false)
}

// fullScanPanel builds panels 3 and 4.
func (c Config) fullScanPanel(number int, title string, sizes []uint64, withTransfer bool) Panel {
	p := Panel{
		Number: number,
		Title:  title,
		XLabel: "#records in item table",
		YLabel: "throughput (M rows/s)",
		Sizes:  sizes,
	}
	p = c.withHostSeries(p, func(row bool, threads int, morsel bool, n int64) float64 {
		if morsel {
			return throughput(uint64(n), c.Host.ScanSumMorselNs(n, workload.ItemPriceSize, priceStride(row), threads))
		}
		return throughput(uint64(n), c.Host.ScanSumNs(n, workload.ItemPriceSize, priceStride(row), threads))
	})
	label := ColDeviceNoBus
	if withTransfer {
		label = ColDevice
	}
	dev := Series{Label: label}
	for _, n := range sizes {
		ns := c.Device.ReduceKernelNs(int64(n), workload.ItemPriceSize, workload.ItemPriceSize, 1024, 512)
		if withTransfer {
			ns += c.Device.TransferNs(int64(n) * workload.ItemPriceSize)
		}
		dev.Values = append(dev.Values, throughput(n, ns))
	}
	p.Series = append(p.Series, dev)
	return p
}

// throughput converts n records in ns nanoseconds to M rows/s.
func throughput(n uint64, ns float64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(n) / ns * 1e9 / 1e6
}

// Table renders the panel: one row per size, one column per series.
func (p Panel) Table() Table {
	t := Table{
		Label:   fmt.Sprintf("panel %d: %s", p.Number, p.Title),
		Caption: []string{fmt.Sprintf("Figure 2 / panel %d: %s", p.Number, p.Title), "y = " + p.YLabel},
		Columns: []Column{{Text: p.XLabel}, {CSV: "records"}},
	}
	for _, s := range p.Series {
		t.Columns = append(t.Columns, Column{CSV: s.Label, Text: s.Label, TextVerb: "%.2f"})
	}
	for i, n := range p.Sizes {
		row := []any{formatRows(n), n}
		for _, s := range p.Series {
			row = append(row, s.Values[i])
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// formatRows renders a row count compactly (250K, 65M).
func formatRows(n uint64) string {
	if n >= 1e6 {
		return fmt.Sprintf("%dM", n/1e6)
	}
	return fmt.Sprintf("%dK", n/1e3)
}

// find returns the series with the given label, or nil.
func (p Panel) find(label string) *Series {
	for i := range p.Series {
		if p.Series[i].Label == label {
			return &p.Series[i]
		}
	}
	return nil
}

// Findings summarizes whether the panel set reproduces the paper's four
// qualitative findings (Section II-B (i)-(iv)).
type Findings struct {
	// TinyInputsFavourSingle: finding (i) — on small position lists the
	// single-threaded policy beats the multi-threaded one.
	TinyInputsFavourSingle bool
	// RecordCentricFavoursNSM: finding (ii) — materialization is faster
	// on the row store.
	RecordCentricFavoursNSM bool
	// AttrCentricFavoursDSM: finding (iii) — full scans are faster on the
	// column store.
	AttrCentricFavoursDSM bool
	// DeviceWinsWhenResident: finding (iv) — the device dominates once
	// the column is device-resident.
	DeviceWinsWhenResident bool
	// MorselAmortizesScheduling: finding (v), beyond the paper — the
	// morsel-driven policy beats blockwise multi-threading on
	// tiny inputs (where the paper's policy loses to single-threaded)
	// while staying within a few percent of it on full scans.
	MorselAmortizesScheduling bool
}

// Evaluate checks the findings over freshly priced default panels.
func (c Config) Evaluate() Findings {
	p1 := c.Panel1(DefaultSizes(1))
	p2 := c.Panel2(DefaultSizes(2))
	p3 := c.Panel3(DefaultSizes(3))
	p4 := c.Panel4(DefaultSizes(4))
	var f Findings

	last := len(p1.Sizes) - 1
	f.TinyInputsFavourSingle = p1.find(RowSingle).Values[last] < p1.find(RowMulti).Values[last]
	f.RecordCentricFavoursNSM = p1.find(RowSingle).Values[last] < p1.find(ColSingle).Values[last]

	last3 := len(p3.Sizes) - 1
	f.AttrCentricFavoursDSM = p3.find(ColMulti).Values[last3] > p3.find(RowMulti).Values[last3]
	f.DeviceWinsWhenResident = p4.find(ColDeviceNoBus).Values[last3] > p3.find(ColMulti).Values[last3]

	// Finding (v): in the regime where finding (i) holds — panel 2's
	// 150-position aggregate, where blockwise threading loses to
	// single-threaded — the morsel-driven pool beats blockwise at every
	// point, and on the full scan it keeps >= 95% of blockwise
	// throughput.
	f.MorselAmortizesScheduling = true
	for i := range p2.Sizes {
		if p2.find(RowMorsel).Values[i] >= p2.find(RowMulti).Values[i] ||
			p2.find(ColMorsel).Values[i] >= p2.find(ColMulti).Values[i] {
			f.MorselAmortizesScheduling = false
		}
	}
	if p3.find(ColMorsel).Values[last3] < 0.95*p3.find(ColMulti).Values[last3] {
		f.MorselAmortizesScheduling = false
	}
	return f
}
