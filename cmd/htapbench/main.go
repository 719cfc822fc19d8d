// Command htapbench regenerates the paper's Figure 2 (Section II-B): the
// four-panel experiment sweeping storage model, threading policy and
// compute platform over the TPC-C-style customer/item workload.
//
// Times are produced by the calibrated platform model (the documented
// substitution for the paper's i7-6700HQ + CUDA testbed; see DESIGN.md
// Section 2). Pass -verify to additionally execute every configuration
// for real at a reduced scale and cross-check all answers against the
// workload's closed forms.
//
// Beside the model panels 1-4 (0 = all four), -panel <name> regenerates
// one of the executed panels at its published geometry: "selectivity"
// (zone-map data skipping), "devicecache" (device-resident fragment
// cache), "compression" (compressed-domain execution), "fusion" (fused
// predicate→group-by), "multidevice" (cross-device scheduler), "serving"
// (loopback HTTP, batched vs unbatched) and "resultcache" (version-
// stamped result cache). The names, their geometry and their columns
// come from the registry in internal/figures; DESIGN.md describes each
// panel.
//
// With -csv, stdout carries the selected panel's CSV and nothing else:
// the findings block and the -metrics, -real and -verify reports move to
// stderr, so `htapbench -panel X -csv > file` writes a file that parses.
//
// Usage:
//
//	htapbench [-panel NAME] [-csv] [-verify] [-verify-rows N] [-real] [-real-rows N] [-metrics] [-metrics-rows N] [-serving-leg D] [-wal DIR]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hybridstore"
	"hybridstore/internal/figures"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the selected panel to
// stdout and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("htapbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	panel := fs.String("panel", "0", "panel to regenerate: "+strings.Join(figures.Names(), ", ")+" (0 = model panels 1-4)")
	csv := fs.Bool("csv", false, "emit CSV instead of tables; everything that is not CSV moves to stderr")
	verify := fs.Bool("verify", false, "also execute every configuration for real and cross-check answers")
	verifyRows := fs.Uint64("verify-rows", 100_000, "row count for -verify")
	real := fs.Bool("real", false, "also measure the single-threaded host series with real wall-clock execution")
	realRows := fs.Uint64("real-rows", 2_000_000, "largest row count for -real (sweep is 1/4, 1/2, 1x)")
	metrics := fs.Bool("metrics", false, "run a mixed HTAP workload on the reference engine and report its observability snapshot")
	metricsRows := fs.Uint64("metrics-rows", 40_000, "row count for the -metrics mixed workload (keep above one morsel, 16384, so scans exercise the shared pool)")
	servingLeg := fs.Duration("serving-leg", 1200*time.Millisecond, "wall-clock duration of each serving sweep leg")
	walDir := fs.String("wal", "", "fresh directory for the serving sweep's write-ahead log: the item table runs durably and the write lane prices group-committed fsyncs")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	entry, err := figures.Lookup(*panel)
	if err != nil {
		fmt.Fprintln(stderr, "htapbench:", err)
		return 2
	}
	tables, err := entry.Run(*servingLeg, *walDir)
	if err != nil {
		fmt.Fprintf(stderr, "%s panel failed: %v\n", entry.Name, err)
		return 1
	}
	notes := stdout
	if *csv {
		notes = stderr
	}
	sep := ""
	for _, t := range tables {
		out := t.Text()
		if *csv {
			out = t.CSV()
		}
		if out == "" {
			continue
		}
		if *csv && t.Label != "" {
			out = "# " + t.Label + "\n" + out
		}
		fmt.Fprint(stdout, sep, out)
		sep = "\n"
	}

	f := figures.Default().Evaluate()
	fmt.Fprintln(notes)
	fmt.Fprintln(notes, "paper findings (Section II-B):")
	fmt.Fprintf(notes, "  (i)   tiny inputs favour single-threaded execution: %v\n", f.TinyInputsFavourSingle)
	fmt.Fprintf(notes, "  (ii)  record-centric operations favour NSM:         %v\n", f.RecordCentricFavoursNSM)
	fmt.Fprintf(notes, "  (iii) attribute-centric operations favour DSM:      %v\n", f.AttrCentricFavoursDSM)
	fmt.Fprintf(notes, "  (iv)  device wins once the column is resident:      %v\n", f.DeviceWinsWhenResident)
	fmt.Fprintf(notes, "  (v)   morsel pool amortizes scheduling overhead:    %v\n", f.MorselAmortizesScheduling)

	if *metrics {
		snap, err := mixedWorkloadMetrics(*metricsRows)
		if err != nil {
			fmt.Fprintln(stderr, "metrics workload failed:", err)
			return 1
		}
		fmt.Fprintln(notes)
		printMetricsSummary(notes, snap)
	}

	if *real {
		fmt.Fprintln(notes)
		sizes := []uint64{*realRows / 4, *realRows / 2, *realRows}
		p, err := figures.RealScanPanel(sizes, 3)
		if err != nil {
			fmt.Fprintln(stderr, "real measurement failed:", err)
			return 1
		}
		fmt.Fprint(notes, p.Table().Text())
	}

	if *verify {
		fmt.Fprintln(notes)
		report, err := figures.Verify(*verifyRows)
		if err != nil {
			fmt.Fprintln(stderr, "verification failed:", err)
			return 1
		}
		fmt.Fprint(notes, report)
		if !report.AllOK() {
			return 1
		}
	}
	return 0
}

// mixedWorkloadMetrics drives the reference engine with one mixed HTAP
// round — bulk inserts, morsel-driven scans, point transactions
// (including a forced first-committer-wins conflict and an abort),
// layout adaptation, explicit device placement with device-side point
// gathers, and a version-store merge — then returns the resulting
// process-wide metrics snapshot.
func mixedWorkloadMetrics(rows uint64) (hybridstore.MetricsSnapshot, error) {
	var zero hybridstore.MetricsSnapshot
	hybridstore.ResetMetrics()
	db := hybridstore.Open(hybridstore.Options{
		Policy:          hybridstore.MorselDriven,
		DevicePlacement: true,
	})
	tbl, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		return zero, err
	}
	defer tbl.Free()

	for i := uint64(0); i < rows; i++ {
		if _, err := tbl.Insert(hybridstore.Item(i)); err != nil {
			return zero, err
		}
	}
	// OLAP side: repeated attribute-centric scans on the shared pool
	// (these also feed the workload monitor its scan-dominance signal).
	for i := 0; i < 8; i++ {
		if _, err := tbl.SumFloat64(hybridstore.ItemPriceColumn); err != nil {
			return zero, err
		}
	}
	// OLTP side: autocommit point updates plus explicit transactions —
	// one clean commit, one forced first-committer-wins conflict, one
	// abort.
	for row := uint64(0); row < 64 && row < rows; row++ {
		if err := tbl.Update(row, hybridstore.ItemPriceColumn, hybridstore.FloatValue(9.99)); err != nil {
			return zero, err
		}
	}
	a, b := tbl.Begin(), tbl.Begin()
	if err := a.Update(0, hybridstore.ItemPriceColumn, hybridstore.FloatValue(1)); err != nil {
		return zero, err
	}
	if err := b.Update(0, hybridstore.ItemPriceColumn, hybridstore.FloatValue(2)); err != nil {
		return zero, err
	}
	if err := a.Commit(); err != nil {
		return zero, err
	}
	if err := b.Commit(); err == nil {
		return zero, fmt.Errorf("expected a write-write conflict, got none")
	}
	c := tbl.Begin()
	if err := c.Update(1, hybridstore.ItemPriceColumn, hybridstore.FloatValue(3)); err != nil {
		return zero, err
	}
	c.Abort()

	// Structural work: adaptation, explicit device placement, scans and
	// point gathers against the device-resident column, and the merge
	// pass that folds settled versions back into the base fragments.
	if _, err := tbl.Adapt(); err != nil {
		return zero, err
	}
	if err := tbl.PlaceColumn(hybridstore.ItemPriceColumn); err != nil {
		return zero, err
	}
	for i := 0; i < 4; i++ {
		if _, err := tbl.SumFloat64(hybridstore.ItemPriceColumn); err != nil {
			return zero, err
		}
	}
	// Point-read rows the OLTP phase did not touch: clean rows resolve
	// from the base fragments, so the reads gather the device-resident
	// price field over the bus.
	for row := uint64(2048); row < 2080 && row < rows; row++ {
		if _, err := tbl.Get(row); err != nil {
			return zero, err
		}
	}
	if err := tbl.Merge(); err != nil {
		return zero, err
	}
	return hybridstore.Metrics(), nil
}

// printMetricsSummary renders the headline counters of a snapshot.
func printMetricsSummary(w io.Writer, s hybridstore.MetricsSnapshot) {
	fmt.Fprintln(w, "observability snapshot (mixed HTAP workload):")
	rows := []struct{ label, name string }{
		{"pool jobs submitted", "pool.jobs_submitted"},
		{"pool jobs inline", "pool.jobs_inline"},
		{"pool morsels by submitter", "pool.morsels_submitter"},
		{"pool morsels stolen", "pool.morsels_stolen"},
		{"device h2d bytes", "device.h2d_bytes"},
		{"device d2h bytes", "device.d2h_bytes"},
		{"device kernels", "device.kernels"},
		{"tx begins", "tx.begins"},
		{"tx commits", "tx.commits"},
		{"tx conflicts", "tx.conflicts"},
		{"tx aborts", "tx.aborts"},
		{"tx versions pruned", "tx.versions_pruned"},
		{"adapt runs", "core.adapt_runs"},
		{"freezes", "core.freezes"},
		{"column placements", "core.column_placements"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %d\n", r.label, s.Counter(r.name))
	}
}
