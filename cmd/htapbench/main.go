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
// predicate→group-by), "multidevice" (hash-sharded card fleet) and
// "resultcache" (version-stamped result cache). The names, their geometry
// and their columns come from the registry in internal/figures; DESIGN.md
// describes each panel. The serving layer is driven by cmd/loadgen, and
// examples/metrics runs a mixed round and dumps the metrics registry.
//
// With -csv, stdout carries the selected panel's CSV and nothing else:
// the findings block and the -real and -verify reports move to stderr,
// so `htapbench -panel X -csv > file` writes a file that parses.
//
// Usage:
//
//	htapbench [-panel NAME] [-csv] [-verify] [-verify-rows N] [-real] [-real-rows N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
	tables, err := entry.Run()
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
