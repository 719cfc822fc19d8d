package figures

import (
	"fmt"
	"time"

	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// RealScanPanel measures the panel-3 host series with actual wall-clock
// execution on this machine: the item table is materialized in both
// storage models at each size and the price column summed for real. Only
// the single-threaded series are portable measurements (multi-threading
// and the device depend on hardware this container does not have); the
// NSM-vs-DSM gap these series show is the physical cache effect behind
// the paper's finding (iii).
func RealScanPanel(sizes []uint64, repeats int) (Panel, error) {
	if repeats < 1 {
		repeats = 3
	}
	p := Panel{
		Number: 3,
		Title:  "sum all prices in items table (REAL wall-clock on this machine)",
		XLabel: "#records in item table",
		YLabel: "throughput (M rows/s, measured)",
		Sizes:  sizes,
	}
	row := Series{Label: RowSingle + " (measured)"}
	col := Series{Label: ColSingle + " (measured)"}
	for _, n := range sizes {
		rowNs, colNs, err := measureScan(n, repeats)
		if err != nil {
			return Panel{}, err
		}
		row.Values = append(row.Values, throughput(n, rowNs))
		col.Values = append(col.Values, throughput(n, colNs))
	}
	p.Series = append(p.Series, row, col)
	return p, nil
}

// measureScan builds both layouts at size n and times the scans.
func measureScan(n uint64, repeats int) (rowNs, colNs float64, err error) {
	host := mem.NewAllocator(mem.Host, 0)
	items := workload.ItemSchema()
	rowL, err := layout.Horizontal(host, "row", items, n, n, layout.NSM)
	if err != nil {
		return 0, 0, err
	}
	defer rowL.Free()
	colL, err := layout.Vertical(host, "col", items, singletonGroups(items.Arity()), n,
		func([]int) layout.Linearization { return layout.Direct })
	if err != nil {
		return 0, 0, err
	}
	defer colL.Free()
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		for _, l := range []*layout.Layout{rowL, colL} {
			for _, f := range l.Fragments() {
				vals := make([]schema.Value, 0, f.Arity())
				for _, c := range f.Cols() {
					vals = append(vals, rec[c])
				}
				if err := f.AppendTuplet(vals); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}

	want := workload.ExpectedItemPriceSum(n)
	time1 := func(l *layout.Layout) (float64, error) {
		pieces, err := exec.ColumnView(l, workload.ItemPriceCol, n)
		if err != nil {
			return 0, err
		}
		best := float64(0)
		for r := 0; r < repeats; r++ {
			start := time.Now()
			res, err := solo(exec.Single(), exec.Scan{Plan: exec.Plan{Op: exec.KindSum}, Vals: pieces})
			elapsed := float64(time.Since(start).Nanoseconds())
			if err != nil {
				return 0, err
			}
			if res.Sum < want-1 || res.Sum > want+1 {
				return 0, fmt.Errorf("figures: real scan mismatch: %v vs %v", res.Sum, want)
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		return best, nil
	}
	if rowNs, err = time1(rowL); err != nil {
		return 0, 0, err
	}
	if colNs, err = time1(colL); err != nil {
		return 0, 0, err
	}
	return rowNs, colNs, nil
}
