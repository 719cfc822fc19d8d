package figures

import (
	"fmt"
	"math"
	"math/rand"

	"hybridstore/internal/device"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// VerifyReport records the real-execution cross-check: every Figure-2
// configuration is executed for real (at reduced scale on this machine)
// and its answer compared with the workload's closed forms.
type VerifyReport struct {
	// Rows is the scale the check ran at.
	Rows uint64
	// Checks lists each executed configuration and whether its answer
	// matched.
	Checks []VerifyCheck
}

// VerifyCheck is one executed configuration.
type VerifyCheck struct {
	Name string
	Got  float64
	Want float64
	OK   bool
}

// AllOK reports whether every check passed.
func (r VerifyReport) AllOK() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// String renders the report.
func (r VerifyReport) String() string {
	out := fmt.Sprintf("real-execution verification at %d rows:\n", r.Rows)
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "MISMATCH"
		}
		out += fmt.Sprintf("  %-55s got %.4f want %.4f  [%s]\n", c.Name, c.Got, c.Want, status)
	}
	return out
}

// Verify executes the Figure-2 queries for real over n item and customer
// records: row-store and column-store layouts, single- and multi-threaded
// host execution, and the software device's reduction kernel (resident
// and transfer-inclusive paths compute identically; timing differs only
// on the simulated clock). All answers are checked against closed forms.
func Verify(n uint64) (VerifyReport, error) {
	const K = workload.PositionListSize
	report := VerifyReport{Rows: n}
	host := mem.NewAllocator(mem.Host, 0)

	check := func(name string, got, want float64) {
		report.Checks = append(report.Checks, VerifyCheck{
			Name: name, Got: got, Want: want,
			OK: math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want)),
		})
	}

	// Item table in both storage models.
	items := workload.ItemSchema()
	rowL, err := layout.Horizontal(host, "row", items, n, n, layout.NSM)
	if err != nil {
		return report, err
	}
	colL, err := layout.Vertical(host, "col", items, singletonGroups(items.Arity()), n,
		func([]int) layout.Linearization { return layout.Direct })
	if err != nil {
		return report, err
	}
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		for _, l := range []*layout.Layout{rowL, colL} {
			for _, f := range l.Fragments() {
				if !f.Rows().Contains(i) {
					continue
				}
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
		return report, err
	}

	wantSum := workload.ExpectedItemPriceSum(n)
	for _, cfg := range []struct {
		name string
		l    *layout.Layout
		c    exec.Config
	}{
		{"sum all prices / " + RowSingle, rowL, exec.Single()},
		{"sum all prices / " + RowMulti, rowL, exec.MultiN(8)},
		{"sum all prices / " + RowMorsel, rowL, exec.Morsel()},
		{"sum all prices / " + ColSingle, colL, exec.Single()},
		{"sum all prices / " + ColMulti, colL, exec.MultiN(8)},
		{"sum all prices / " + ColMorsel, colL, exec.Morsel()},
	} {
		pieces, err := exec.ColumnView(cfg.l, workload.ItemPriceCol, n)
		if err != nil {
			return report, err
		}
		res, err := solo(cfg.c, exec.Scan{Plan: exec.Plan{Op: exec.KindSum}, Vals: pieces})
		if err != nil {
			return report, err
		}
		check(cfg.name, res.Sum, wantSum)
	}

	// Device reduction over the price column (real kernel execution).
	gpu := device.New(perfmodel.DefaultDevice(), nil)
	pieces, err := exec.ColumnView(colL, workload.ItemPriceCol, n)
	if err != nil {
		return report, err
	}
	buf, err := gpu.Alloc(int(n) * workload.ItemPriceSize)
	if err != nil {
		return report, err
	}
	defer buf.Free()
	v := pieces[0].Vec
	if err := gpu.CopyToDevice(buf, 0, v.Data[v.Base:v.Base+v.Len*v.Size]); err != nil {
		return report, err
	}
	got := make([]device.Partial, 1)
	if err := gpu.Launch(device.Kernel{
		Segs:   []device.Segment{{Vals: device.Vec{Buf: buf, Stride: workload.ItemPriceSize, Size: workload.ItemPriceSize, Len: int(n)}}},
		Config: device.DefaultReduceConfig()}, got); err != nil {
		return report, err
	}
	check("sum all prices / "+ColDevice, got[0].Sum, wantSum)

	// Position-list queries (panels 1-2): 150 sorted positions.
	r := rand.New(rand.NewSource(42))
	positions := workload.PositionList(r, K, n)
	var wantK float64
	for _, p := range positions {
		wantK += workload.ItemPrice(p)
	}
	for _, cfg := range []struct {
		name string
		l    *layout.Layout
		c    exec.Config
	}{
		{"sum prices of 150 items / " + RowSingle, rowL, exec.Single()},
		{"sum prices of 150 items / " + ColMulti, colL, exec.MultiN(8)},
		{"sum prices of 150 items / " + ColMorsel, colL, exec.Morsel()},
	} {
		recs, err := exec.Materialize(cfg.c, cfg.l, positions)
		if err != nil {
			return report, err
		}
		var got float64
		for _, rec := range recs {
			got += rec[workload.ItemPriceCol].F
		}
		check(cfg.name, got, wantK)
	}

	// The full pipeline the paper measures *after*: a join producing the
	// sorted position list. An orders table references K distinct items;
	// the join's build positions feed the same materialization+sum.
	orders := schema.MustNew(schema.Int64Attr("o_id"), schema.Int64Attr("o_item_id"))
	ordL, err := layout.Horizontal(host, "orders", orders, K, K, layout.NSM)
	if err != nil {
		return report, err
	}
	var wantJoin float64
	for i, p := range positions {
		if err := ordL.Fragments()[0].AppendTuplet([]schema.Value{
			schema.IntValue(int64(i)), schema.IntValue(int64(p)),
		}); err != nil {
			return report, err
		}
		wantJoin += workload.ItemPrice(p)
	}
	buildKeys, err := exec.ColumnView(colL, workload.ItemIDCol, n)
	if err != nil {
		return report, err
	}
	probeKeys, err := exec.ColumnView(ordL, 1, K)
	if err != nil {
		return report, err
	}
	pairs, err := exec.HashJoin(exec.Single(), buildKeys, probeKeys)
	if err != nil {
		return report, err
	}
	joined, err := exec.Materialize(exec.Single(), colL, exec.BuildPositions(pairs))
	if err != nil {
		return report, err
	}
	var gotJoin float64
	for _, rec := range joined {
		gotJoin += rec[workload.ItemPriceCol].F
	}
	check("join→positions→materialize→sum pipeline", gotJoin, wantJoin)
	ordL.Free()

	// Customer materialization (panel 1): checksum over balances.
	customers := workload.CustomerSchema()
	custRows := n / 4
	if custRows < uint64(K) {
		custRows = uint64(K)
	}
	custL, err := layout.Horizontal(host, "row", customers, custRows, custRows, layout.NSM)
	if err != nil {
		return report, err
	}
	if err := workload.Generate(custRows, workload.Customer, func(i uint64, rec schema.Record) error {
		return custL.Fragments()[0].AppendTuplet(rec)
	}); err != nil {
		return report, err
	}
	cpos := workload.PositionList(r, K, custRows)
	recs, err := exec.Materialize(exec.Single(), custL, cpos)
	if err != nil {
		return report, err
	}
	var gotBal, wantBal float64
	for i, p := range cpos {
		gotBal += recs[i][workload.CustomerBalanceCol].F
		wantBal += workload.CustomerBalance(p)
	}
	check("materialize 150 customers / "+RowSingle, gotBal, wantBal)

	rowL.Free()
	colL.Free()
	custL.Free()
	return report, nil
}

// singletonGroups returns [[0],[1],...,[arity-1]].
func singletonGroups(arity int) [][]int {
	out := make([][]int, arity)
	for i := range out {
		out[i] = []int{i}
	}
	return out
}
