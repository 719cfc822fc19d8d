package hybridstore

// The benchmark harness: one bench family per table/figure of the paper
// plus the ablations called out in DESIGN.md.
//
// Figure-2 benches execute the real operators over real layouts at a
// laptop-scale row count (BenchRows) and measure wall time; the effects
// that are hardware-independent — NSM vs DSM locality, thread-management
// overhead on tiny inputs, bulk vs tuple-at-a-time — are physically real
// here. Each bench additionally reports the calibrated model's simulated
// time for the paper-scale configuration as the "sim_ms/op" metric, which
// is what cmd/htapbench sweeps into the full figure.

import (
	"math/rand"
	"sync"
	"testing"

	"hybridstore/internal/core"
	"hybridstore/internal/device"
	"hybridstore/internal/engine"
	"hybridstore/internal/engines/all"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
	"hybridstore/internal/workload"
)

// BenchRows is the real-execution scale of the Figure-2 benches.
const BenchRows = 2_000_000

// PaperRows is the paper-scale size the simulated metric is priced at.
const PaperRows = 50_000_000

// fixtures are built once and shared across benches.
var (
	fixOnce sync.Once
	fix     struct {
		itemsRow, itemsCol *layout.Layout
		custRow, custCol   *layout.Layout
		itemPositions      []uint64
		custPositions      []uint64
		gpu                *device.GPU
		priceBuf           *device.Buffer
	}
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		host := mem.NewAllocator(mem.Host, 0)
		items := workload.ItemSchema()
		customers := workload.CustomerSchema()
		var err error
		if fix.itemsRow, err = layout.Horizontal(host, "row", items, BenchRows, BenchRows, layout.NSM); err != nil {
			panic(err)
		}
		fix.itemsCol, err = layout.Vertical(host, "col", items, groups(items.Arity()), BenchRows,
			func([]int) layout.Linearization { return layout.Direct })
		if err != nil {
			panic(err)
		}
		if fix.custRow, err = layout.Horizontal(host, "row", customers, BenchRows, BenchRows, layout.NSM); err != nil {
			panic(err)
		}
		fix.custCol, err = layout.Vertical(host, "col", customers, groups(customers.Arity()), BenchRows,
			func([]int) layout.Linearization { return layout.Direct })
		if err != nil {
			panic(err)
		}
		fill := func(l *layout.Layout, gen func(uint64) schema.Record, n uint64) {
			if err := workload.Generate(n, gen, func(i uint64, rec schema.Record) error {
				for _, f := range l.Fragments() {
					vals := make([]schema.Value, 0, f.Arity())
					for _, c := range f.Cols() {
						vals = append(vals, rec[c])
					}
					if err := f.AppendTuplet(vals); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				panic(err)
			}
		}
		fill(fix.itemsRow, workload.Item, BenchRows)
		fill(fix.itemsCol, workload.Item, BenchRows)
		fill(fix.custRow, workload.Customer, BenchRows)
		fill(fix.custCol, workload.Customer, BenchRows)

		r := rand.New(rand.NewSource(2017))
		fix.itemPositions = workload.PositionList(r, workload.PositionListSize, BenchRows)
		fix.custPositions = workload.PositionList(r, workload.PositionListSize, BenchRows)

		// Device-resident price column.
		fix.gpu = device.New(perfmodel.DefaultDevice(), nil)
		pieces, err := exec.ColumnView(fix.itemsCol, workload.ItemPriceCol, BenchRows)
		if err != nil {
			panic(err)
		}
		v := pieces[0].Vec
		if fix.priceBuf, err = fix.gpu.Alloc(v.Len * v.Size); err != nil {
			panic(err)
		}
		if err := fix.gpu.CopyToDevice(fix.priceBuf, 0, v.Data[v.Base:v.Base+v.Len*v.Size]); err != nil {
			panic(err)
		}
	})
}

func groups(arity int) [][]int {
	out := make([][]int, arity)
	for i := range out {
		out[i] = []int{i}
	}
	return out
}

// reportSim attaches the paper-scale simulated time for the configuration.
func reportSim(b *testing.B, ns float64) {
	b.ReportMetric(ns/1e6, "sim_ms/op")
}

// --- Figure 2 / panel 1: materialize 150 customers -----------------------

func benchMaterialize(b *testing.B, l *layout.Layout, cfg exec.Config, spread int) {
	fixtures(b)
	h := perfmodel.DefaultHost()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Materialize(cfg, l, fix.custPositions); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	switch cfg.Policy {
	case exec.MultiThreaded:
		reportSim(b, h.MaterializeNs(workload.PositionListSize, PaperRows, workload.CustomerWidth, spread, h.Threads))
	case exec.MorselDriven:
		reportSim(b, h.MaterializeMorselNs(workload.PositionListSize, PaperRows, workload.CustomerWidth, spread, h.Threads))
	default:
		reportSim(b, h.MaterializeNs(workload.PositionListSize, PaperRows, workload.CustomerWidth, spread, 1))
	}
}

func BenchmarkFig2Panel1RowSingle(b *testing.B) {
	benchMaterialize(b, fix1(b).custRow, exec.Single(), 1)
}
func BenchmarkFig2Panel1RowMulti(b *testing.B) {
	benchMaterialize(b, fix1(b).custRow, exec.MultiN(8), 1)
}
func BenchmarkFig2Panel1ColSingle(b *testing.B) {
	benchMaterialize(b, fix1(b).custCol, exec.Single(), workload.CustomerArity)
}
func BenchmarkFig2Panel1ColMulti(b *testing.B) {
	benchMaterialize(b, fix1(b).custCol, exec.MultiN(8), workload.CustomerArity)
}
func BenchmarkFig2Panel1RowMorsel(b *testing.B) {
	benchMaterialize(b, fix1(b).custRow, exec.Morsel(), 1)
}
func BenchmarkFig2Panel1ColMorsel(b *testing.B) {
	benchMaterialize(b, fix1(b).custCol, exec.Morsel(), workload.CustomerArity)
}

// fix1 forces fixture construction before taking struct fields.
func fix1(b *testing.B) *struct {
	itemsRow, itemsCol *layout.Layout
	custRow, custCol   *layout.Layout
	itemPositions      []uint64
	custPositions      []uint64
	gpu                *device.GPU
	priceBuf           *device.Buffer
} {
	fixtures(b)
	return &fix
}

// --- Figure 2 / panel 2: sum prices of 150 items --------------------------

func benchSum150(b *testing.B, l *layout.Layout, cfg exec.Config, width int) {
	fixtures(b)
	h := perfmodel.DefaultHost()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := exec.Materialize(cfg, l, fix.itemPositions)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, rec := range recs {
			sum += rec[workload.ItemPriceCol].F
		}
		if sum <= 0 {
			b.Fatal("bad sum")
		}
	}
	b.StopTimer()
	switch cfg.Policy {
	case exec.MultiThreaded:
		reportSim(b, h.MaterializeNs(workload.PositionListSize, PaperRows, width, 1, h.Threads))
	case exec.MorselDriven:
		reportSim(b, h.MaterializeMorselNs(workload.PositionListSize, PaperRows, width, 1, h.Threads))
	default:
		reportSim(b, h.MaterializeNs(workload.PositionListSize, PaperRows, width, 1, 1))
	}
}

func BenchmarkFig2Panel2RowSingle(b *testing.B) {
	benchSum150(b, fix1(b).itemsRow, exec.Single(), workload.ItemWidth)
}
func BenchmarkFig2Panel2RowMulti(b *testing.B) {
	benchSum150(b, fix1(b).itemsRow, exec.MultiN(8), workload.ItemWidth)
}
func BenchmarkFig2Panel2ColSingle(b *testing.B) {
	benchSum150(b, fix1(b).itemsCol, exec.Single(), workload.ItemPriceSize)
}
func BenchmarkFig2Panel2ColMulti(b *testing.B) {
	benchSum150(b, fix1(b).itemsCol, exec.MultiN(8), workload.ItemPriceSize)
}
func BenchmarkFig2Panel2RowMorsel(b *testing.B) {
	benchSum150(b, fix1(b).itemsRow, exec.Morsel(), workload.ItemWidth)
}
func BenchmarkFig2Panel2ColMorsel(b *testing.B) {
	benchSum150(b, fix1(b).itemsCol, exec.Morsel(), workload.ItemPriceSize)
}

// --- Figure 2 / panels 3-4: sum all prices --------------------------------

func benchFullScan(b *testing.B, l *layout.Layout, cfg exec.Config, stride int) {
	fixtures(b)
	pieces, err := exec.ColumnView(l, workload.ItemPriceCol, BenchRows)
	if err != nil {
		b.Fatal(err)
	}
	h := perfmodel.DefaultHost()
	want := workload.ExpectedItemPriceSum(BenchRows)
	b.SetBytes(int64(h.StridedBytes(BenchRows, workload.ItemPriceSize, stride)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := hostSum(cfg, pieces)
		if err != nil {
			b.Fatal(err)
		}
		if sum < want-1 || sum > want+1 {
			b.Fatalf("sum = %v", sum)
		}
	}
	b.StopTimer()
	switch cfg.Policy {
	case exec.MultiThreaded:
		reportSim(b, h.ScanSumNs(PaperRows, workload.ItemPriceSize, stride, h.Threads))
	case exec.MorselDriven:
		reportSim(b, h.ScanSumMorselNs(PaperRows, workload.ItemPriceSize, stride, h.Threads))
	default:
		reportSim(b, h.ScanSumNs(PaperRows, workload.ItemPriceSize, stride, 1))
	}
}

func BenchmarkFig2Panel3RowSingle(b *testing.B) {
	benchFullScan(b, fix1(b).itemsRow, exec.Single(), workload.ItemWidth)
}
func BenchmarkFig2Panel3RowMulti(b *testing.B) {
	benchFullScan(b, fix1(b).itemsRow, exec.MultiN(8), workload.ItemWidth)
}
func BenchmarkFig2Panel3ColSingle(b *testing.B) {
	benchFullScan(b, fix1(b).itemsCol, exec.Single(), workload.ItemPriceSize)
}
func BenchmarkFig2Panel3ColMulti(b *testing.B) {
	benchFullScan(b, fix1(b).itemsCol, exec.MultiN(8), workload.ItemPriceSize)
}
func BenchmarkFig2Panel3RowMorsel(b *testing.B) {
	benchFullScan(b, fix1(b).itemsRow, exec.Morsel(), workload.ItemWidth)
}
func BenchmarkFig2Panel3ColMorsel(b *testing.B) {
	benchFullScan(b, fix1(b).itemsCol, exec.Morsel(), workload.ItemPriceSize)
}

// --- Morsel vs blockwise (finding v) --------------------------------------
//
// The acceptance pair behind the MorselDriven policy: on small-result
// operators morsel execution must clearly beat spawning the paper's
// eight blockwise workers (the scheduling cost is the whole bill), and
// on full scans it must hold the blockwise plateau.

// benchTinyAggregate sums a 150-value column view — the pure
// scheduling-overhead microbenchmark behind finding (v): the work is a
// few hundred nanoseconds, so the executor's dispatch cost dominates.
func benchTinyAggregate(b *testing.B, cfg exec.Config) {
	fixtures(b)
	pieces, err := exec.ColumnView(fix.itemsCol, workload.ItemPriceCol, workload.PositionListSize)
	if err != nil {
		b.Fatal(err)
	}
	h := perfmodel.DefaultHost()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := hostSum(cfg, pieces)
		if err != nil {
			b.Fatal(err)
		}
		if sum <= 0 {
			b.Fatal("bad sum")
		}
	}
	b.StopTimer()
	switch cfg.Policy {
	case exec.MultiThreaded:
		reportSim(b, h.ScanSumNs(workload.PositionListSize, workload.ItemPriceSize, workload.ItemPriceSize, h.Threads))
	case exec.MorselDriven:
		reportSim(b, h.ScanSumMorselNs(workload.PositionListSize, workload.ItemPriceSize, workload.ItemPriceSize, h.Threads))
	default:
		reportSim(b, h.ScanSumNs(workload.PositionListSize, workload.ItemPriceSize, workload.ItemPriceSize, 1))
	}
}

// benchSelect filters the full price column at low selectivity
// (2 in 10_000): a full scan whose tiny result exercises the pooled
// position-list buffers.
func benchSelect(b *testing.B, cfg exec.Config) {
	fixtures(b)
	pieces, err := exec.ColumnView(fix.itemsCol, workload.ItemPriceCol, BenchRows)
	if err != nil {
		b.Fatal(err)
	}
	// ItemPrice(i) = (i%10000)/100 + 1, so x < 1.02 matches i%10000 < 2.
	const want = 2 * (BenchRows / 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := exec.SelectFloat64Pred(cfg, pieces, exec.Lt(1.02))
		if err != nil {
			b.Fatal(err)
		}
		if n := len(sel.Positions()); n != want {
			b.Fatalf("matches = %d, want %d", n, want)
		}
		sel.Release()
	}
}

func BenchmarkMorselVsBlockwiseTinyAggMorsel(b *testing.B) {
	benchTinyAggregate(b, exec.Morsel())
}
func BenchmarkMorselVsBlockwiseTinyAggBlockwise(b *testing.B) {
	benchTinyAggregate(b, exec.MultiN(8))
}
func BenchmarkMorselVsBlockwiseSum150Morsel(b *testing.B) {
	benchSum150(b, fix1(b).itemsCol, exec.Morsel(), workload.ItemPriceSize)
}
func BenchmarkMorselVsBlockwiseSum150Blockwise(b *testing.B) {
	benchSum150(b, fix1(b).itemsCol, exec.MultiN(8), workload.ItemPriceSize)
}
func BenchmarkMorselVsBlockwiseMaterializeMorsel(b *testing.B) {
	benchMaterialize(b, fix1(b).custRow, exec.Morsel(), 1)
}
func BenchmarkMorselVsBlockwiseMaterializeBlockwise(b *testing.B) {
	benchMaterialize(b, fix1(b).custRow, exec.MultiN(8), 1)
}
func BenchmarkMorselVsBlockwiseFullScanMorsel(b *testing.B) {
	benchFullScan(b, fix1(b).itemsCol, exec.Morsel(), workload.ItemPriceSize)
}
func BenchmarkMorselVsBlockwiseFullScanBlockwise(b *testing.B) {
	benchFullScan(b, fix1(b).itemsCol, exec.MultiN(8), workload.ItemPriceSize)
}
func BenchmarkMorselVsBlockwiseSelectMorsel(b *testing.B) {
	benchSelect(b, exec.Morsel())
}
func BenchmarkMorselVsBlockwiseSelectBlockwise(b *testing.B) {
	benchSelect(b, exec.MultiN(8))
}

// BenchmarkFig2Panel3Device includes the host→device transfer every
// iteration (the panel-3 device series).
func BenchmarkFig2Panel3Device(b *testing.B) {
	fixtures(b)
	d := perfmodel.DefaultDevice()
	pieces, err := exec.ColumnView(fix.itemsCol, workload.ItemPriceCol, BenchRows)
	if err != nil {
		b.Fatal(err)
	}
	v := pieces[0].Vec
	want := workload.ExpectedItemPriceSum(BenchRows)
	out := make([]device.Partial, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fix.gpu.CopyToDevice(fix.priceBuf, 0, v.Data[v.Base:v.Base+v.Len*v.Size]); err != nil {
			b.Fatal(err)
		}
		if err := fix.gpu.Launch(device.Kernel{
			Segs:   []device.Segment{{Vals: device.Vec{Buf: fix.priceBuf, Stride: 8, Size: 8, Len: BenchRows}}},
			Config: device.DefaultReduceConfig()}, out); err != nil {
			b.Fatal(err)
		}
		if out[0].Sum < want-1 || out[0].Sum > want+1 {
			b.Fatalf("sum = %v", out[0].Sum)
		}
	}
	b.StopTimer()
	reportSim(b, d.TransferNs(PaperRows*8)+d.ReduceKernelNs(PaperRows, 8, 8, 1024, 512))
}

// BenchmarkFig2Panel4Device runs over the resident column (the panel-4
// series: transfer costs excluded).
func BenchmarkFig2Panel4Device(b *testing.B) {
	fixtures(b)
	d := perfmodel.DefaultDevice()
	want := workload.ExpectedItemPriceSum(BenchRows)
	out := make([]device.Partial, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fix.gpu.Launch(device.Kernel{
			Segs:   []device.Segment{{Vals: device.Vec{Buf: fix.priceBuf, Stride: 8, Size: 8, Len: BenchRows}}},
			Config: device.DefaultReduceConfig()}, out); err != nil {
			b.Fatal(err)
		}
		if out[0].Sum < want-1 || out[0].Sum > want+1 {
			b.Fatalf("sum = %v", out[0].Sum)
		}
	}
	b.StopTimer()
	reportSim(b, d.ReduceKernelNs(PaperRows, 8, 8, 1024, 512))
}

// --- Table 1: survey classification ---------------------------------------

// BenchmarkTable1Classify builds, loads and classifies all ten surveyed
// engines — the cost of regenerating the survey table from live systems.
func BenchmarkTable1Classify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := engine.NewEnv()
		var rows []taxonomy.Classification
		for _, e := range all.Engines(env) {
			tbl, err := e.Create("item", workload.ItemSchema())
			if err != nil {
				b.Fatal(err)
			}
			if err := workload.Generate(256, workload.Item, func(j uint64, rec schema.Record) error {
				_, err := tbl.Insert(rec)
				return err
			}); err != nil {
				b.Fatal(err)
			}
			c, err := engine.Classify(e, tbl)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, c)
			tbl.Free()
		}
		if len(rows) != 10 {
			b.Fatal("missing engines")
		}
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblationLinearization measures the real cache effect of NSM vs
// DSM on an attribute-centric scan (the mechanism behind finding iii).
func BenchmarkAblationLinearizationNSM(b *testing.B) {
	benchFullScan(b, fix1(b).itemsRow, exec.Single(), workload.ItemWidth)
}

// BenchmarkAblationLinearizationDSM is the DSM counterpart.
func BenchmarkAblationLinearizationDSM(b *testing.B) {
	benchFullScan(b, fix1(b).itemsCol, exec.Single(), workload.ItemPriceSize)
}

// BenchmarkAblationThreadMgmt isolates the real thread-management cost on
// a 150-element workload (the mechanism behind finding i).
func BenchmarkAblationThreadMgmtSingle(b *testing.B) {
	benchSum150(b, fix1(b).itemsCol, exec.Single(), workload.ItemPriceSize)
}

// BenchmarkAblationThreadMgmtMulti spawns the paper's eight workers for
// the same tiny input.
func BenchmarkAblationThreadMgmtMulti(b *testing.B) {
	benchSum150(b, fix1(b).itemsCol, exec.MultiN(8), workload.ItemPriceSize)
}

// BenchmarkAblationVolcano compares tuple-at-a-time iteration against the
// bulk operator on the same NSM data (Section II-A's processing models).
func BenchmarkAblationVolcano(b *testing.B) {
	fixtures(b)
	const n = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := exec.NewRowIterator(fix.itemsRow, n)
		if _, err := exec.SumFloat64Volcano(it, workload.ItemPriceCol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBulk is the bulk-operator counterpart of
// BenchmarkAblationVolcano over the same rows.
func BenchmarkAblationBulk(b *testing.B) {
	fixtures(b)
	const n = 100_000
	pieces, err := exec.ColumnView(fix.itemsRow, workload.ItemPriceCol, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hostSum(exec.Single(), pieces); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAdaptive runs the reference engine through a shifting
// HTAP trace with the advisor on vs off, reporting simulated time.
func benchAdaptive(b *testing.B, adapt bool) {
	for i := 0; i < b.N; i++ {
		env := engine.NewEnv()
		e := core.New(env, core.Options{ChunkRows: 16384, HotChunks: 1, DevicePlacement: true})
		tbl, err := e.Create("item", workload.ItemSchema())
		if err != nil {
			b.Fatal(err)
		}
		ct := tbl.(*core.Table)
		if err := workload.Generate(50_000, workload.Item, func(j uint64, rec schema.Record) error {
			_, err := ct.Insert(rec)
			return err
		}); err != nil {
			b.Fatal(err)
		}
		// Identical operation sequence for both variants; only the Adapt
		// calls differ. Phase 1: OLTP. Phase 2: a first analytic burst
		// that (with the advisor on) teaches the engine the shift.
		// Phase 3: the steady analytic workload whose cost the advisor
		// should have reduced.
		for j := uint64(0); j < 500; j++ {
			if _, err := ct.Get(j % 50_000); err != nil {
				b.Fatal(err)
			}
		}
		if adapt {
			if _, err := ct.Adapt(); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < 5; j++ {
			if _, err := scanSum(ct, workload.ItemPriceCol); err != nil {
				b.Fatal(err)
			}
		}
		if adapt {
			if _, err := ct.Adapt(); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < 40; j++ {
			if _, err := scanSum(ct, workload.ItemPriceCol); err != nil {
				b.Fatal(err)
			}
		}
		reportSim(b, env.Clock.ElapsedNs())
		ct.Free()
	}
}

// BenchmarkAblationAdaptiveOn enables the layout advisor.
func BenchmarkAblationAdaptiveOn(b *testing.B) { benchAdaptive(b, true) }

// BenchmarkAblationAdaptiveOff disables it.
func BenchmarkAblationAdaptiveOff(b *testing.B) { benchAdaptive(b, false) }

// BenchmarkAblationDelegationVsReplication compares the storage cost of
// the two fragment schemes over the same data: the reference engine's
// delegation (hot→cold moves) against Fractured Mirrors' replication.
func BenchmarkAblationDelegation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := engine.NewEnv()
		e := core.New(env, core.Options{ChunkRows: 1024, HotChunks: 1})
		tbl, err := e.Create("item", workload.ItemSchema())
		if err != nil {
			b.Fatal(err)
		}
		if err := workload.Generate(10_000, workload.Item, func(j uint64, rec schema.Record) error {
			_, err := tbl.Insert(rec)
			return err
		}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(env.Host.Used())/(1<<20), "MiB")
		tbl.Free()
	}
}

// BenchmarkAblationReplication is the replication counterpart.
func BenchmarkAblationReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := engine.NewEnv()
		e := all.ByName(env, "Fractured Mirrors")
		tbl, err := e.Create("item", workload.ItemSchema())
		if err != nil {
			b.Fatal(err)
		}
		if err := workload.Generate(10_000, workload.Item, func(j uint64, rec schema.Record) error {
			_, err := tbl.Insert(rec)
			return err
		}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(env.Host.Used())/(1<<20), "MiB")
		tbl.Free()
	}
}

// BenchmarkReferenceEngineHTAP measures the end-to-end facade under a
// mixed workload (ops/op are whole HTAP episodes).
func BenchmarkReferenceEngineHTAP(b *testing.B) {
	db := Open(Options{ChunkRows: 4096, HotChunks: 2})
	tbl, err := db.CreateTable("item", ItemSchema())
	if err != nil {
		b.Fatal(err)
	}
	defer tbl.Free()
	for i := uint64(0); i < 50_000; i++ {
		if _, err := tbl.Insert(Item(i)); err != nil {
			b.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := uint64(r.Int63n(50_000))
		if _, err := tbl.Get(row); err != nil {
			b.Fatal(err)
		}
		if err := tbl.Update(row, ItemPriceColumn, FloatValue(1)); err != nil {
			b.Fatal(err)
		}
		if i%100 == 0 {
			if _, err := sumOf(tbl, ItemPriceColumn); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationCompression measures the sealed-base compression of
// L-Store on the item workload: scan speed over compressed vs raw base
// pages, with the achieved ratio as a metric.
func BenchmarkAblationCompressionSealedScan(b *testing.B) {
	env := engine.NewEnv()
	e := all.ByName(env, "L-Store")
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		b.Fatal(err)
	}
	defer tbl.Free()
	const n = 200_000
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := tbl.Insert(rec)
		return err
	}); err != nil {
		b.Fatal(err)
	}
	type sealer interface {
		Merge() error
		CompressionRatio() float64
	}
	s := tbl.(sealer)
	if err := s.Merge(); err != nil {
		b.Fatal(err)
	}
	want := workload.ExpectedItemPriceSum(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := scanSum(tbl, workload.ItemPriceCol)
		if err != nil {
			b.Fatal(err)
		}
		if sum < want-1 || sum > want+1 {
			b.Fatalf("sum = %v", sum)
		}
	}
	b.StopTimer()
	b.ReportMetric(s.CompressionRatio(), "ratio")
}

// BenchmarkAblationCompressionRawScan is the pre-merge (uncompressed)
// counterpart.
func BenchmarkAblationCompressionRawScan(b *testing.B) {
	env := engine.NewEnv()
	e := all.ByName(env, "L-Store")
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		b.Fatal(err)
	}
	defer tbl.Free()
	const n = 200_000
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := tbl.Insert(rec)
		return err
	}); err != nil {
		b.Fatal(err)
	}
	want := workload.ExpectedItemPriceSum(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := scanSum(tbl, workload.ItemPriceCol)
		if err != nil {
			b.Fatal(err)
		}
		if sum < want-1 || sum > want+1 {
			b.Fatalf("sum = %v", sum)
		}
	}
}

// BenchmarkPKLookup measures the Q1 path: hash-indexed point access vs a
// full position scan would be no contest; this pins the index cost.
func BenchmarkPKLookup(b *testing.B) {
	db := Open(Options{ChunkRows: 4096})
	tbl, err := db.CreateTable("item", ItemSchema())
	if err != nil {
		b.Fatal(err)
	}
	defer tbl.Free()
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		if _, err := tbl.Insert(Item(i)); err != nil {
			b.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk := r.Int63n(n)
		rec, err := tbl.GetByPK(pk)
		if err != nil || rec[0].I != pk {
			b.Fatalf("GetByPK(%d) = %v, %v", pk, rec, err)
		}
	}
}
