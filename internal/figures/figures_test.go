package figures

import (
	"strings"
	"testing"
)

func TestAllFourFindingsReproduce(t *testing.T) {
	f := Default().Evaluate()
	if !f.TinyInputsFavourSingle {
		t.Error("finding (i) failed: single-threaded should win on 150-record workloads")
	}
	if !f.RecordCentricFavoursNSM {
		t.Error("finding (ii) failed: NSM should win record-centric materialization")
	}
	if !f.AttrCentricFavoursDSM {
		t.Error("finding (iii) failed: DSM should win attribute-centric scans")
	}
	if !f.DeviceWinsWhenResident {
		t.Error("finding (iv) failed: resident device should dominate")
	}
	if !f.MorselAmortizesScheduling {
		t.Error("finding (v) failed: morsel-driven should beat blockwise on tiny inputs and hold the scan plateau")
	}
}

func TestPanel1Shape(t *testing.T) {
	p := Default().Panel1(DefaultSizes(1))
	if len(p.Series) != 6 || len(p.Series[0].Values) != 5 {
		t.Fatalf("panel 1 shape: %d series × %d points", len(p.Series), len(p.Series[0].Values))
	}
	// NSM beats DSM at every size, by several ×.
	row := p.find(RowSingle)
	col := p.find(ColSingle)
	for i := range p.Sizes {
		if row.Values[i] >= col.Values[i] {
			t.Errorf("size %d: row %.3f >= col %.3f ms", p.Sizes[i], row.Values[i], col.Values[i])
		}
		if col.Values[i]/row.Values[i] < 3 {
			t.Errorf("size %d: NSM advantage only %.1fx", p.Sizes[i], col.Values[i]/row.Values[i])
		}
	}
	// Thread management dominates a 150-record materialization.
	if p.find(RowSingle).Values[0] >= p.find(RowMulti).Values[0] {
		t.Error("multi-threading should lose on 150-record materialization")
	}
	// The resident pool sits between: cheaper than spawning threads,
	// costlier than staying single-threaded.
	if p.find(RowMorsel).Values[0] >= p.find(RowMulti).Values[0] {
		t.Error("morsel-driven should beat blockwise on 150-record materialization")
	}
	if p.find(RowMorsel).Values[0] <= p.find(RowSingle).Values[0] {
		t.Error("the pool wake should cost more than staying single-threaded")
	}
}

func TestPanel2Shape(t *testing.T) {
	p := Default().Panel2(DefaultSizes(2))
	if len(p.Series) != 6 || len(p.Series[0].Values) != 6 {
		t.Fatalf("panel 2 shape wrong")
	}
	// Single-threaded wins across the sweep (finding i).
	for i := range p.Sizes {
		if p.find(ColSingle).Values[i] >= p.find(ColMulti).Values[i] {
			t.Errorf("size %d: single %.2f >= multi %.2f µs", p.Sizes[i],
				p.find(ColSingle).Values[i], p.find(ColMulti).Values[i])
		}
		// Morsel-driven nearly closes the gap: single < morsel < multi.
		if p.find(ColMorsel).Values[i] >= p.find(ColMulti).Values[i] {
			t.Errorf("size %d: morsel %.2f >= multi %.2f µs", p.Sizes[i],
				p.find(ColMorsel).Values[i], p.find(ColMulti).Values[i])
		}
	}
}

func TestPanel3Shape(t *testing.T) {
	p := Default().Panel3(DefaultSizes(3))
	if len(p.Series) != 7 {
		t.Fatalf("panel 3 series = %d, want 7 (6 host + device)", len(p.Series))
	}
	last := len(p.Sizes) - 1
	colMulti := p.find(ColMulti).Values[last]
	rowMulti := p.find(RowMulti).Values[last]
	colSingle := p.find(ColSingle).Values[last]
	dev := p.find(ColDevice).Values[last]
	// Column beats row (finding iii).
	if colMulti <= rowMulti {
		t.Errorf("col multi %.0f <= row multi %.0f M rows/s", colMulti, rowMulti)
	}
	// Multi beats single at scale.
	if colMulti <= colSingle {
		t.Errorf("multi %.0f <= single %.0f M rows/s", colMulti, colSingle)
	}
	// The transfer-bound device does not dominate the multi-threaded host.
	if dev > 2*colMulti {
		t.Errorf("transfer-bound device %.0f dominates host %.0f", dev, colMulti)
	}
	// Host multi plateau lands near the paper's ~1500-2500M rows/s.
	if colMulti < 1200 || colMulti > 4000 {
		t.Errorf("host plateau = %.0fM rows/s, want ~2000M", colMulti)
	}
	// The morsel policy holds the blockwise plateau on full scans
	// (acceptance: no worse than 5% below it).
	colMorsel := p.find(ColMorsel).Values[last]
	if colMorsel < 0.95*colMulti {
		t.Errorf("morsel plateau %.0f < 95%% of blockwise %.0f M rows/s", colMorsel, colMulti)
	}
}

func TestPanel4Shape(t *testing.T) {
	p3 := Default().Panel3(DefaultSizes(3))
	p4 := Default().Panel4(DefaultSizes(4))
	last := len(p4.Sizes) - 1
	resident := p4.find(ColDeviceNoBus).Values[last]
	withBus := p3.find(ColDevice).Values[last]
	// Excluding the transfer lifts throughput to the ~10000M plateau.
	if resident < 7000 || resident > 13000 {
		t.Errorf("resident device = %.0fM rows/s, want ~10000M", resident)
	}
	if resident <= withBus {
		t.Error("excluding the transfer did not help")
	}
	// Crossover factor device/host ≈ 5x (paper: ~10000M vs ~2000M).
	host := p4.find(ColMulti).Values[last]
	if resident/host < 3 || resident/host > 10 {
		t.Errorf("device/host factor = %.1f, want ~5", resident/host)
	}
}

func TestPanelsDispatch(t *testing.T) {
	for name, want := range map[string][]string{
		"0": {"panel 1: ", "panel 2: ", "panel 3: ", "panel 4: "},
		"1": {"panel 1: "}, "2": {"panel 2: "}, "3": {"panel 3: "}, "4": {"panel 4: "},
	} {
		tables := panelTables(t, name)
		if len(tables) != len(want) {
			t.Fatalf("panel %q = %d tables, want %d", name, len(tables), len(want))
		}
		for i, tb := range tables {
			if !strings.HasPrefix(tb.Label, want[i]) {
				t.Fatalf("panel %q table %d is %q, want %q", name, i, tb.Label, want[i])
			}
		}
	}
	if _, err := Lookup("9"); err == nil {
		t.Fatal("Lookup(9) accepted")
	}
}

func TestVerifyRealExecution(t *testing.T) {
	report, err := Verify(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Checks) < 8 {
		t.Fatalf("checks = %d", len(report.Checks))
	}
	if !report.AllOK() {
		t.Fatalf("real execution mismatch:\n%s", report)
	}
	if !strings.Contains(report.String(), "ok") {
		t.Fatal("report rendering broken")
	}
}

func TestFindMissingSeries(t *testing.T) {
	p := Default().Panel1(DefaultSizes(1))
	if p.find("nope") != nil {
		t.Fatal("found a missing series")
	}
}

func TestRealScanPanelMeasures(t *testing.T) {
	p, err := RealScanPanel([]uint64{50_000, 100_000}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 2 || len(p.Series[0].Values) != 2 {
		t.Fatalf("panel shape: %+v", p)
	}
	for _, s := range p.Series {
		for i, v := range s.Values {
			if v <= 0 {
				t.Fatalf("%s point %d = %v", s.Label, i, v)
			}
		}
	}
	// The real cache effect: the dense column scan beats the strided
	// row-store scan on this machine. Race instrumentation distorts
	// relative memory-access costs, so the ordering is only asserted on
	// uninstrumented builds.
	if !raceEnabled {
		row, col := p.Series[0].Values[1], p.Series[1].Values[1]
		if col <= row {
			t.Fatalf("measured col %.0f <= row %.0f M rows/s", col, row)
		}
	}
}
