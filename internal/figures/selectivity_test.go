package figures

import (
	"fmt"
	"strings"
	"testing"

	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
	"hybridstore/internal/workload"
)

// sweepRows/sweepFrags is the test geometry: 64 fragments so a 1%
// predicate prunes all but one, and a row count every default
// selectivity divides exactly.
const (
	sweepRows  = 160_000
	sweepFrags = 64
)

// TestSelectivitySweepPrunes is the acceptance check for the sweep: at
// 1% selectivity over frozen fragments the pruned fused scan must beat
// the unpruned generic scan by >= 5x wall-clock on both storage models,
// and the device series must move a fraction of the unpruned bus bytes.
// Every point's answer is already cross-checked against the closed form
// inside MeasureSelectivity, so a successful return is the exactness
// proof; the wall-clock ordering is only asserted on uninstrumented
// builds (the race detector distorts relative memory-access costs).
func TestSelectivitySweepPrunes(t *testing.T) {
	before := obs.TakeSnapshot()
	s, err := MeasureSelectivity(sweepRows, sweepFrags, DefaultSelectivities(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Host) != 6 {
		t.Fatalf("host series = %d, want 6", len(s.Host))
	}
	onePct := -1
	for i, sel := range s.Selectivities {
		if sel == 0.01 {
			onePct = i
		}
	}
	if onePct < 0 {
		t.Fatal("sweep lost the 1% point")
	}

	// Device: at 1% only the fragments overlapping the first 1% of the
	// monotone domain survive — 1 of 64 — so the bus traffic collapses.
	pruned, unpruned := s.Device.Pruned.H2DBytes[onePct], s.Device.Unpruned.H2DBytes[onePct]
	if unpruned != int64(sweepRows*8) {
		t.Errorf("unpruned transfer = %d bytes, want %d", unpruned, sweepRows*8)
	}
	if pruned >= unpruned/8 {
		t.Errorf("pruned transfer = %d bytes, want < 1/8 of %d", pruned, unpruned)
	}
	if s.Device.Pruned.Kernels[onePct] >= s.Device.Unpruned.Kernels[onePct] {
		t.Errorf("pruned kernels = %d, unpruned = %d", s.Device.Pruned.Kernels[onePct], s.Device.Unpruned.Kernels[onePct])
	}
	// At 100% nothing can be pruned: identical traffic.
	last := len(s.Selectivities) - 1
	if s.Selectivities[last] == 1.0 && s.Device.Pruned.H2DBytes[last] != s.Device.Unpruned.H2DBytes[last] {
		t.Errorf("full-range scan pruned bus traffic: %d vs %d",
			s.Device.Pruned.H2DBytes[last], s.Device.Unpruned.H2DBytes[last])
	}

	// The sweep's pruning decisions land in the process-wide counters.
	after := obs.TakeSnapshot()
	if after.Counter("exec.zonemap.pruned") <= before.Counter("exec.zonemap.pruned") {
		t.Error("exec.zonemap.pruned did not advance over the sweep")
	}

	if raceEnabled {
		t.Log("race detector on; skipping wall-clock assertions")
		return
	}
	for _, h := range s.Host {
		if sp := h.Speedup[onePct]; sp < 5 {
			t.Errorf("%s: 1%% selectivity speedup %.1fx, want >= 5x (pruned %.0fns generic %.0fns)",
				h.Label, sp, h.PrunedNs[onePct], h.GenericNs[onePct])
		}
	}
}

// TestSelectivitySweepRendering pins the deterministic half of the
// panel: the skeleton of both rendered forms, and the device rows of the
// CSV (simulated bytes, kernel counts and ns ratio) in full.
func TestSelectivitySweepRendering(t *testing.T) {
	s, err := MeasureSelectivity(16_000, 8, []float64{0.01, 1.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tables := s.Tables()
	golden(t, "selectivity.txt", skeleton(tables))
	var device string
	for _, line := range strings.SplitAfter(tables[2].CSV(), "\n") {
		if strings.Contains(line, "device h2d bytes") {
			device += line
		}
	}
	golden(t, "selectivity_device.txt", device)
}

// TestSelectivityGeometryValidation covers the error paths.
func TestSelectivityGeometryValidation(t *testing.T) {
	if _, err := MeasureSelectivity(1000, 64, nil, 1); err == nil {
		t.Fatal("accepted rows not divisible by fragments")
	}
	if _, _, err := buildSelectivityLayouts(100, 0); err == nil {
		t.Fatal("accepted zero fragments")
	}
}

// BenchmarkSelectivitySweep times the three strategies at each default
// selectivity over the frozen column store; `go test -bench
// SelectivitySweep ./internal/figures` regenerates the panel's raw
// series.
func BenchmarkSelectivitySweep(b *testing.B) {
	_, colL, err := buildSelectivityLayouts(sweepRows, sweepFrags)
	if err != nil {
		b.Fatal(err)
	}
	defer colL.Free()
	pieces, err := exec.ColumnView(colL, workload.ItemPriceCol, sweepRows)
	if err != nil {
		b.Fatal(err)
	}
	stripped := stripZones(pieces)
	for _, sel := range DefaultSelectivities() {
		cut := sel * float64(sweepRows)
		p := exec.Lt(cut)
		b.Run(fmt.Sprintf("pruned/sel=%g", sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := exec.SumFloat64Where(exec.Single(), pieces, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fused/sel=%g", sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := exec.SumFloat64Where(exec.Single(), stripped, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("generic/sel=%g", sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.CountFloat64(exec.Single(), stripped, p.Match); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
