package figures

import "testing"

// TestMultiDeviceSweepScalesAndMeters runs a reduced sweep and pins the
// panel's claims: the fleet answers match the single-card and host
// references (checked inside MeasureMultiDevice), warm passes ship zero
// bus bytes, warm time scales with device count — 4 cards at least twice
// as fast as one over every fragment, and never faster than linear — and
// cold bus traffic is independent of fleet size (the same admitted
// fragments ship once wherever they land).
func TestMultiDeviceSweepScalesAndMeters(t *testing.T) {
	s, err := MeasureMultiDevice(65536, 16, []int{1, 2, 4}, []float64{0.50, 1.00})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2*3*2 {
		t.Fatalf("points = %d, want 12", len(s.Points))
	}
	byCell := map[[2]interface{}]map[int]MultiDevicePoint{}
	for _, p := range s.Points {
		if p.WarmH2DBytes != 0 {
			t.Fatalf("%d-card %s sel %.2f: warm pass shipped %d bytes, want 0", p.Devices, p.Layout, p.Selectivity, p.WarmH2DBytes)
		}
		if p.ColdH2DBytes <= 0 {
			t.Fatalf("%d-card %s sel %.2f: cold pass shipped nothing", p.Devices, p.Layout, p.Selectivity)
		}
		if p.CacheMisses != p.CacheHits {
			t.Fatalf("%d-card %s sel %.2f: hits %d != misses %d (one cold + one warm pass over the same fragments)",
				p.Devices, p.Layout, p.Selectivity, p.CacheHits, p.CacheMisses)
		}
		cell := [2]interface{}{p.Layout, p.Selectivity}
		if byCell[cell] == nil {
			byCell[cell] = map[int]MultiDevicePoint{}
		}
		byCell[cell][p.Devices] = p
	}
	for cell, pts := range byCell {
		if pts[1].ColdH2DBytes != pts[2].ColdH2DBytes || pts[2].ColdH2DBytes != pts[4].ColdH2DBytes {
			t.Fatalf("%v: cold bus traffic varies with fleet size: %d/%d/%d",
				cell, pts[1].ColdH2DBytes, pts[2].ColdH2DBytes, pts[4].ColdH2DBytes)
		}
		if !(pts[1].WarmNs > pts[2].WarmNs && pts[2].WarmNs > pts[4].WarmNs) {
			t.Fatalf("%v: warm ns did not shrink with device count: %v/%v/%v",
				cell, pts[1].WarmNs, pts[2].WarmNs, pts[4].WarmNs)
		}
		if pts[2].WarmNs < pts[1].WarmNs/4 || pts[4].WarmNs < pts[1].WarmNs/16 {
			t.Fatalf("%v: scaling implausibly superlinear: %v/%v/%v",
				cell, pts[1].WarmNs, pts[2].WarmNs, pts[4].WarmNs)
		}
		if speedup := pts[4].WarmSpeedup; pts[4].Selectivity >= 0.99 && speedup < 2 {
			t.Fatalf("%v: 4-card warm speedup = %.2f, want >= 2", cell, speedup)
		}
	}
	if !s.WarmScales(1.5) {
		t.Fatal("warm throughput does not scale >= 1.5x per card doubling")
	}
}
