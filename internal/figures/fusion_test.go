package figures

import "testing"

// TestFusionSweep is the acceptance check for the fusion panel: the
// one-pass fused plan beats materialize-then-aggregate on the host
// under every threading policy at every swept point, beats the device
// filter+gather baseline at ≤10% selectivity, and the device fused plan
// spends exactly ONE kernel launch and ONE group-table download per
// fragment — also on the compressed leg, where the decode folds into
// the same launch. Every leg's group table is cross-checked against a
// host shadow inside MeasureFusion, so a successful return is the
// exactness proof.
func TestFusionSweep(t *testing.T) {
	// The two-column working set (16 bytes/row) must exceed L3 so the
	// baseline's pair gathers price at miss latency — the regime the
	// panel (and the paper's large-column figures) live in.
	const (
		rows  = 1 << 20
		frags = 64
	)
	s, err := MeasureFusion(rows, frags, DefaultFusionCards(), DefaultFusionSelectivities())
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := len(DefaultFusionCards()) * len(DefaultFusionSelectivities())
	if len(s.Points) != wantPoints {
		t.Fatalf("points = %d, want %d", len(s.Points), wantPoints)
	}
	if !s.HostFusedWins() {
		t.Error("host fused plan lost to materialize-then-aggregate at some swept point/policy")
	}
	if !s.DeviceFusedWins(0.10) {
		t.Error("device fused plan lost to filter+gather at <=10% selectivity")
	}
	for _, pt := range s.Points {
		// The one-launch budget: one kernel and one 24-byte-per-group
		// download per fragment, dense and compressed alike.
		if pt.DeviceFusedKernels != frags {
			t.Errorf("groups=%d sel=%.2f: fused kernels = %d, want %d (one per fragment)",
				pt.Groups, pt.Selectivity, pt.DeviceFusedKernels, frags)
		}
		if pt.DeviceCompFusedKernels != frags {
			t.Errorf("groups=%d sel=%.2f: compressed fused kernels = %d, want %d (decode folded in)",
				pt.Groups, pt.Selectivity, pt.DeviceCompFusedKernels, frags)
		}
		if pt.DeviceBaseKernels <= pt.DeviceFusedKernels {
			t.Errorf("groups=%d sel=%.2f: baseline ran %d kernels, fused %d — no launch saving",
				pt.Groups, pt.Selectivity, pt.DeviceBaseKernels, pt.DeviceFusedKernels)
		}
		// The download is bounded by the group tables, never the rows.
		if max := int64(frags) * int64(pt.Groups) * 24; pt.DeviceFusedD2HBytes > max {
			t.Errorf("groups=%d sel=%.2f: fused D2H %d bytes, want <= %d (group tables only)",
				pt.Groups, pt.Selectivity, pt.DeviceFusedD2HBytes, max)
		}
		// At the small cardinality every fragment holds all groups.
		if pt.Groups == 8 && pt.DeviceFusedD2HBytes != int64(frags)*8*24 {
			t.Errorf("sel=%.2f: fused D2H %d bytes, want exactly %d",
				pt.Selectivity, pt.DeviceFusedD2HBytes, int64(frags)*8*24)
		}
		// Compressed-domain grouping beats the dense fused pass on the
		// host (fewer streamed bytes) and decode-then-aggregate by far.
		if pt.FusedCompNs >= pt.FusedSingleNs {
			t.Errorf("groups=%d sel=%.2f: compressed fused %.0fns, dense fused %.0fns",
				pt.Groups, pt.Selectivity, pt.FusedCompNs, pt.FusedSingleNs)
		}
		if pt.FusedCompNs >= pt.BaseCompNs {
			t.Errorf("groups=%d sel=%.2f: compressed fused %.0fns, decode-then-aggregate %.0fns",
				pt.Groups, pt.Selectivity, pt.FusedCompNs, pt.BaseCompNs)
		}
	}
}
