package figures

import "testing"

// TestCompressionSweep is the acceptance check for the compression
// panel: compressible shapes ship fewer bus bytes and finish sooner on
// the device than the uncompressed scan, warm rescans through the
// fragment cache ship nothing, and the incompressible shape honestly
// stays raw at ratio 1. Answers are cross-checked against the host
// shadow inside MeasureCompression, so a successful return is the
// exactness proof.
func TestCompressionSweep(t *testing.T) {
	// Fragments must be large enough that the bus saving amortizes the
	// per-fragment decode-kernel launch — the same small-work-unit
	// threshold the placement advisor prices (64Ki rows = 512KiB dense
	// per fragment, well past break-even at ~70KiB).
	const (
		rows  = 1 << 20
		frags = 16
	)
	s, err := MeasureCompression(rows, frags)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Shapes) != 4 {
		t.Fatalf("shapes = %d, want 4", len(s.Shapes))
	}
	byShape := map[string]CompressionShape{}
	for _, r := range s.Shapes {
		byShape[r.Shape] = r
	}
	wantEnc := map[string]string{
		"distinct": "raw", "dict8": "dict", "sorted-for": "for", "runny-rle": "rle",
	}
	dense := int64(rows) * 8
	for shape, enc := range wantEnc {
		r, ok := byShape[shape]
		if !ok {
			t.Fatalf("shape %q missing", shape)
		}
		if r.Encoding != enc {
			t.Errorf("%s: encoding %q, want %q", shape, r.Encoding, enc)
		}
		if r.DeviceH2DBytes < dense {
			t.Errorf("%s: uncompressed device scan shipped %d bytes, want >= dense %d",
				shape, r.DeviceH2DBytes, dense)
		}
		// The cold compressed scan ships exactly the marshaled images.
		if r.DeviceCompH2DBytes != r.CompressedBytes {
			t.Errorf("%s: compressed device scan shipped %d bytes, want the images (%d)",
				shape, r.DeviceCompH2DBytes, r.CompressedBytes)
		}
		// The warm rescan is fully cache-resident: zero bus bytes, one hit
		// per fragment.
		if r.WarmCompH2DBytes != 0 {
			t.Errorf("%s: warm compressed rescan shipped %d bytes, want 0", shape, r.WarmCompH2DBytes)
		}
		if r.WarmHits != frags {
			t.Errorf("%s: warm rescan scored %d hits, want %d", shape, r.WarmHits, frags)
		}
		if shape == "distinct" {
			if r.Ratio > 1.0 {
				t.Errorf("distinct: ratio %.2f, want <= 1 (incompressible)", r.Ratio)
			}
			continue
		}
		// Compressible shapes: the ratio is real, the bus moves fewer
		// bytes, and the cold compressed device scan beats the
		// uncompressed one despite paying the decode kernel — the
		// transfer-bound win the tentpole is after.
		if r.Ratio < 2 {
			t.Errorf("%s: ratio %.2f, want >= 2", shape, r.Ratio)
		}
		if r.DeviceCompH2DBytes >= r.DeviceH2DBytes {
			t.Errorf("%s: compressed scan shipped %d bytes, uncompressed %d — no bus saving",
				shape, r.DeviceCompH2DBytes, r.DeviceH2DBytes)
		}
		if r.DeviceCompNs >= r.DeviceNs {
			t.Errorf("%s: compressed device scan %.0fns, uncompressed %.0fns — no speedup",
				shape, r.DeviceCompNs, r.DeviceNs)
		}
		if r.HostCompNs >= r.HostNs {
			t.Errorf("%s: compressed host scan %.0fns, dense %.0fns — no host saving",
				shape, r.HostCompNs, r.HostNs)
		}
	}
}
