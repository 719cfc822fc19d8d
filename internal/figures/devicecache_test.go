package figures

import "testing"

// TestDeviceCacheSweep is the acceptance check for the devicecache
// panel: warm rounds cost zero H2D bytes, a write+rescan round re-ships
// exactly one fragment, and the uncached baseline pays the full column
// every round. Answers are cross-checked against the host shadow inside
// MeasureDeviceCache, so a successful return is the exactness proof.
func TestDeviceCacheSweep(t *testing.T) {
	const (
		rows  = 16_384
		frags = 16
		warm  = 3
		write = 2
	)
	s, err := MeasureDeviceCache(rows, frags, warm, write)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rounds) != 1+warm+write {
		t.Fatalf("rounds = %d, want %d", len(s.Rounds), 1+warm+write)
	}
	colBytes := int64(rows) * 8
	fragBytes := colBytes / frags
	for _, r := range s.Rounds {
		if r.BaselineH2DBytes != colBytes {
			t.Errorf("round %d (%s): baseline shipped %d bytes, want the whole column %d",
				r.Round, r.Kind, r.BaselineH2DBytes, colBytes)
		}
		switch r.Kind {
		case "cold":
			if r.H2DBytes != colBytes || r.Misses != frags {
				t.Errorf("cold round: %d bytes / %d misses, want %d / %d", r.H2DBytes, r.Misses, colBytes, frags)
			}
		case "warm":
			if r.H2DBytes != 0 {
				t.Errorf("warm round %d shipped %d bytes, want 0", r.Round, r.H2DBytes)
			}
			if r.Hits != frags {
				t.Errorf("warm round %d: %d hits, want %d", r.Round, r.Hits, frags)
			}
		case "write+rescan":
			if r.H2DBytes != fragBytes {
				t.Errorf("write round %d re-shipped %d bytes, want exactly one fragment (%d)",
					r.Round, r.H2DBytes, fragBytes)
			}
			if r.Misses != 1 || r.Hits != frags-1 {
				t.Errorf("write round %d: %d misses / %d hits, want 1 / %d", r.Round, r.Misses, r.Hits, frags-1)
			}
		}
	}
	if s.TotalH2DBytes >= s.TotalBaselineH2DBytes {
		t.Errorf("cache saved nothing: %d vs baseline %d bytes", s.TotalH2DBytes, s.TotalBaselineH2DBytes)
	}
}
