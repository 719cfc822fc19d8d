package figures

import (
	"testing"
	"time"
)

// TestServingSweep is the serving-layer acceptance gate: at a 32-client
// burst over warm device-cached data, the batching front end must beat
// the solo front end on wall-clock QPS, and every leg must report a
// per-class p99. Real wall-clock measurement on shared CI hardware is
// noisy, so the gate demands a conservative 1.2x (the published panel
// typically shows well above 1.5x) and allows one retry.
func TestServingSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("serving sweep measures wall-clock legs; skipped in -short")
	}
	const minSpeedup = 1.2
	var s *ServingSweep
	for attempt := 0; attempt < 2; attempt++ {
		var err error
		s, err = MeasureServing(4096, []int{1, 32}, 800*time.Millisecond, "")
		if err != nil {
			t.Fatal(err)
		}
		if s.Speedup(32) >= minSpeedup {
			break
		}
		t.Logf("attempt %d: speedup at 32 clients %.2fx < %.1fx, retrying", attempt+1, s.Speedup(32), minSpeedup)
	}
	if got := s.Speedup(32); got < minSpeedup {
		t.Errorf("batched front end %.2fx vs unbatched at 32 clients, want >= %.1fx\n%s", got, minSpeedup, s.Tables()[0].Text())
	}
	for _, leg := range s.Legs {
		if leg.Errors != 0 {
			t.Errorf("leg c=%d batched=%v had %d errors", leg.Concurrency, leg.Batched, leg.Errors)
		}
		if len(leg.Classes) != 3 {
			t.Fatalf("leg c=%d batched=%v has %d classes", leg.Concurrency, leg.Batched, len(leg.Classes))
		}
		for _, c := range leg.Classes {
			if c.Ops > 0 && c.P99us <= 0 {
				t.Errorf("leg c=%d batched=%v class %s: %d ops but p99 %.1fus",
					leg.Concurrency, leg.Batched, c.Name, c.Ops, c.P99us)
			}
		}
	}
	golden(t, "serving.txt", skeleton(s.Tables()))
}
