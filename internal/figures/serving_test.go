package figures

import (
	"testing"
	"time"
)

// TestServingSweep is the serving-layer acceptance gate: at a 32-client
// burst over warm device-cached data the batching front end must share
// storage passes — its scan cohorts carried more plans than they ran
// passes, a count, where the wall-clock ratio the panel prints is noise
// on shared hardware — and every leg must report a per-class p99.
func TestServingSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("serving sweep measures wall-clock legs; skipped in -short")
	}
	s, err := MeasureServing(4096, []int{1, 32}, 800*time.Millisecond, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range s.Legs {
		if leg.Concurrency == 32 && leg.Batched && leg.Slots <= leg.Passes {
			t.Errorf("32 batched clients shared no pass: %d plans in %d passes\n%s", leg.Slots, leg.Passes, s.Tables()[0].Text())
		}
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
