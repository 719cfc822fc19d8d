package figures

import "testing"

// TestMeasureResultCache is the acceptance gate for the resultcache
// panel: repeat reads must clear a 5x p50 speedup, every leg must be
// bit-identical to uncached execution, the cache accounting must close
// (hits+misses == lookups), and the mixed leg must register stale
// entries — invalidation observed, not assumed.
func TestMeasureResultCache(t *testing.T) {
	s, err := MeasureResultCache(65536, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Legs) != 3 {
		t.Fatalf("want 3 legs, got %d", len(s.Legs))
	}
	byName := map[string]ResultCacheLeg{}
	for _, l := range s.Legs {
		byName[l.Name] = l
		if !l.BitIdentical {
			t.Errorf("leg %s: cached answers diverged from uncached execution", l.Name)
		}
		if l.Hits+l.Misses != l.Lookups {
			t.Errorf("leg %s: hits(%d)+misses(%d) != lookups(%d)", l.Name, l.Hits, l.Misses, l.Lookups)
		}
		if l.Lookups == 0 {
			t.Errorf("leg %s: no cache lookups recorded — path not accounted", l.Name)
		}
	}

	rh := byName["read-heavy"]
	if rh.Speedup < 5 {
		t.Errorf("read-heavy p50 speedup %.1fx below the 5x gate (cached %.0fns, uncached %.0fns)",
			rh.Speedup, rh.CachedP50Ns, rh.UncachedP50Ns)
	}
	if rh.Hits == 0 {
		t.Error("read-heavy leg never hit the cache")
	}

	mx := byName["mixed"]
	if mx.Stale == 0 {
		t.Error("mixed leg registered no stale entries: merges did not invalidate")
	}
	if mx.Hits == 0 {
		t.Error("mixed leg never hit between write bursts")
	}

	ws := byName["write-storm"]
	if ws.Hits != 0 {
		t.Errorf("write-storm leg reported %d hits: a churning table must never reuse", ws.Hits)
	}

	golden(t, "resultcache.txt", skeleton(s.Tables()))
}
