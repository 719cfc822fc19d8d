package exec

import (
	"math"
	"math/rand"
	"testing"

	"hybridstore/internal/compress"
	"hybridstore/internal/obs"
	"hybridstore/internal/stats"
)

// zonedRawPieces builds raw pieces with sealed per-piece zones so the
// shared scan exercises per-predicate pruning.
func zonedRawPieces(vals []float64, np int) []Piece {
	pieces := rawPieces(encodeF64(vals), len(vals), np)
	for i := range pieces {
		z := stats.NewZone()
		for r := pieces[i].Rows.Begin; r < pieces[i].Rows.End; r++ {
			z.ObserveFloat64(vals[r])
		}
		pieces[i].Zone = z
	}
	return pieces
}

// TestSharedScanMatchesSolo asserts the core contract: every predicate's
// result from one shared pass is bit-identical to its solo fused scan,
// across predicate shapes, zone pruning, and compressed pieces.
func TestSharedScanMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 4096
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Floor(rng.Float64()*1000) / 4 // includes fractional values
	}
	preds := []Pred{
		Lt(125),
		Gt(200),
		Between(50, 100),
		Eq(vals[17]),
		Between(-10, -5), // fully pruned by every zone
		Lt(250),          // same shape, different bound
	}

	t.Run("raw+zones", func(t *testing.T) {
		pieces := zonedRawPieces(vals, 8)
		res, err := SumFloat64WhereMulti(Single(), pieces, preds)
		if err != nil {
			t.Fatal(err)
		}
		for k, p := range preds {
			ws, wn, err := SumFloat64Where(Single(), pieces, p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res[k].Sum) != math.Float64bits(ws) || res[k].Count != wn {
				t.Fatalf("pred %d (%v): shared (%v, %d) != solo (%v, %d)", k, p, res[k].Sum, res[k].Count, ws, wn)
			}
		}
	})

	t.Run("mixed-compressed", func(t *testing.T) {
		// Half the pieces raw, half sealed as dictionary images over a
		// small value domain (bit-exact in the compressed domain).
		ivals := make([]float64, n)
		for i := range ivals {
			ivals[i] = math.Floor(rng.Float64() * 100)
		}
		raw := zonedRawPieces(ivals, 8)
		comp := compPieces(t, compress.Dict, encodeF64(ivals), n, 8)
		mixed := make([]Piece, 0, 8)
		for i := range raw {
			if i%2 == 0 {
				mixed = append(mixed, raw[i])
			} else {
				mixed = append(mixed, comp[i])
			}
		}
		res, err := SumFloat64WhereMulti(Single(), mixed, preds)
		if err != nil {
			t.Fatal(err)
		}
		for k, p := range preds {
			ws, wn, err := SumFloat64Where(Single(), mixed, p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res[k].Sum) != math.Float64bits(ws) || res[k].Count != wn {
				t.Fatalf("pred %d (%v): shared (%v, %d) != solo (%v, %d)", k, p, res[k].Sum, res[k].Count, ws, wn)
			}
		}
	})

	t.Run("parallel-policies-integer-data", func(t *testing.T) {
		ivals := make([]float64, n)
		for i := range ivals {
			ivals[i] = math.Floor(rng.Float64() * 100)
		}
		pieces := zonedRawPieces(ivals, 8)
		for _, cfg := range []Config{Single(), MultiN(4), Morsel()} {
			res, err := SumFloat64WhereMulti(cfg, pieces, preds)
			if err != nil {
				t.Fatal(err)
			}
			for k, p := range preds {
				ws, wn, err := SumFloat64Where(cfg, pieces, p)
				if err != nil {
					t.Fatal(err)
				}
				if res[k].Sum != ws || res[k].Count != wn {
					t.Fatalf("policy %v pred %d: shared (%v, %d) != solo (%v, %d)", cfg.Policy, k, res[k].Sum, res[k].Count, ws, wn)
				}
			}
		}
	})
}

// TestSharedScanDegenerate covers the 0- and 1-predicate fast paths.
func TestSharedScanDegenerate(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	pieces := rawPieces(encodeF64(vals), len(vals), 2)

	res, err := SumFloat64WhereMulti(Single(), pieces, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty preds: %v %v", res, err)
	}

	res, err = SumFloat64WhereMulti(Single(), pieces, []Pred{Gt(4)})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Sum != 5+6+7+8 || res[0].Count != 4 {
		t.Fatalf("single pred: got (%v, %d)", res[0].Sum, res[0].Count)
	}
}

// TestSharedScanAccounting asserts the sharing is visible in obs: one
// operator invocation per batch, saved passes counted, and the
// saved-bytes counter advancing when predicates overlap on the same
// pieces.
func TestSharedScanAccounting(t *testing.T) {
	obs.Reset()
	defer obs.Reset()
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(i)
	}
	pieces := zonedRawPieces(vals, 4)
	preds := []Pred{Lt(2000), Gt(-1), Between(0, 5000)}
	if _, err := SumFloat64WhereMulti(Single(), pieces, preds); err != nil {
		t.Fatal(err)
	}
	s := obs.TakeSnapshot()
	if got := s.Counter("exec.sharedsumwhere.single-threaded.ops"); got != 1 {
		t.Fatalf("shared ops = %d, want 1", got)
	}
	if got := s.Counter("exec.sharedscan.preds"); got != 3 {
		t.Fatalf("shared preds = %d, want 3", got)
	}
	if got := s.Counter("exec.sharedscan.saved_passes"); got != 2 {
		t.Fatalf("saved passes = %d, want 2", got)
	}
	// All three predicates admit all four pieces: 3×8 KiB streamed once,
	// 2×8 KiB saved.
	if got := s.Counter("exec.sharedscan.saved_bytes_total"); got != 2*1024*8 {
		t.Fatalf("saved bytes = %d, want %d", got, 2*1024*8)
	}
}
