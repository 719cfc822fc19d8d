package exec

import (
	"math"
	"math/rand"
	"testing"

	"hybridstore/internal/compress"
	"hybridstore/internal/exec/pool"
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

// cohort runs one host scan of kind op carrying every predicate.
func cohort(t *testing.T, cfg Config, op Kind, keys, vals []Piece, preds []Pred) []Result {
	t.Helper()
	out := make([]Result, len(preds))
	if err := cfg.Scan(Scan{Plan: Plan{Op: op}, Preds: preds, Keys: keys, Vals: vals}, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameResultBits compares two results bit for bit, group tables included.
func sameResultBits(a, b Result) bool {
	if math.Float64bits(a.Sum) != math.Float64bits(b.Sum) || a.Count != b.Count || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i, g := range a.Groups {
		if h := b.Groups[i]; g.Key != h.Key || g.Count != h.Count || math.Float64bits(g.Sum) != math.Float64bits(h.Sum) {
			return false
		}
	}
	return true
}

// TestSharedScanMatchesSolo asserts the core contract: every predicate's
// result from one cohort scan is bit-identical to its solo fused scan,
// across predicate shapes, zone pruning, compressed pieces and the three
// host policies.
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
		Between(2, 1),    // matches nothing
	}
	// matches holds a cohort's results to the solo scans of its predicates.
	matches := func(t *testing.T, cfg Config, pieces []Piece) {
		t.Helper()
		res := cohort(t, cfg, KindSumWhere, nil, pieces, preds)
		for k, p := range preds {
			ws, wn, err := SumFloat64Where(cfg, pieces, p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res[k].Sum) != math.Float64bits(ws) || res[k].Count != wn {
				t.Fatalf("policy %v pred %d (%v): shared (%v, %d) != solo (%v, %d)", cfg.Policy, k, p, res[k].Sum, res[k].Count, ws, wn)
			}
		}
	}

	t.Run("raw+zones", func(t *testing.T) { matches(t, Single(), zonedRawPieces(vals, 8)) })

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
		matches(t, Single(), mixed)
	})

	// The parallel policies on fractional values, whose sums depend on
	// the fold order: the cohort folds each predicate as its solo scan
	// does, so the bits agree. Morsels of 128 rows on four workers split
	// the pieces even on a one-CPU machine.
	t.Run("parallel-policies-integer-data", func(t *testing.T) {
		pool.SetMorselSize(128)
		pool.SetWorkers(4)
		defer func() { pool.SetMorselSize(0); pool.SetWorkers(0) }()
		fvals := make([]float64, n)
		for i := range fvals {
			fvals[i] = rng.Float64() * 1000
		}
		pieces := zonedRawPieces(fvals, 8)
		for _, cfg := range []Config{Single(), MultiN(4), Morsel()} {
			matches(t, cfg, pieces)
			keys, gvals, _, valF := groupScanFixture(4, 512)
			for i := range valF {
				valF[i] += 0.1 * float64(i%7)
			}
			img := encodeF64(valF)
			for i := range gvals {
				gvals[i].Vec.Data = img
			}
			gpreds := []Pred{Between(0, 150.5), Gt(120.3), Lt(-1)}
			res := cohort(t, cfg, KindGroupSumWhere, keys, gvals, gpreds)
			for k, p := range gpreds {
				solo, err := GroupSumFloat64Where(cfg, keys, gvals, p)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResultBits(res[k], Result{Groups: solo}) {
					t.Fatalf("policy %v grouped pred %d: shared %+v != solo %+v", cfg.Policy, k, res[k].Groups, solo)
				}
			}
		}
	})
}

// TestSharedScanDegenerate covers the cohort of no predicates, the
// cohort of one, and a result slice that does not match the predicates.
func TestSharedScanDegenerate(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	pieces := rawPieces(encodeF64(vals), len(vals), 2)

	if res := cohort(t, Single(), KindSumWhere, nil, pieces, []Pred{}); len(res) != 0 {
		t.Fatalf("empty preds: %v", res)
	}
	res := cohort(t, Single(), KindSumWhere, nil, pieces, []Pred{Gt(4)})
	if res[0].Sum != 5+6+7+8 || res[0].Count != 4 {
		t.Fatalf("single pred: got (%v, %d)", res[0].Sum, res[0].Count)
	}
	sc := Scan{Plan: Plan{Op: KindSumWhere}, Preds: []Pred{Gt(4), Lt(2)}, Vals: pieces}
	if err := Single().Scan(sc, make([]Result, 1)); err == nil {
		t.Fatal("two predicates into one result slot accepted")
	}
}

// TestSharedScanAccounting asserts the sharing is visible in obs: one
// operator invocation per cohort, saved passes counted, and the
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
	cohort(t, Single(), KindSumWhere, nil, pieces, preds)
	s := obs.TakeSnapshot()
	if got := s.Counter("exec.sumwhere.single-threaded.ops"); got != 1 {
		t.Fatalf("sum_where ops = %d, want 1", got)
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
