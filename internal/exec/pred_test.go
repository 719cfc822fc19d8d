package exec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridstore/internal/compress"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// randPredF64 draws a predicate over roughly the buildLayout price
// domain [0.25, 100.25], including out-of-range and empty shapes.
func randPredF64(r *rand.Rand) Pred {
	switch r.Intn(5) {
	case 0:
		return Eq(float64(r.Intn(110)) + 0.25)
	case 1:
		return Lt(r.Float64() * 120)
	case 2:
		return Gt(r.Float64() * 120)
	case 3:
		lo := r.Float64() * 110
		return Between(lo, lo+r.Float64()*20)
	default:
		hi := r.Float64() * 100
		return Between(hi+1, hi) // empty interval
	}
}

// TestPredMatchAdmitsConsistency is the sargability invariant: whenever
// any value in [min, max] matches, the zone test must admit the range
// (the converse may not hold — admission is allowed to be conservative).
func TestPredMatchAdmitsConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		p := randPredF64(r)
		min := r.Float64() * 100
		max := min + r.Float64()*10
		admit := admits(p, min, max)
		for j := 0; j < 16; j++ {
			x := min + r.Float64()*(max-min)
			if p.Match(x) && !admit {
				t.Fatalf("%v matched %v inside rejected zone [%v,%v]", p, x, min, max)
			}
		}
		// Endpoints are part of the zone.
		if (p.Match(min) || p.Match(max)) && !admit {
			t.Fatalf("%v matched an endpoint of rejected zone [%v,%v]", p, min, max)
		}
	}
}

// TestClosedIntervalEquivalence pins the closed-interval normalization
// the device kernel consumes to Match exactly, including the strict
// bounds stepping to adjacent representable values.
func TestClosedIntervalEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 5000; i++ {
		p := randPredF64(r)
		lo, hi, ok := p.Closed()
		probes := []float64{p.Lo, p.Hi,
			math.Nextafter(p.Lo, math.Inf(-1)), math.Nextafter(p.Lo, math.Inf(1)),
			math.Nextafter(p.Hi, math.Inf(-1)), math.Nextafter(p.Hi, math.Inf(1)),
			r.Float64() * 120,
		}
		for _, x := range probes {
			closed := ok && lo <= x && x <= hi
			if closed != p.Match(x) {
				t.Fatalf("%v: closed [%v,%v] ok=%v disagrees with Match at %v", p, lo, hi, ok, x)
			}
		}
	}
}

// checkSumWhereMatchesLoop checks the fused sum/count operator against
// a serial loop over valueAt under every policy. tol is the allowed
// |sum - want| (parallel policies reassociate float sums).
func checkSumWhereMatchesLoop(t *testing.T, pieces []Piece, n int, valueAt func(i int) float64, preds []Pred, tol float64) {
	t.Helper()
	for _, cfg := range []Config{Single(), {Policy: MultiThreaded}, MultiN(3), Morsel()} {
		for _, p := range preds {
			var wantSum float64
			var wantN int64
			for i := 0; i < n; i++ {
				if x := valueAt(i); p.Match(x) {
					wantSum += x
					wantN++
				}
			}
			sum, cnt, err := SumFloat64Where(cfg, pieces, p)
			if err != nil {
				t.Fatal(err)
			}
			if d := sum - wantSum; cnt != wantN || d > tol || -d > tol {
				t.Fatalf("%v %v: fused (%v,%d), want (%v,%d)", cfg.Policy, p, sum, cnt, wantSum, wantN)
			}
		}
	}
}

// TestFusedWhereMatchesGenericAllPolicies checks the specialized fused
// operators against a serial loop and the closure-based baseline over
// both strided (NSM) and contiguous (thin DSM) views under every policy.
func TestFusedWhereMatchesGenericAllPolicies(t *testing.T) {
	const n = 700
	for _, vertical := range []bool{false, true} {
		l, _ := buildLayout(t, layout.NSM, vertical, n)
		defer l.Free()
		pieces, err := ColumnView(l, 3, n)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(21))
		preds := make([]Pred, 12)
		for i := range preds {
			preds[i] = randPredF64(r)
		}
		checkSumWhereMatchesLoop(t, pieces, n, func(i int) float64 { return float64(i%101) + 0.25 }, preds, 1e-9)
		for _, p := range preds {
			wantN, err := CountFloat64(Morsel(), pieces, p.Match)
			if err != nil {
				t.Fatal(err)
			}
			if _, gotN, err := SumFloat64Where(Morsel(), pieces, p); err != nil || gotN != wantN {
				t.Fatalf("vertical=%v %v: SumFloat64Where counted %d, %v; closure count %d", vertical, p, gotN, err, wantN)
			}
		}
	}
}

// TestSelectPredMatchesClosure pins the specialized selection to a
// serial closure loop bit-for-bit and exercises SelVec's pooled lifecycle.
func TestSelectPredMatchesClosure(t *testing.T) {
	const n = 600
	l, _ := buildLayout(t, layout.NSM, true, n)
	defer l.Free()
	pieces, err := ColumnView(l, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	for _, cfg := range []Config{Single(), Config{Policy: MultiThreaded}, Morsel()} {
		for i := 0; i < 10; i++ {
			p := randPredF64(r)
			sv, err := SelectFloat64Pred(cfg, pieces, p)
			if err != nil {
				t.Fatal(err)
			}
			want := matchLoop(pieces, p)
			got := sv.Positions()
			if len(got) != len(want) {
				t.Fatalf("%v %v: %d positions, want %d", cfg.Policy, p, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%v: position[%d] = %d, want %d", p, j, got[j], want[j])
				}
			}
			sv.Release()
			sv.Release() // idempotent
			if sv.Positions() != nil {
				t.Fatal("released SelVec still exposes positions")
			}
		}
	}
}

// TestPruneSelectionMatchesClosureSelect pins the specialized
// selection kernel to a serial closure loop bit-for-bit: position
// lists are integers, so pruned and unpruned executions must agree
// exactly, over the zone-carrying chunked column views of a row-wise
// and a column-wise layout.
func TestPruneSelectionMatchesClosureSelect(t *testing.T) {
	const n = 500
	for _, lin := range []layout.Linearization{layout.NSM, layout.DSM} {
		lin := lin
		t.Run(lin.String(), func(t *testing.T) {
			l, err := layout.Horizontal(host(), "item", workload.ItemSchema(), n, 64, lin)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Free()
			for i := uint64(0); i < n; i++ {
				f, err := l.FragmentAt(i, workload.ItemPriceCol)
				if err == nil {
					err = f.AppendTuplet(workload.Item(i))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			pieces, err := ColumnView(l, workload.ItemPriceCol, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []Pred{
				Between(2, 3),
				Lt(1.5),
				Gt(4.25),
				Eq(workload.ItemPrice(123)),
				Between(20, 30),
			} {
				sv, err := SelectFloat64Pred(Single(), pieces, p)
				if err != nil {
					t.Fatalf("SelectFloat64Pred(%v): %v", p, err)
				}
				want := matchLoop(pieces, p)
				got := sv.Positions()
				if len(got) != len(want) {
					t.Fatalf("%v: %d positions, want %d", p, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v: position[%d] = %d, want %d", p, i, got[i], want[i])
					}
				}
				sv.Release()
			}
		})
	}
}

// zonedPrices returns the price pieces of an 800-row NSM layout in
// 100-row chunks with price(i) = i: monotone, so each chunk has a narrow
// zone. The layout is freed when the test ends.
func zonedPrices(t *testing.T) []Piece {
	t.Helper()
	const n = 800
	l, err := layout.Horizontal(host(), "chunks", itemSchema(), n, 100, layout.NSM)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Free)
	for i := uint64(0); i < n; i++ {
		for _, f := range l.Fragments() {
			if f.Rows().Contains(i) {
				f.AppendTuplet([]schema.Value{
					schema.IntValue(int64(i)), schema.Int32Value(0),
					schema.CharValue("x"), schema.FloatValue(float64(i)),
				})
			}
		}
	}
	pieces, err := ColumnView(l, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	return pieces
}

// TestPruneByZoneSkipsAndStaysExact attaches synthetic zones to pieces
// so some are provably match-free: results must equal the unpruned run
// and the counters must record the skips.
func TestPruneByZoneSkipsAndStaysExact(t *testing.T) {
	pieces := zonedPrices(t)
	if len(pieces) != 8 {
		t.Fatalf("pieces = %d, want 8", len(pieces))
	}
	for _, pc := range pieces {
		if pc.Zone == nil {
			t.Fatal("ColumnView did not attach fragment zones")
		}
	}
	p := Between(250, 349) // matches span chunks [200,300) and [300,400)
	_, kept, prunedBytes := pruneByZone(Single(), nil, pieces, p, new(zoneKept))
	if len(kept) != 2 || kept[0].Rows.Begin != 200 || kept[1].Rows.Begin != 300 {
		t.Fatalf("kept %d pieces starting at %v", len(kept), func() (b []uint64) {
			for _, k := range kept {
				b = append(b, k.Rows.Begin)
			}
			return
		}())
	}
	if prunedBytes != 6*100*8 {
		t.Fatalf("prunedBytes = %d, want %d", prunedBytes, 6*100*8)
	}
	sum, cnt, err := SumFloat64Where(Single(), pieces, p)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 250; i <= 349; i++ {
		want += float64(i)
	}
	if cnt != 100 || sum != want {
		t.Fatalf("pruned sum = (%v,%d), want (%v,100)", sum, cnt, want)
	}
	// All-survive case aliases the input (no allocation, no prune span).
	_, kept, prunedBytes = pruneByZone(Single(), nil, pieces, Gt(math.Inf(-1)), new(zoneKept))
	if len(kept) != len(pieces) || &kept[0] != &pieces[0] || prunedBytes != 0 {
		t.Fatal("all-survive prune did not alias the input")
	}
}

// A pruning scan pass allocates nothing: the prune span keeps its three
// counts and formats its detail only when a snapshot is taken, with the
// text fmt.Sprintf gave it.
func TestPruningScanAllocatesNoDetail(t *testing.T) {
	sc := Scan{Plan: Plan{Op: KindSumWhere, Pred: Between(250, 349)}, Vals: zonedPrices(t)}
	out := make([]Result, 1)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := scanSum(Single(), sc, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a pruning scanSum pass allocates %v objects, want 0", allocs)
	}
	spans := obs.TakeSnapshot().Spans
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == "exec.zonemap.prune" {
			if want := "pruned 6/8 pieces, 4800 bytes"; spans[i].Detail != want {
				t.Fatalf("prune span detail %q, want %q", spans[i].Detail, want)
			}
			return
		}
	}
	t.Fatal("no prune span recorded")
}

// TestWhereValidation covers the error paths of the fused operators.
func TestWhereValidation(t *testing.T) {
	l, _ := buildLayout(t, layout.NSM, false, 10)
	defer l.Free()
	pieces, err := ColumnView(l, 1, 10) // int32: 4-byte fields
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SumFloat64Where(Single(), pieces, Gt(0)); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("err = %v, want ErrBadColumn", err)
	}
	if _, err := SelectFloat64Pred(Single(), pieces, Gt(0)); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("err = %v, want ErrBadColumn", err)
	}
	sum, cnt, err := SumFloat64Where(Single(), nil, Gt(0))
	if err != nil || sum != 0 || cnt != 0 {
		t.Fatalf("empty view: (%v,%d,%v)", sum, cnt, err)
	}
}

// TestNormalize checks that Normalize canonicalizes equivalent
// spellings to identical values without changing the match set.
func TestNormalize(t *testing.T) {
	cases := []struct {
		in, want Pred
	}{
		{Between(7.0, 7.0), Eq(7.0)},                        // degenerate between is eq
		{Pred{Op: OpLT, Lo: 3, Hi: 9}, Lt(9.0)},             // unused lo zeroed
		{Pred{Op: OpGT, Lo: 4, Hi: 8}, Gt(4.0)},             // unused hi zeroed
		{Pred{Op: OpEQ, Lo: 5, Hi: 99}, Eq(5.0)},            // eq hi rewritten from lo
		{Between(math.Copysign(0, -1), 0.0), Eq(0.0)},       // -0..+0 collapses to eq(+0)
		{Pred{Op: OpLT, Hi: math.Copysign(0, -1)}, Lt(0.0)}, // -0 bound scrubbed
		{Between(1.0, 2.0), Between(1.0, 2.0)},              // proper ranges untouched
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}

	// NaN bounds: the eq collapse must not fire (NaN != NaN), and the
	// result stays degenerate / unmatchable like the input.
	nan := Normalize(Between(math.NaN(), math.NaN()))
	if nan.Op != OpBetween {
		t.Fatalf("NaN between collapsed to %v", nan.Op)
	}

	// Semantics: normalized and raw predicates match the same values.
	probes := []float64{-1, math.Copysign(0, -1), 0, 0.5, 1, 2, 3, 7, 9, math.Inf(1)}
	raws := []Pred{
		Between(7.0, 7.0), Between(math.Copysign(0, -1), 0),
		{Op: OpLT, Lo: 3, Hi: 9}, {Op: OpGT, Lo: 4, Hi: 8},
		Between(1.0, 2.0), Eq(0.0), Lt(0.0), Gt(7.0),
	}
	for _, p := range raws {
		n := Normalize(p)
		for _, x := range probes {
			if p.Match(x) != n.Match(x) {
				t.Errorf("Normalize(%+v) changed Match(%v): %v vs %v", p, x, p.Match(x), n.Match(x))
			}
		}
	}
}

// oldAdmits is the per-comparison zone rule Pred.admits replaced with
// the one closed-interval overlap test; kept here as its reference.
func oldAdmits(p Pred, min, max float64) bool {
	switch p.Op {
	case OpEQ:
		return min <= p.Lo && p.Lo <= max
	case OpLT:
		return min < p.Hi
	case OpGT:
		return max > p.Lo
	case OpBetween:
		return max >= p.Lo && min <= p.Hi
	default:
		return true
	}
}

// checkPredEdges holds the closed-interval kernels and the zone test to
// Pred.Match: every comparison at every pair of edge bounds, over a
// dense and a strided image of the edge values themselves. Sums compare
// by value unless both are NaN (+Inf and -Inf may both match).
func checkPredEdges(t *testing.T, edges []float64) {
	t.Helper()
	var preds []Pred
	for _, a := range edges {
		preds = append(preds, Eq(a), Lt(a), Gt(a))
		for _, b := range edges {
			preds = append(preds, Between(a, b))
		}
	}
	n := len(edges)
	for _, stride := range []int{8, 24} {
		img := make([]byte, n*stride)
		for i, v := range edges {
			binary.LittleEndian.PutUint64(img[i*stride:], math.Float64bits(v))
		}
		vec := layout.ColVector{Data: img, Stride: stride, Size: 8, Len: n}
		pieces := []Piece{{Rows: layout.RowRange{Begin: 100, End: 100 + uint64(n)}, Vec: vec}}
		for _, p := range preds {
			var wantSum float64
			var wantPos []uint64
			for i, v := range edges {
				if p.Match(v) {
					wantSum += v
					wantPos = append(wantPos, 100+uint64(i))
				}
			}
			sum, cnt, err := SumFloat64Where(Single(), pieces, p)
			if err != nil {
				t.Fatal(err)
			}
			if cnt != int64(len(wantPos)) || sum != wantSum && (sum == sum || wantSum == wantSum) {
				t.Fatalf("stride %d %v: fused (%v, %d), Match fold (%v, %d)", stride, p, sum, cnt, wantSum, len(wantPos))
			}
			lo, hi, ok := p.Closed()
			var pos []uint64
			if ok {
				pos = appendWhere(nil, 100, vec, 0, n, lo, hi)
			}
			if !slices.Equal(pos, wantPos) {
				t.Fatalf("stride %d %v: positions %v, Match selects %v", stride, p, pos, wantPos)
			}
			if !ok && len(wantPos) > 0 {
				t.Fatalf("%v has no closed form yet matches %v", p, wantPos)
			}
		}
	}
	// Zones [min, max] over every ordered pair of non-NaN edges.
	for _, p := range preds {
		_, _, ok := p.Closed()
		for _, min := range edges {
			for _, max := range edges {
				if min != min || max != max || min > max {
					continue
				}
				admit := admits(p, min, max)
				if ok && admit != oldAdmits(p, min, max) {
					t.Fatalf("%v over [%v, %v]: admits = %v, the per-comparison rule says %v", p, min, max, admit, !admit)
				}
				if !ok && admit {
					t.Fatalf("%v matches nothing yet admits [%v, %v]", p, min, max)
				}
				for _, x := range edges {
					if min <= x && x <= max && p.Match(x) && !admit {
						t.Fatalf("%v matched %v inside rejected zone [%v, %v]", p, x, min, max)
					}
				}
			}
		}
	}
}

// TestPredEdgeBounds is the edge table of the closed-interval kernels:
// NaN, ±Inf, ±0, adjacent doubles and inverted intervals answer exactly
// as Pred.Match does, dense and strided.
func TestPredEdgeBounds(t *testing.T) {
	negZero := math.Copysign(0, -1)
	checkPredEdges(t, []float64{
		math.NaN(), math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, negZero, 0,
		math.SmallestNonzeroFloat64, 1, math.Nextafter(1, 2), 2, math.MaxFloat64, math.Inf(1),
	})
}

// TestPredIsThePredicateOfCompress pins the one-type rule: an exec.Pred
// and a compress.Pred[float64] assign to each other without conversion,
// and so do their comparison enums.
func TestPredIsThePredicateOfCompress(t *testing.T) {
	var c compress.Pred[float64] = Between(1, 2)
	var p Pred = c
	var op compress.Op = OpBetween
	if p != Between(1, 2) || p.Op != op {
		t.Fatalf("round trip through compress.Pred[float64] = %+v", p)
	}
}

// matchLoop is the selection oracle: a serial walk of every piece's
// elements, keeping the global positions p matches.
func matchLoop(pieces []Piece, p Pred) []uint64 {
	var out []uint64
	for _, pc := range pieces {
		v := pc.Vec
		for i := 0; i < v.Len; i++ {
			if p.Match(f64(v.Data[v.Base+i*v.Stride:])) {
				out = append(out, pc.Rows.Begin+uint64(i))
			}
		}
	}
	return out
}

// selectPred is SelectFloat64Pred returning a private copy of the
// positions; the pooled vector goes back at once.
func selectPred(cfg Config, pieces []Piece, p Pred) ([]uint64, error) {
	sv, err := SelectFloat64Pred(cfg, pieces, p)
	if err != nil {
		return nil, err
	}
	defer sv.Release()
	return slices.Clone(sv.Positions()), nil
}
