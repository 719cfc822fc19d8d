package exec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"hybridstore/internal/compress"
	"hybridstore/internal/layout"
)

// encodeF64 and encodeI64 build little-endian column images (int64
// ones are group keys).
func encodeF64(vals []float64) []byte {
	out := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func encodeI64(vals []int64) []byte {
	out := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

// rawPieces splits an image into np pieces of dense raw vectors.
func rawPieces(image []byte, n, np int) []Piece {
	var out []Piece
	per := (n + np - 1) / np
	for begin := 0; begin < n; begin += per {
		end := begin + per
		if end > n {
			end = n
		}
		out = append(out, Piece{
			Rows: layout.RowRange{Begin: uint64(begin), End: uint64(end)},
			Vec: layout.ColVector{Data: image, Base: begin * 8, Stride: 8, Size: 8,
				Len: end - begin},
		})
	}
	return out
}

// compPieces builds the same split with each slice sealed under enc.
func compPieces(t *testing.T, enc compress.Encoding, image []byte, n, np int) []Piece {
	t.Helper()
	var out []Piece
	per := (n + np - 1) / np
	for begin := 0; begin < n; begin += per {
		end := begin + per
		if end > n {
			end = n
		}
		col, err := compress.CompressAs(enc, image[begin*8:end*8], end-begin, 8)
		if err != nil {
			t.Fatalf("CompressAs(%v): %v", enc, err)
		}
		out = append(out, Piece{
			Rows: layout.RowRange{Begin: uint64(begin), End: uint64(end)},
			Vec:  layout.ColVector{Stride: 8, Size: 8, Len: end - begin},
			Comp: col,
		})
	}
	return out
}

// floatShape generates a float64 column suited to the encoding; NaNs are
// mixed into the encodings that can hold arbitrary doubles.
func floatShape(rng *rand.Rand, enc compress.Encoding, n int) []float64 {
	vals := make([]float64, n)
	switch enc {
	case compress.RLE:
		v := rng.Float64() * 100
		for i := range vals {
			if rng.Intn(7) == 0 {
				if rng.Intn(16) == 0 {
					v = math.NaN()
				} else {
					v = rng.Float64() * 100
				}
			}
			vals[i] = v
		}
	case compress.Dict:
		card := 1 + rng.Intn(16)
		dict := make([]float64, card)
		for i := range dict {
			dict[i] = rng.Float64() * 100
		}
		if card > 1 && rng.Intn(4) == 0 {
			dict[0] = math.NaN()
		}
		for i := range vals {
			vals[i] = dict[rng.Intn(card)]
		}
	case compress.FOR:
		// FOR works on the 8-byte bit patterns: neighbors within a few
		// thousand ULPs of a base keep the delta span under 2^32.
		base := 1 + rng.Float64()*100
		bits := math.Float64bits(base)
		for i := range vals {
			vals[i] = math.Float64frombits(bits + uint64(rng.Intn(1<<16)))
		}
	default: // Raw
		for i := range vals {
			if rng.Intn(32) == 0 {
				vals[i] = math.NaN()
			} else {
				vals[i] = rng.NormFloat64() * 50
			}
		}
	}
	return vals
}

// randPredF64 draws a predicate whose bounds straddle the data.
func randCompPredF64(rng *rand.Rand, vals []float64) Pred {
	pick := func() float64 {
		v := vals[rng.Intn(len(vals))]
		if math.IsNaN(v) {
			return 0
		}
		return v + rng.NormFloat64()
	}
	lo, hi := pick(), pick()
	if lo > hi {
		lo, hi = hi, lo
	}
	switch Op(rng.Intn(4)) {
	case OpEQ:
		return Eq(vals[rng.Intn(len(vals))])
	case OpLT:
		return Lt(hi)
	case OpGT:
		return Gt(lo)
	default:
		return Between(lo, hi)
	}
}

// TestCompressedOpsMatchDecompressed is the compressed-domain equivalence
// property: for every encoding, over randomized shapes and predicates,
// the compressed-domain operators return results bit-identical to
// decompressing and running the dense operators.
func TestCompressedOpsMatchDecompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	encs := []compress.Encoding{compress.Raw, compress.RLE, compress.Dict, compress.FOR}
	cfg := Single()
	for _, enc := range encs {
		for round := 0; round < 40; round++ {
			n := 1 + rng.Intn(500)
			np := 1 + rng.Intn(3)

			// float64 column.
			fvals := floatShape(rng, enc, n)
			fimg := encodeF64(fvals)
			fraw := rawPieces(fimg, n, np)
			fcomp := compPieces(t, enc, fimg, n, np)
			fp := randCompPredF64(rng, fvals)

			wantSum, wantN, err := SumFloat64Where(cfg, fraw, fp)
			if err != nil {
				t.Fatalf("%v: baseline SumFloat64Where: %v", enc, err)
			}
			gotSum, gotN, err := SumFloat64Where(cfg, fcomp, fp)
			if err != nil {
				t.Fatalf("%v: compressed SumFloat64Where: %v", enc, err)
			}
			if math.Float64bits(wantSum) != math.Float64bits(gotSum) || wantN != gotN {
				t.Fatalf("%v round %d: SumFloat64Where(%v) = (%v, %d), want (%v, %d)",
					enc, round, fp, gotSum, gotN, wantSum, wantN)
			}
			// The unfiltered sum is the same body with the test off: every
			// element added in storage order, a NaN included.
			wantUS, err := SumFloat64(cfg, fraw)
			if err != nil {
				t.Fatal(err)
			}
			gotUS, err := SumFloat64(cfg, fcomp)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(wantUS) != math.Float64bits(gotUS) {
				t.Fatalf("%v: SumFloat64 = %v (%x), want %v (%x)",
					enc, gotUS, math.Float64bits(gotUS), wantUS, math.Float64bits(wantUS))
			}
		}
	}
}

// TestScanCompressedPiecesBitIdentical runs a column whose sum depends
// on the fold order (v × k ≠ adding v k times) through Config.Scan as raw
// and as compressed pieces: every kind answers the same bits under every
// encoding that holds the column, sum ≡ sum_where(−Inf, +Inf), and the
// grouped kinds read sealed images — values, keys or both.
func TestScanCompressedPiecesBitIdentical(t *testing.T) {
	const n, np = 2048, 2
	vals := make([]float64, n)
	keys := make([]int64, n)
	for i := range vals {
		switch j := i % 1024; {
		case j < 300:
			vals[i] = 0.1
		case j < 600:
			vals[i] = 1e16
		default:
			vals[i] = 1
		}
		keys[i] = int64(i / 100 % 5)
	}
	vimg, kimg := encodeF64(vals), encodeI64(keys)
	rawKeys := rawPieces(kimg, n, np)
	all := Between(math.Inf(-1), math.Inf(1))
	plans := []Plan{
		{Op: KindSum},
		{Op: KindSumWhere, Pred: all, HasPred: true},
		{Op: KindGroupSum},
		{Op: KindGroupSumWhere, Pred: all, HasPred: true},
	}
	scan := func(p Plan, keys, vals []Piece) Result {
		t.Helper()
		if !p.Op.Grouped() {
			keys = nil
		}
		res, err := Single().Scan(Scan{Plan: p, Keys: keys, Vals: vals})
		if err != nil {
			t.Fatalf("%s: %v", p.Op, err)
		}
		return res
	}
	same := func(a, b Result) bool {
		if math.Float64bits(a.Sum) != math.Float64bits(b.Sum) || len(a.Groups) != len(b.Groups) {
			return false
		}
		for i := range a.Groups {
			if a.Groups[i].Key != b.Groups[i].Key || a.Groups[i].Count != b.Groups[i].Count ||
				math.Float64bits(a.Groups[i].Sum) != math.Float64bits(b.Groups[i].Sum) {
				return false
			}
		}
		return true
	}
	want := make([]Result, len(plans))
	for i, p := range plans {
		want[i] = scan(p, rawKeys, rawPieces(vimg, n, np))
	}
	if want[0].Sum != want[1].Sum || want[1].Count != n || !same(Result{Groups: want[2].Groups}, Result{Groups: want[3].Groups}) {
		t.Fatalf("raw: sum %v vs sum_where %v (count %d); groups %v vs %v", want[0].Sum, want[1].Sum, want[1].Count, want[2].Groups, want[3].Groups)
	}
	for _, enc := range []compress.Encoding{compress.Raw, compress.RLE, compress.Dict} {
		for _, sealedKeys := range []bool{false, true} {
			ks := rawKeys
			if sealedKeys {
				ks = compPieces(t, enc, kimg, n, np)
			}
			for i, p := range plans {
				if got := scan(p, ks, compPieces(t, enc, vimg, n, np)); !same(got, want[i]) {
					t.Errorf("%v keys sealed=%v %s: (%x, %v), raw pieces answer (%x, %v)", enc, sealedKeys, p.Op,
						math.Float64bits(got.Sum), got.Groups, math.Float64bits(want[i].Sum), want[i].Groups)
				}
			}
		}
	}
	// A NaN is an element like any other without a predicate and matches
	// none: sum and group_sum carry it, the filtered kinds skip it.
	vals[7] = math.NaN()
	vimg = encodeF64(vals)
	for _, mk := range []func() []Piece{
		func() []Piece { return rawPieces(vimg, n, np) },
		func() []Piece { return compPieces(t, compress.RLE, vimg, n, np) },
	} {
		if got := scan(plans[0], nil, mk()); !math.IsNaN(got.Sum) {
			t.Errorf("sum over a NaN = %v", got.Sum)
		}
		if got := scan(plans[1], nil, mk()); math.IsNaN(got.Sum) || got.Count != n-1 {
			t.Errorf("sum_where over a NaN = %v, %d", got.Sum, got.Count)
		}
		if got := scan(plans[2], rawKeys, mk()); !math.IsNaN(got.Groups[0].Sum) || got.Groups[0].Count != want[2].Groups[0].Count {
			t.Errorf("group_sum over a NaN: group 0 = %+v", got.Groups[0])
		}
		if got := scan(plans[3], rawKeys, mk()); math.IsNaN(got.Groups[0].Sum) || got.Groups[0].Count != want[3].Groups[0].Count-1 {
			t.Errorf("group_sum_where over a NaN: group 0 = %+v", got.Groups[0])
		}
	}
}

// TestCompressedPoliciesAgree checks the multi-threaded and morsel-driven
// policies return the same counts (and sums within reassociation) as the
// sequential compressed path.
func TestCompressedPoliciesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := floatShape(rng, compress.Dict, 4096)
	// Dict shapes here carry no NaN by construction with this seed; make
	// sure (NaN would poison sums and break the comparison below).
	for i, v := range vals {
		if math.IsNaN(v) {
			vals[i] = 0
		}
	}
	img := encodeF64(vals)
	pieces := compPieces(t, compress.Dict, img, len(vals), 8)
	p := Between(10.0, 80.0)
	seqSum, seqN, err := SumFloat64Where(Single(), pieces, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{MultiN(4), Morsel()} {
		sum, n, err := SumFloat64Where(cfg, pieces, p)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Policy, err)
		}
		if n != seqN {
			t.Fatalf("%v: count %d, want %d", cfg.Policy, n, seqN)
		}
		if math.Abs(sum-seqSum) > 1e-6*math.Abs(seqSum)+1e-9 {
			t.Fatalf("%v: sum %v, want %v", cfg.Policy, sum, seqSum)
		}
	}
}

// TestSelectRejectsCompressed pins the guard: operators without a
// compressed-domain path refuse compressed pieces instead of crashing.
func TestSelectRejectsCompressed(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	img := encodeF64(vals)
	pieces := compPieces(t, compress.Raw, img, len(vals), 1)
	if _, err := SelectFloat64Pred(Single(), pieces, Gt(1.0)); err == nil {
		t.Fatal("SelectFloat64Pred accepted a compressed piece")
	}
}
