package exec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"hybridstore/internal/compress"
	"hybridstore/internal/layout"
)

// encodeF64 and encodeI64 build little-endian column images.
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

// intShape is floatShape for int64 columns, including the FOR width
// transition points (1-, 2- and 4-byte deltas).
func intShape(rng *rand.Rand, enc compress.Encoding, n int) []int64 {
	vals := make([]int64, n)
	switch enc {
	case compress.RLE:
		v := int64(rng.Intn(1000))
		for i := range vals {
			if rng.Intn(7) == 0 {
				v = int64(rng.Intn(1000))
			}
			vals[i] = v
		}
	case compress.Dict:
		card := 1 + rng.Intn(16)
		dict := make([]int64, card)
		for i := range dict {
			dict[i] = int64(rng.Intn(2000) - 1000)
		}
		for i := range vals {
			vals[i] = dict[rng.Intn(card)]
		}
	case compress.FOR:
		base := int64(rng.Intn(1 << 20))
		// Exercise the delta-width boundaries: spans that just fit and
		// just overflow the 1- and 2-byte widths, plus a wide 4-byte span.
		spans := []int64{255, 256, 65535, 65536, 1 << 24}
		span := spans[rng.Intn(len(spans))]
		for i := range vals {
			vals[i] = base + rng.Int63n(span+1)
		}
		// Pin the boundary values so the width is actually exercised.
		if n >= 2 {
			vals[0] = base
			vals[n-1] = base + span
		}
	default: // Raw
		for i := range vals {
			vals[i] = rng.Int63n(1<<40) - (1 << 39)
		}
	}
	return vals
}

// randPredF64 draws a predicate whose bounds straddle the data.
func randCompPredF64(rng *rand.Rand, vals []float64) Pred[float64] {
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

func randCompPredI64(rng *rand.Rand, vals []int64) Pred[int64] {
	pick := func() int64 { return vals[rng.Intn(len(vals))] + int64(rng.Intn(64)) - 32 }
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

// sumsClose compares reassociated float sums: both NaN, or within a
// tight relative tolerance.
func sumsClose(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= 1e-9*math.Abs(a)+1e-9
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
			// The unfiltered compressed sum uses exact closed forms per run
			// and per dictionary code (a deliberate reassociation of the
			// dense loop), so it is compared within float tolerance; strict
			// bit-identity is the contract of the Where family above.
			wantUS, err := SumFloat64(cfg, fraw)
			if err != nil {
				t.Fatal(err)
			}
			gotUS, err := SumFloat64(cfg, fcomp)
			if err != nil {
				t.Fatal(err)
			}
			if !sumsClose(wantUS, gotUS) {
				t.Fatalf("%v: SumFloat64 = %v (%x), want %v (%x)",
					enc, gotUS, math.Float64bits(gotUS), wantUS, math.Float64bits(wantUS))
			}

			// int64 column. Magnitudes stay under 2^53/len so the dense
			// baseline's float64 partials are exact.
			ivals := intShape(rng, enc, n)
			iimg := encodeI64(ivals)
			iraw := rawPieces(iimg, n, np)
			icomp := compPieces(t, enc, iimg, n, np)
			ip := randCompPredI64(rng, ivals)

			wantISum, wantIN, err := scanWhere(cfg, &obsSumWhere, "int64 sum", iraw, ip)
			if err != nil {
				t.Fatalf("%v: baseline int64 sum-where: %v", enc, err)
			}
			gotISum, gotIN, err := scanWhere(cfg, &obsSumWhere, "int64 sum", icomp, ip)
			if err != nil {
				t.Fatalf("%v: compressed int64 sum-where: %v", enc, err)
			}
			if wantISum != gotISum || wantIN != gotIN {
				t.Fatalf("%v round %d: int64 sum-where(%v) = (%d, %d), want (%d, %d)",
					enc, round, ip, gotISum, gotIN, wantISum, wantIN)
			}
			wantIUS, err := SumInt64(cfg, iraw)
			if err != nil {
				t.Fatal(err)
			}
			gotIUS, err := SumInt64(cfg, icomp)
			if err != nil {
				t.Fatal(err)
			}
			if wantIUS != gotIUS {
				t.Fatalf("%v: SumInt64 = %d, want %d", enc, gotIUS, wantIUS)
			}
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
	if _, err := SelectFloat64(Single(), pieces, func(float64) bool { return true }); err == nil {
		t.Fatal("SelectFloat64 accepted a compressed piece")
	}
}

// TestSumInt64ExactAbove2p53 pins integer sums as exact integers: two
// pieces of 1<<53 + 1 do not survive a float64 partial (the odd value
// rounds to even), so any fold that carries int64 partials through
// float64 loses 2. Every policy, raw and FOR-compressed, filtered and
// unfiltered.
func TestSumInt64ExactAbove2p53(t *testing.T) {
	const v = int64(1)<<53 + 1
	image := encodeI64([]int64{v, v})
	views := map[string][]Piece{
		"raw": rawPieces(image, 2, 2),
		"for": compPieces(t, compress.FOR, image, 2, 2),
	}
	for name, pieces := range views {
		for _, cfg := range []Config{Single(), MultiN(2), Morsel()} {
			sum, err := SumInt64(cfg, pieces)
			if err != nil || sum != 2*v {
				t.Errorf("%s %v: SumInt64 = %d, %v; want %d", name, cfg.Policy, sum, err, 2*v)
			}
			sum, n, err := scanWhere(cfg, &obsSumWhere, "int64 sum", pieces, Gt[int64](0))
			if err != nil || sum != 2*v || n != 2 {
				t.Errorf("%s %v: int64 sum-where = (%d, %d), %v; want (%d, 2)", name, cfg.Policy, sum, n, err, 2*v)
			}
		}
	}
}
