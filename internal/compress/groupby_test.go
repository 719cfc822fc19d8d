package compress

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hybridstore/internal/agg"
)

// encodeFloats builds a little-endian float64 column image.
func encodeFloats(vals []float64) []byte {
	out := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// TestFindRunOutOfOrderAfterDecompressInto is the regression test for
// the lastRun memo: a bulk DecompressInto parks the memo, and random or
// descending At lookups afterwards must still resolve every element
// correctly (the memo is advisory — stale state may only cost the
// binary search, never correctness).
func TestFindRunOutOfOrderAfterDecompressInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 4096)
	v := int64(0)
	for i := range vals {
		if rng.Intn(5) == 0 {
			v++
		}
		vals[i] = v
	}
	c, err := CompressAs(RLE, encodeInts(vals), len(vals), 8)
	if err != nil {
		t.Fatal(err)
	}
	tmp := make([]byte, 8)
	// Ascending pass walks the memo to the last run.
	for i := range vals {
		if _, err := c.At(i, tmp); err != nil {
			t.Fatal(err)
		}
	}
	// Bulk decode reuses the same Column and resets the memo.
	dst := make([]byte, len(vals)*8)
	if _, err := c.DecompressInto(dst); err != nil {
		t.Fatal(err)
	}
	if got := int(c.lastRun.Load()); got != 0 {
		t.Fatalf("lastRun after DecompressInto = %d, want 0", got)
	}
	// Descending and random lookups against the decompressed ground
	// truth: every element must decode exactly.
	check := func(i int) {
		got, err := c.At(i, tmp)
		if err != nil {
			t.Fatalf("At(%d): %v", i, err)
		}
		want := binary.LittleEndian.Uint64(dst[i*8:])
		if binary.LittleEndian.Uint64(got) != want {
			t.Fatalf("At(%d) = %d, want %d", i, binary.LittleEndian.Uint64(got), want)
		}
	}
	for i := len(vals) - 1; i >= 0; i-- {
		check(i)
	}
	if _, err := c.DecompressInto(dst); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10_000; trial++ {
		check(rng.Intn(len(vals)))
	}
}

// The operator equivalence tables. Every compressed-domain operator
// must answer exactly what decompressing and testing p.Match element by
// element, in order, answers — bit for bit over float64 (so a NaN sum
// must be the same NaN, a -0 sum must keep its sign) and mod 2^64 over
// int64 — on every encoding that can hold the column, for every
// comparison, with bounds at the places a closed-interval rewriting can
// go wrong: the two zeros, the infinities, NaN, a column value's adjacent
// doubles, the integer extremes, and intervals that are inverted.

// floatColumns are the float64 test columns. Each has runs (so RLE is
// more than one run per element) and at most 256 distinct values (so
// Dict applies); the "bits" ones span less than 2^32 bit patterns, which
// is what lets FOR frame a float column.
func floatColumns() map[string][]float64 {
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, -1,
		math.Nextafter(1, 2), math.Nextafter(1, 0), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.5, 40, 41}
	rng := rand.New(rand.NewSource(3))
	mixed := make([]float64, 700)
	for i := range mixed {
		if i%3 != 0 && i > 0 {
			mixed[i] = mixed[i-1] // runs of up to three
			continue
		}
		if rng.Intn(2) == 0 {
			mixed[i] = special[rng.Intn(len(special))]
		} else {
			mixed[i] = float64(rng.Intn(60)) - 10
		}
	}
	// around walks the bit patterns next to base: adjacent doubles.
	around := func(base uint64, back int) []float64 {
		out := make([]float64, 600)
		for i := range out {
			if i%3 != 0 {
				out[i] = out[i-1]
			} else {
				out[i] = math.Float64frombits(base - uint64(back) + uint64(rng.Intn(2*back)))
			}
		}
		return out
	}
	return map[string][]float64{
		"mixed":     mixed,
		"empty":     nil,
		"one":       {math.Copysign(0, -1)},
		"all-nan":   {math.NaN(), math.NaN(), math.NaN()},
		"neg-zeros": {math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1)},
		"bits+inf":  around(math.Float64bits(math.Inf(1)), 40),  // MaxFloat64-ish, +Inf, then NaNs
		"bits-inf":  around(math.Float64bits(math.Inf(-1)), 40), // -MaxFloat64-ish, -Inf, then NaNs
		"bits+0":    around(40, 40),                             // +0 and the first denormals
		"bits-0":    around(math.Float64bits(math.Copysign(0, -1))+40, 40),
		"bits-1":    around(math.Float64bits(1), 40),
	}
}

// floatPreds is every comparison over every bound of interest: the
// specials, and each given column value with both its neighbours.
func floatPreds(vals []float64) []Pred[float64] {
	bounds := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.MaxFloat64, 20, 50}
	seen := map[uint64]bool{}
	for _, v := range vals {
		if len(seen) < 6 && !seen[math.Float64bits(v)] {
			seen[math.Float64bits(v)] = true
			bounds = append(bounds, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
	}
	var ps []Pred[float64]
	for _, a := range bounds {
		ps = append(ps, Pred[float64]{Op: OpEQ, Lo: a}, Pred[float64]{Op: OpLT, Hi: a}, Pred[float64]{Op: OpGT, Lo: a})
		for _, b := range bounds { // ordered, degenerate and inverted alike
			ps = append(ps, Pred[float64]{Op: OpBetween, Lo: a, Hi: b})
		}
	}
	return append(ps, Pred[float64]{Op: Op(9), Lo: 0, Hi: 1}) // an Op nothing matches
}

// encodings compresses data under every scheme that can hold it.
func encodings(t *testing.T, data []byte, n int) map[Encoding]*Column {
	out := map[Encoding]*Column{}
	for _, enc := range []Encoding{Raw, RLE, Dict, FOR} {
		c, err := CompressAs(enc, data, n, 8)
		if errors.Is(err, ErrNotApplicable) {
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		// Operators run on what the device decodes, not on what the
		// encoder built.
		if c, err = Decode(c.Marshal()); err != nil {
			t.Fatalf("%v: Decode(Marshal()): %v", enc, err)
		}
		out[enc] = c
	}
	return out
}

func TestSumWhereAllEncodings(t *testing.T) {
	for name, vals := range floatColumns() {
		cols := encodings(t, encodeFloats(vals), len(vals))
		if strings.HasPrefix(name, "bits") && cols[FOR] == nil {
			t.Errorf("%s: FOR does not apply; the column was built for it", name)
		}
		for _, p := range floatPreds(vals) {
			var want float64
			var wantN int64
			for _, x := range vals {
				if p.Match(x) {
					want += x
					wantN++
				}
			}
			for enc, c := range cols {
				got, n, err := c.SumFloat64Where(p)
				if err != nil || math.Float64bits(got) != math.Float64bits(want) || n != wantN {
					t.Fatalf("%s/%v %+v: (%v [%x], %d, %v), want (%v [%x], %d)", name, enc, p,
						got, math.Float64bits(got), n, err, want, math.Float64bits(want), wantN)
				}
			}
		}
	}
	intCols := map[string][]int64{
		"empty":  nil,
		"small":  {3, 3, 3, -1, -1, 0, 7, 7, 250, 250, 250, -200},
		"at-min": {math.MinInt64, math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 200, math.MinInt64 + 200},
		"at-max": {math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 1, math.MaxInt64 - 65000, math.MaxInt64},
		"wide":   {math.MinInt64, math.MaxInt64, 0, 0, -1, 1, math.MaxInt64},
	}
	for name, vals := range intCols {
		cols := encodings(t, encodeInts(vals), len(vals))
		if name != "wide" && cols[FOR] == nil {
			t.Errorf("%s: FOR does not apply", name)
		}
		bounds := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		for _, v := range vals {
			bounds = append(bounds, v-1, v, v+1) // wrapping at the extremes is the point
		}
		for _, a := range bounds {
			ps := []Pred[int64]{{Op: OpEQ, Lo: a}, {Op: OpLT, Hi: a}, {Op: OpGT, Lo: a}}
			for _, b := range bounds {
				ps = append(ps, Pred[int64]{Op: OpBetween, Lo: a, Hi: b})
			}
			for _, p := range ps {
				var want, wantN int64
				for _, x := range vals {
					if p.Match(x) {
						want += x
						wantN++
					}
				}
				for enc, c := range cols {
					if got, n, err := SumWhere(c, p); err != nil || got != want || n != wantN {
						t.Fatalf("%s/%v %+v: (%d, %d, %v), want (%d, %d)", name, enc, p, got, n, err, want, wantN)
					}
				}
			}
		}
	}
}

// foldOrderColumns are float columns whose sum depends on how a run is
// folded: v × k differs from adding v k times, so an operator that takes
// a closed form over floats answers a different double than the dense
// element-ordered scan.
func foldOrderColumns() map[string][]float64 {
	magnitudes := make([]float64, 0, 1024)
	for _, run := range []struct {
		v float64
		k int
	}{{0.1, 300}, {1e16, 300}, {1.0, 424}} {
		for i := 0; i < run.k; i++ {
			magnitudes = append(magnitudes, run.v)
		}
	}
	decimals := make([]float64, 1024)
	for i := range decimals {
		decimals[i] = []float64{0.1, 0.2, 0.3, 0.7, 1.1, 1e15 + 0.3, 2.2, 3.3}[i*7%8]
	}
	return map[string][]float64{"magnitudes": magnitudes, "decimals": decimals}
}

// TestSumIsElementOrderedAllEncodings: Sum ≡ SumWhere(−Inf, +Inf) ≡ the
// dense element-ordered fold, bit for bit, under every encoding that
// holds the column; a NaN poisons Sum and is skipped by SumWhere.
func TestSumIsElementOrderedAllEncodings(t *testing.T) {
	all := Pred[float64]{Op: OpBetween, Lo: math.Inf(-1), Hi: math.Inf(1)}
	for name, vals := range foldOrderColumns() {
		var want float64
		for _, x := range vals {
			want += x
		}
		cols := encodings(t, encodeFloats(vals), len(vals))
		for _, enc := range []Encoding{Raw, RLE, Dict} {
			if cols[enc] == nil {
				t.Errorf("%s: %v does not apply; the column was built for it", name, enc)
			}
		}
		for enc, c := range cols {
			got, err := c.SumFloat64()
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s/%v: Sum = %x, %v; dense fold %x", name, enc, math.Float64bits(got), err, math.Float64bits(want))
			}
			got, n, err := c.SumFloat64Where(all)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) || n != int64(len(vals)) {
				t.Errorf("%s/%v: SumWhere(-Inf, +Inf) = %x, %d, %v; dense fold %x", name, enc, math.Float64bits(got), n, err, math.Float64bits(want))
			}
		}
	}
	withNaN := []float64{1, 1, math.NaN(), math.NaN(), 2, 2, 2}
	for enc, c := range encodings(t, encodeFloats(withNaN), len(withNaN)) {
		if got, err := c.SumFloat64(); err != nil || !math.IsNaN(got) {
			t.Errorf("%v: Sum over a NaN = %v, %v; want NaN", enc, got, err)
		}
		if got, n, err := c.SumFloat64Where(all); err != nil || got != 8 || n != 5 {
			t.Errorf("%v: SumWhere over a NaN = %v, %d, %v; want 8, 5", enc, got, n, err)
		}
	}
}

// refGroups is the plain-map reference of a grouped aggregate: matches
// folded in element order, groups in key order.
func refGroups(vals []float64, keyAt func(int) int64, match func(float64) bool) []agg.Group {
	table := map[int64]*agg.Group{}
	for i, v := range vals {
		if !match(v) {
			continue
		}
		if g := table[keyAt(i)]; g != nil {
			g.Sum += v
			g.Count++
		} else {
			table[keyAt(i)] = &agg.Group{Key: keyAt(i), Sum: v, Count: 1}
		}
	}
	out := make([]agg.Group, 0, len(table))
	for _, g := range table {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// sameGroups compares two group tables bit for bit.
func sameGroups(a, b []agg.Group) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Count != b[i].Count || math.Float64bits(a[i].Sum) != math.Float64bits(b[i].Sum) {
			return false
		}
	}
	return true
}

func TestGroupSumFloat64WhereAllEncodings(t *testing.T) {
	// The key columns: int32 and int64, contiguous and strided, a domain
	// inside the table's slot window and one far wider than it.
	type keyCol struct {
		name string
		at   func(i int) int64
		size int
	}
	keyCols := []keyCol{
		{"int32 mod 8", func(i int) int64 { return int64(i*7%8) - 3 }, 4},
		{"int64 mod 8", func(i int) int64 { return int64(i * 7 % 8) }, 8},
		{"int32 extremes", func(i int) int64 { return []int64{math.MinInt32, math.MaxInt32, -1, 0}[i%4] }, 4},
		{"int64 wide", func(i int) int64 { return int64(i%50) * (math.MaxInt64 / 50) }, 8},
	}
	for name, vals := range floatColumns() {
		cols := encodings(t, encodeFloats(vals), len(vals))
		for _, kc := range keyCols {
			for _, stride := range []int{kc.size, 24} {
				kdata := make([]byte, len(vals)*stride+8)
				for i := range vals {
					if kc.size == 8 {
						binary.LittleEndian.PutUint64(kdata[i*stride:], uint64(kc.at(i)))
					} else {
						binary.LittleEndian.PutUint32(kdata[i*stride:], uint32(int32(kc.at(i))))
					}
				}
				keys := agg.Keys{Data: kdata, Stride: stride, Size: kc.size}
				for _, p := range floatPreds(vals) {
					want := refGroups(vals, kc.at, p.Match)
					for enc, c := range cols {
						var table agg.Table
						if err := c.GroupSumFloat64Where(p, keys, &table); err != nil {
							t.Fatalf("%s/%v: %v", name, enc, err)
						}
						if got := table.Drain(nil); !sameGroups(got, want) {
							t.Fatalf("%s/%v keys %s stride %d %+v:\n got %+v\nwant %+v", name, enc, kc.name, stride, p, got, want)
						}
					}
				}
			}
		}
	}
	// Keys that do not cover the column are an error, not a panic.
	c, err := CompressAs(Raw, encodeFloats([]float64{1, 2, 3}), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, keys := range []agg.Keys{
		{Data: make([]byte, 11), Stride: 4, Size: 4},
		{Data: make([]byte, 64), Stride: 2, Size: 4},
		{Data: make([]byte, 64), Stride: 8, Size: 2},
	} {
		if err := c.GroupSumFloat64Where(Pred[float64]{Op: OpGT}, keys, new(agg.Table)); !errors.Is(err, ErrBadInput) {
			t.Errorf("keys %d bytes stride %d size %d: err = %v, want ErrBadInput", len(keys.Data), keys.Stride, keys.Size, err)
		}
	}
}

// benchChunk is one chunk of the benchmark fixture as the device sees
// it: 1024 item prices (hybridstore.Item: 1 + (i mod 10000)/100) behind a
// Raw image — prices this distinct leave no other encoding smaller —
// and 64 int32 group keys.
func benchChunk(b *testing.B) (*Column, agg.Keys) {
	const n = 1024
	vals := make([]float64, n)
	keys := make([]byte, n*4)
	for i := range vals {
		vals[i] = float64((i*7919)%10000)/100 + 1
		binary.LittleEndian.PutUint32(keys[i*4:], uint32(i*31%64))
	}
	c, err := Compress(encodeFloats(vals), n, 8)
	if err != nil || c.Encoding() != Raw {
		b.Fatalf("bench chunk: %v, %v", c, err)
	}
	if c, err = Decode(c.Marshal()); err != nil {
		b.Fatal(err)
	}
	return c, agg.Keys{Data: keys, Stride: 4, Size: 4}
}

var benchPred = Pred[float64]{Op: OpBetween, Lo: 20, Hi: 50}

// BenchmarkSumWhereKernel is the device leg's filtered reduction over
// one chunk image: ns/op ÷ 1024 is the cost per element.
func BenchmarkSumWhereKernel(b *testing.B) {
	c, _ := benchChunk(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n, err := c.SumFloat64Where(benchPred); err != nil || n == 0 {
			b.Fatal(n, err)
		}
	}
}

// BenchmarkGroupKernel is the fused filter+aggregate kernel over the
// same chunk, table drained into a reused buffer as a launch does.
func BenchmarkGroupKernel(b *testing.B) {
	c, keys := benchChunk(b)
	var table agg.Table
	var groups []agg.Group
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.GroupSumFloat64Where(benchPred, keys, &table); err != nil {
			b.Fatal(err)
		}
		if groups = table.Drain(groups[:0]); len(groups) != 64 {
			b.Fatal(len(groups))
		}
	}
}
