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

// The fold equivalence table. Fold must answer exactly what
// decompressing and testing p.Match element by element, in order,
// answers — bit for bit (so a NaN sum must be the same NaN, a -0 sum
// must keep its sign) — on every encoding that can hold the column, for
// every comparison and for none, grouped and not, with bounds at the
// places a closed-interval rewriting can go wrong: the two zeros, the
// infinities, NaN, a column value's adjacent doubles, and intervals that
// are inverted.

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
		if c, err = Decode(c.AppendMarshal(nil)); err != nil {
			t.Fatalf("%v: Decode(Marshal()): %v", enc, err)
		}
		out[enc] = c
	}
	return out
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

// refGroups is the plain-map reference of a grouped aggregate: matches
// folded in element order, groups in key order.
func refGroups(vals []float64, keyAt func(int) int64, match func(float64) bool) []agg.Group {
	table := map[int64]*agg.Group{}
	for i, v := range vals {
		if !match(v) {
			continue
		}
		g := table[keyAt(i)]
		if g == nil {
			// A new group starts at -0, the additive identity (+0 + -0
			// would lose a sign; NaN + -0 quiets a signaling NaN).
			g = &agg.Group{Key: keyAt(i), Sum: math.Copysign(0, -1)}
			table[keyAt(i)] = g
		}
		g.Sum = agg.Add(g.Sum, v)
		g.Count++
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

// sumOf is the unfiltered scalar fold: every element, a NaN included.
func sumOf(c *Column) (float64, error) {
	s, _, err := c.Fold(false, 0, 0, agg.Keys{}, nil)
	return s, err
}

// keyCol is a group-key column of the fold table: the key at each
// position, and its width.
type keyCol struct {
	name string
	at   func(i int) int64
	size int
}

// layKeys lays kc's first n keys out stride bytes apart, with slack
// behind the last one.
func layKeys(kc keyCol, n, stride int) agg.Keys {
	data := make([]byte, n*stride+8)
	for i := 0; i < n; i++ {
		if kc.size == 8 {
			binary.LittleEndian.PutUint64(data[i*stride:], uint64(kc.at(i)))
		} else {
			binary.LittleEndian.PutUint32(data[i*stride:], uint32(int32(kc.at(i))))
		}
	}
	return agg.Keys{Data: data, Stride: stride, Size: kc.size}
}

// foldCase is one row of the fold table: a column under every encoding
// that holds it, and a filter — none, or p over its closed interval
// [lo, hi] when ok — with what the element loop through match answers.
type foldCase struct {
	name   string
	vals   []float64
	dense  []byte
	encs   map[Encoding]*Column
	where  bool
	p      Pred[float64]
	lo, hi float64
	ok     bool
	match  func(float64) bool
	want   float64
	wantN  int64
}

// nanPayloads is a column whose unfiltered sum meets NaNs of four
// different bits: Inf - Inf's, a quiet NaN with a payload, a signaling
// one and math.NaN(). The sum is the first of them, Inf - Inf's.
var nanPayloads = []float64{1, math.Inf(1), math.Inf(-1), 2,
	math.Float64frombits(0x7ff8_0000_0000_0bad), math.Float64frombits(0x7ff8_0000_0000_0bad), 3,
	math.Float64frombits(0xfff0_0000_0000_0001), math.NaN(), math.NaN(), 4}

// foldColumns are the columns of the fold table: floatColumns, the
// fold-order columns, a column with runs of NaN and nanPayloads.
func foldColumns() (cols, ordered map[string][]float64) {
	cols, ordered = floatColumns(), foldOrderColumns()
	for name, vals := range ordered {
		cols[name] = vals
	}
	cols["nan-runs"] = []float64{1, 1, math.NaN(), math.NaN(), 2, 2, 2}
	cols["nan-payloads"] = nanPayloads
	return cols, ordered
}

// eachFoldCase visits every foldColumns column × no filter and every
// floatPreds interval.
func eachFoldCase(t *testing.T, visit func(fc foldCase)) {
	cols, _ := foldColumns()
	for name, vals := range cols {
		dense := encodeFloats(vals)
		encs := encodings(t, dense, len(vals))
		filters := []foldCase{{}}
		for _, p := range floatPreds(vals) {
			filters = append(filters, foldCase{where: true, p: p})
		}
		for _, fc := range filters {
			fc.name, fc.vals, fc.dense, fc.encs = name, vals, dense, encs
			fc.match = func(float64) bool { return true }
			if fc.where {
				fc.match = fc.p.Match
			}
			for _, x := range vals {
				if fc.match(x) {
					fc.want = agg.Add(fc.want, x)
					fc.wantN++
				}
			}
			if !fc.where {
				fc.wantN = 0 // an unfiltered fold counts nothing
			}
			fc.lo, fc.hi, fc.ok = fc.p.Closed()
			if fc.where && !fc.ok && fc.wantN != 0 {
				t.Fatalf("%s %+v: no closed interval, yet %d elements match", name, fc.p, fc.wantN)
			}
			visit(fc)
		}
	}
}

// checkScalarFold holds the scalar Fold of fc, on every encoding, to
// agg's loop over the dense bytes and that loop to the element loop. A
// predicate with no closed interval is folded by no caller.
func checkScalarFold(t *testing.T, fc foldCase) {
	if fc.where && !fc.ok {
		return
	}
	ref, refN := agg.SumAll(fc.dense, 8, len(fc.vals)), int64(0)
	if fc.where {
		ref, refN = agg.SumWhere(fc.dense, 8, len(fc.vals), fc.lo, fc.hi)
	}
	if math.Float64bits(ref) != math.Float64bits(fc.want) || refN != fc.wantN {
		t.Fatalf("%s %+v: agg over the dense bytes (%x, %d), element loop (%x, %d)", fc.name, fc.p, math.Float64bits(ref), refN, math.Float64bits(fc.want), fc.wantN)
	}
	for enc, c := range fc.encs {
		got, gotN, err := c.Fold(fc.where, fc.lo, fc.hi, agg.Keys{}, nil)
		if err != nil || math.Float64bits(got) != math.Float64bits(ref) || gotN != refN {
			t.Fatalf("%s/%v where %v %+v: Fold = (%v [%x], %d, %v), want (%v [%x], %d)", fc.name, enc, fc.where, fc.p,
				got, math.Float64bits(got), gotN, err, ref, math.Float64bits(ref), refN)
		}
	}
}

// TestSumWhereAllEncodings holds the filtered scalar Fold, and the
// SumFloat64Where wrapper bench/ calls, to the element loop through
// p.Match: every encoding × every floatPreds interval, bit for bit. A
// filtered fold skips a NaN.
func TestSumWhereAllEncodings(t *testing.T) {
	cols, _ := foldColumns()
	for name, vals := range cols {
		if strings.HasPrefix(name, "bits") && encodings(t, encodeFloats(vals), len(vals))[FOR] == nil {
			t.Errorf("%s: FOR does not apply; the column was built for it", name)
		}
	}
	eachFoldCase(t, func(fc foldCase) {
		if !fc.where {
			return
		}
		// The wrapper: Fold over p's interval, or nothing when p has none.
		for enc, c := range fc.encs {
			if got, gotN, err := c.SumFloat64Where(fc.p); err != nil || math.Float64bits(got) != math.Float64bits(fc.want) || gotN != fc.wantN {
				t.Fatalf("%s/%v %+v: SumFloat64Where = (%v [%x], %d, %v), want (%v [%x], %d)", fc.name, enc, fc.p,
					got, math.Float64bits(got), gotN, err, fc.want, math.Float64bits(fc.want), fc.wantN)
			}
		}
		checkScalarFold(t, fc)
	})
	withNaN := cols["nan-runs"]
	for enc, c := range encodings(t, encodeFloats(withNaN), len(withNaN)) {
		if got, n, err := c.Fold(true, math.Inf(-1), math.Inf(1), agg.Keys{}, nil); err != nil || got != 8 || n != 5 {
			t.Errorf("%v: filtered fold over a NaN = %v, %d, %v; want 8, 5", enc, got, n, err)
		}
	}
}

// TestSumIsElementOrderedAllEncodings holds the unfiltered scalar Fold
// to the element-ordered loop on every encoding: the fold-order columns,
// whose sum a closed form over a run gets wrong, must hold under Raw,
// RLE and Dict alike. An unfiltered fold adds a NaN.
func TestSumIsElementOrderedAllEncodings(t *testing.T) {
	cols, ordered := foldColumns()
	for name, vals := range ordered {
		encs := encodings(t, encodeFloats(vals), len(vals))
		for _, enc := range []Encoding{Raw, RLE, Dict} {
			if encs[enc] == nil {
				t.Errorf("%s: %v does not apply; the column was built for it", name, enc)
			}
		}
	}
	eachFoldCase(t, func(fc foldCase) {
		if !fc.where {
			checkScalarFold(t, fc)
		}
	})
	withNaN := cols["nan-runs"]
	for enc, c := range encodings(t, encodeFloats(withNaN), len(withNaN)) {
		if got, err := sumOf(c); err != nil || !math.IsNaN(got) {
			t.Errorf("%v: unfiltered fold over a NaN = %v, %v; want NaN", enc, got, err)
		}
	}
	// Whatever the encoding, the sum keeps the first NaN it meets.
	first := math.Float64bits(math.Inf(1) - math.Inf(1))
	for enc, c := range encodings(t, encodeFloats(nanPayloads), len(nanPayloads)) {
		if got, err := sumOf(c); err != nil || math.Float64bits(got) != first {
			t.Errorf("%v: unfiltered fold = %x, %v; want the first NaN, %x", enc, math.Float64bits(got), err, first)
		}
	}
}

// TestGroupSumFloat64WhereAllEncodings holds the grouped Fold, filtered
// and not, to the plain-map reference and to agg's table loops over the
// decompressed bytes: every encoding × no filter and every floatPreds
// interval × int32 and int64 keys, contiguous and strided, in a domain
// inside the table's slot window and one far wider than it.
func TestGroupSumFloat64WhereAllEncodings(t *testing.T) {
	keyCols := []keyCol{
		{"int32 mod 8", func(i int) int64 { return int64(i*7%8) - 3 }, 4},
		{"int64 mod 8", func(i int) int64 { return int64(i * 7 % 8) }, 8},
		{"int32 extremes", func(i int) int64 { return []int64{math.MinInt32, math.MaxInt32, -1, 0}[i%4] }, 4},
		{"int64 wide", func(i int) int64 { return int64(i%50) * (math.MaxInt64 / 50) }, 8},
	}
	eachFoldCase(t, func(fc foldCase) {
		if fc.where && !fc.ok {
			return
		}
		n := len(fc.vals)
		for _, kc := range keyCols {
			for _, stride := range []int{kc.size, 24} {
				keys := layKeys(kc, n, stride)
				wantG := refGroups(fc.vals, kc.at, fc.match)
				var table agg.Table
				if fc.where {
					table.FoldWhere(keys, fc.dense, 8, n, fc.lo, fc.hi)
				} else {
					table.FoldAll(keys, fc.dense, 8, n)
				}
				refG := table.Drain(nil)
				if !sameGroups(refG, wantG) {
					t.Fatalf("%s keys %s stride %d %+v: agg over the dense bytes %+v, element loop %+v", fc.name, kc.name, stride, fc.p, refG, wantG)
				}
				for enc, c := range fc.encs {
					s, cnt, err := c.Fold(fc.where, fc.lo, fc.hi, keys, &table)
					if err != nil || math.Float64bits(s) != 0 || cnt != 0 {
						t.Fatalf("%s/%v: grouped Fold = (%v, %d, %v), want (0, 0, nil)", fc.name, enc, s, cnt, err)
					}
					if got := table.Drain(nil); !sameGroups(got, refG) {
						t.Fatalf("%s/%v keys %s stride %d where %v %+v:\n got %+v\nwant %+v", fc.name, enc, kc.name, stride, fc.where, fc.p, got, refG)
					}
				}
			}
		}
	})
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
		for _, where := range []bool{false, true} {
			if _, _, err := c.Fold(where, 0, math.Inf(1), keys, new(agg.Table)); !errors.Is(err, ErrBadInput) {
				t.Errorf("keys %d bytes stride %d size %d where %v: err = %v, want ErrBadInput", len(keys.Data), keys.Stride, keys.Size, where, err)
			}
		}
	}
}

// benchChunks are one chunk of the benchmark fixture per encoding, as
// the device sees it, beside 64 int32 group keys: 1024 item prices
// (hybridstore.Item: 1 + (i mod 10000)/100) behind a Raw image — prices
// this distinct leave no other encoding smaller — the same prices in
// runs of 16 (RLE), 64 of them (Dict), and 1024 doubles within 2^31 bit
// patterns of 50 (FOR).
func benchChunks(b *testing.B) ([]*Column, agg.Keys) {
	const n = 1024
	price := func(j int) float64 { return float64((j*7919)%10000)/100 + 1 }
	shapes := []struct {
		enc Encoding
		at  func(i int) float64
	}{
		{Raw, price},
		{RLE, func(i int) float64 { return price(i / 16) }},
		{Dict, func(i int) float64 { return price(i / 3 % 64) }},
		{FOR, func(i int) float64 { return 50 + float64((i*7919)%n-n/2)/(1<<26) }},
	}
	keys := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(keys[i*4:], uint32(i*31%64))
	}
	var cols []*Column
	for _, sh := range shapes {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = sh.at(i)
		}
		c, err := CompressAs(sh.enc, encodeFloats(vals), n, 8)
		if err == nil && sh.enc == Raw {
			c, err = Compress(encodeFloats(vals), n, 8)
		}
		if err != nil || c.Encoding() != sh.enc {
			b.Fatalf("%v bench chunk: %v, %v", sh.enc, c, err)
		}
		if c, err = Decode(c.AppendMarshal(nil)); err != nil {
			b.Fatal(err)
		}
		cols = append(cols, c)
	}
	return cols, agg.Keys{Data: keys, Stride: 4, Size: 4}
}

// BenchmarkSumWhereKernel is the device leg's filtered reduction over
// one chunk image of each encoding: ns/op ÷ 1024 is the cost per
// element.
func BenchmarkSumWhereKernel(b *testing.B) {
	cols, _ := benchChunks(b)
	for _, c := range cols {
		b.Run(c.Encoding().String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, n, err := c.Fold(true, 20, 50, agg.Keys{}, nil); err != nil || n == 0 {
					b.Fatal(n, err)
				}
			}
		})
	}
}

// BenchmarkGroupKernel is the fused filter+aggregate kernel over the
// same chunks, table drained into a reused buffer as a launch does.
func BenchmarkGroupKernel(b *testing.B) {
	cols, keys := benchChunks(b)
	for _, c := range cols {
		b.Run(c.Encoding().String(), func(b *testing.B) {
			var table agg.Table
			var groups []agg.Group
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.Fold(true, 20, 50, keys, &table); err != nil {
					b.Fatal(err)
				}
				if groups = table.Drain(groups[:0]); len(groups) == 0 {
					b.Fatal("no group matched")
				}
			}
		})
	}
}
