package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
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

// refGroupF64 is the decompress-then-aggregate reference: element-order
// per-group accumulation over the materialized column.
func refGroupF64(vals []float64, keys []int64, match func(float64) bool) (map[int64]float64, map[int64]int64) {
	sums := make(map[int64]float64)
	counts := make(map[int64]int64)
	for i, v := range vals {
		if match(v) {
			sums[keys[i]] += v
			counts[keys[i]]++
		}
	}
	return sums, counts
}

func TestGroupSumFloat64WhereAllEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 2048
	vals := make([]float64, n)
	keys := make([]int64, n)
	for i := range vals {
		vals[i] = float64(rng.Intn(40)) // ≤256 distinct → Dict applies; runs form too
		keys[i] = int64(rng.Intn(8))
	}
	// Sprinkle NaNs: they match no predicate and must never reach add.
	for i := 0; i < n; i += 97 {
		vals[i] = math.NaN()
	}
	data := encodeFloats(vals)
	p := Pred[float64]{Op: OpBetween, Lo: 5, Hi: 25}
	wantSums, wantCounts := refGroupF64(vals, keys, p.Match)
	keyAt := func(i int) int64 { return keys[i] }
	for _, enc := range []Encoding{Raw, RLE, Dict} {
		c, err := CompressAs(enc, data, n, 8)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		gotSums := make(map[int64]float64)
		gotCounts := make(map[int64]int64)
		err = c.GroupSumFloat64Where(p, keyAt, func(key int64, v float64) {
			gotSums[key] += v
			gotCounts[key]++
		})
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		if len(gotSums) != len(wantSums) {
			t.Fatalf("%v: %d groups, want %d", enc, len(gotSums), len(wantSums))
		}
		for k, want := range wantSums {
			if gotSums[k] != want { // bit-identical: element-ordered adds
				t.Fatalf("%v: group %d sum = %v, want %v", enc, k, gotSums[k], want)
			}
			if gotCounts[k] != wantCounts[k] {
				t.Fatalf("%v: group %d count = %d, want %d", enc, k, gotCounts[k], wantCounts[k])
			}
		}
	}
}
