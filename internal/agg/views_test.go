package agg

import (
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// aligned returns n zero bytes that start 8-aligned: the backing array
// is a []uint64.
func aligned(n int) []byte {
	words := make([]uint64, n/8+1)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// layoutOf is one placement of a value column and its key column.
type layoutOf struct {
	name string
	// off shifts both columns off 8-alignment (a non-zero off forces the
	// byte loop); stride is the row width, 8 for a dense column.
	off, stride int
	typed       bool // whether the typed arm runs
}

var layouts = []layoutOf{
	{"dense aligned", 0, 8, true},
	{"dense misaligned", 1, 8, false},
	{"NSM", 0, 24, false},
	{"NSM misaligned", 3, 24, false},
}

// columns lays vals and keys (Size-byte, sign-truncated) out as a in two
// buffers: values at stride a.stride, keys dense when the layout is
// dense and interleaved at the same stride otherwise.
func columns(a layoutOf, vals []float64, keys []int64, size int) ([]byte, Keys) {
	kstride := size
	if a.stride != 8 {
		kstride = a.stride
	}
	vb := aligned(a.off + len(vals)*a.stride)[a.off:]
	kb := aligned(a.off + len(keys)*kstride)[a.off:]
	for i, x := range vals {
		binary.LittleEndian.PutUint64(vb[i*a.stride:], math.Float64bits(x))
		if size == 8 {
			binary.LittleEndian.PutUint64(kb[i*kstride:], uint64(keys[i]))
		} else {
			binary.LittleEndian.PutUint32(kb[i*kstride:], uint32(keys[i]))
		}
	}
	return vb, Keys{Data: kb, Stride: kstride, Size: size}
}

// answers is everything the four loops return over one layout.
type answers struct {
	sumWhere, sumAll   float64
	count              int64
	foldWhere, foldAll []Group
}

func run(vals []byte, keys Keys, stride, n int, lo, hi float64) answers {
	var a answers
	a.sumWhere, a.count = SumWhere(vals, stride, n, lo, hi)
	a.sumAll = SumAll(vals, stride, n)
	var t Table
	t.FoldWhere(keys, vals, stride, n, lo, hi)
	a.foldWhere = t.Drain(nil)
	t.FoldAll(keys, vals, stride, n)
	a.foldAll = t.Drain(nil)
	return a
}

func (a answers) same(b answers) bool {
	return math.Float64bits(a.sumWhere) == math.Float64bits(b.sumWhere) && a.count == b.count &&
		math.Float64bits(a.sumAll) == math.Float64bits(b.sumAll) &&
		same(a.foldWhere, b.foldWhere) && same(a.foldAll, b.foldAll)
}

// TestViewsMatchByteLoop: the typed arms of FoldWhere and SumWhere answer
// with the byte loop's bits — the sums, the counts and every group — and
// every loop, FoldAll and SumAll too, matches the reference at every length,
// over the values float addition is touchy about, with bounds that are
// themselves NaN, ±0 and ±Inf, for both key widths and for keys inside
// and outside the slot window. The misaligned and NSM layouts of the
// same values take the byte loop, and each answer is also checked
// against a plain element-order reference.
func TestViewsMatchByteLoop(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	bounds := [][2]float64{{10, 90}, {-inf, inf}, {0, 0}, {negZero, negZero}, {inf, inf}, {-inf, -inf}, {nan, 5}, {5, nan}, {90, 10}}
	keyFns := map[string]func(i int) int64{
		"in the window":   func(i int) int64 { return int64(i*31%64) - 20 },
		"past the window": func(i int) int64 { return int64(i*7919%3000) - 1500 },
	}
	for _, n := range []int{0, 1, 7, 1000} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = valueAt(i)
		}
		if n > 1 {
			vals[1] = -inf
			vals[n-1] = nan
		}
		for kname, keyAt := range keyFns {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = keyAt(i)
			}
			for _, size := range []int{4, 8} {
				for _, b := range bounds {
					want := reference(vals, keys, b[0], b[1])
					for _, a := range layouts {
						vb, kb := columns(a, vals, keys, size)
						if _, typed := view[float64](vb, a.stride, n); n > 0 && typed != a.typed {
							t.Fatalf("%s: typed view %v, want %v", a.name, typed, a.typed)
						}
						if got := run(vb, kb, a.stride, n, b[0], b[1]); !got.same(want) {
							t.Fatalf("n %d, %s keys (%d bytes), bounds %v, %s:\n got %+v\nwant %+v", n, kname, size, b, a.name, got, want)
						}
					}
				}
			}
		}
	}
}

// reference folds the elements one by one, in order, without a group
// table's window.
func reference(vals []float64, keys []int64, lo, hi float64) answers {
	var a answers
	where, all := refTable{}, refTable{}
	for i, x := range vals {
		a.sumAll += x
		all.add(Group{Key: keys[i], Sum: x, Count: 1})
		if lo <= x && x <= hi {
			a.sumWhere += x
			a.count++
			where.add(Group{Key: keys[i], Sum: x, Count: 1})
		}
	}
	a.foldWhere, a.foldAll = where.rows(), all.rows()
	return a
}

// FuzzFoldViews: over arbitrary bytes as values and keys, the typed arms
// (an aligned copy) and the byte loop (the same bytes one byte off)
// return the same bits from every loop.
func FuzzFoldViews(f *testing.F) {
	seed := make([]byte, 64)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(seed[i*8:], math.Float64bits(valueAt(i*3)))
	}
	f.Add(seed, 1.0, 50.0, true)
	f.Add(seed[:7], math.Inf(-1), math.Inf(1), false)
	f.Fuzz(func(t *testing.T, data []byte, lo, hi float64, wide bool) {
		n, size := len(data)/8, 4
		if wide {
			size = 8
		}
		kdata := data[:n*size] // the same bytes, read as keys
		var got [2]answers
		for j, off := range []int{0, 1} {
			vb := aligned(off + n*8)[off:]
			kb := aligned(off + n*size)[off:]
			copy(vb, data)
			copy(kb, kdata)
			if _, typed := view[float64](vb, 8, n); n > 0 && typed != (off == 0) {
				t.Fatalf("offset %d: typed view %v", off, typed)
			}
			got[j] = run(vb, Keys{Data: kb, Stride: size, Size: size}, 8, n, lo, hi)
		}
		if !got[0].same(got[1]) {
			t.Fatalf("typed %+v\nbytes %+v", got[0], got[1])
		}
	})
}

// benchColumn is 32 chunks of 1024 prices with int32 keys in 64 groups,
// 8-aligned at off 0.
func benchColumn(off int) ([]byte, Keys, int) {
	const n = 32 * 1024
	vals, keys := make([]float64, n), make([]int64, n)
	for i := range vals {
		vals[i] = float64((i*7919)%10000)/100 + 1
		keys[i] = int64(i * 31 % 64)
	}
	vb, kb := columns(layoutOf{off: off, stride: 8}, vals, keys, 4)
	return vb, kb, n
}

var benchLayouts = []struct {
	name string
	off  int
}{{"aligned", 0}, {"misaligned", 1}}

// BenchmarkSumWhere is the ungrouped filtered sum over 32 chunks of 1024
// values, one call per chunk as the scans make it: the aligned run takes
// the typed arm, the misaligned one the byte loop.
func BenchmarkSumWhere(b *testing.B) {
	for _, l := range benchLayouts {
		b.Run(l.name, func(b *testing.B) {
			vals, _, n := benchColumn(l.off)
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < n; c += 1024 {
					if _, k := SumWhere(vals[c*8:], 8, 1024, 20, 50); k == 0 {
						b.Fatal("no match")
					}
				}
			}
		})
	}
}

// BenchmarkFoldWhere is the fused filter+group fold over the same
// chunks with int32 keys, the table drained once per pass.
func BenchmarkFoldWhere(b *testing.B) {
	for _, l := range benchLayouts {
		b.Run(l.name, func(b *testing.B) {
			vals, keys, n := benchColumn(l.off)
			var t Table
			var out []Group
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < n; c += 1024 {
					k := keys
					k.Data = k.Data[c*4:]
					t.FoldWhere(k, vals[c*8:], 8, 1024, 20, 50)
				}
				if out = t.Drain(out[:0]); len(out) != 64 {
					b.Fatal(len(out))
				}
			}
		})
	}
}
