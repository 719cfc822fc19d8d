package agg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refTable is the plain-map reference the group table replaced: first
// element assigns, later ones add, rows come out sorted by key.
type refTable map[int64]*Group

func (r refTable) add(g Group) {
	if have := r[g.Key]; have != nil {
		have.Sum += g.Sum
		have.Count += g.Count
	} else {
		r[g.Key] = &g
	}
}

func (r refTable) rows() []Group {
	out := make([]Group, 0, len(r))
	for _, g := range r {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func same(a, b []Group) bool {
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

// keyDomains are key columns of 4000 elements each, by what they do to
// the slot window.
func keyDomains() map[string]func(i int) int64 {
	rng := rand.New(rand.NewSource(5))
	wide := make([]int64, 4000)
	for i := range wide {
		wide[i] = int64(rng.Intn(3000)) - 1500
	}
	return map[string]func(i int) int64{
		"dense 0..63":         func(i int) int64 { return int64(i * 31 % 64) },
		"negative":            func(i int) int64 { return -int64(i*31%64) - 1 },
		"across zero":         func(i int) int64 { return int64(i*37%200) - 100 },
		"exactly the window":  func(i int) int64 { return 1000 + int64(i*77%256) },
		"one past the window": func(i int) int64 { return 1000 + int64(i*77%257) },
		"grows downward":      func(i int) int64 { return 300 - int64(i%300) },
		"int32 extremes":      func(i int) int64 { return []int64{math.MinInt32, math.MaxInt32, math.MinInt32 + 1, 0, -1}[i%5] },
		"int64 extremes": func(i int) int64 {
			return []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 0}[i%5]
		},
		"top of int64":          func(i int) int64 { return math.MaxInt64 - int64(i%100) },
		"bottom of int64":       func(i int) int64 { return math.MinInt64 + int64(i%100) },
		"wider than the window": func(i int) int64 { return wide[i] },
		"dense, then leaves": func(i int) int64 { // mid-column the domain moves away, both ways
			switch {
			case i < 1500:
				return int64(i % 64)
			case i%2 == 0:
				return 10_000 + int64(i%90)
			default:
				return -5_000 - int64(i%3)
			}
		},
	}
}

// valueAt mixes ordinary prices with the values float addition is
// touchy about.
func valueAt(i int) float64 {
	switch i % 23 {
	case 3:
		return math.Copysign(0, -1)
	case 11:
		return 0
	case 17:
		return math.Inf(1)
	}
	if i%401 == 0 {
		return math.NaN()
	}
	return float64(i%1000)/8 + 0.1
}

// Element by element, the table answers what the map answered: same
// groups, same sum bits, ascending keys — and again after a Drain, on
// the storage it kept.
func TestTableMatchesMap(t *testing.T) {
	const n = 4000
	for name, keyAt := range keyDomains() {
		ref := refTable{}
		for i := 0; i < n; i++ {
			ref.add(Group{Key: keyAt(i), Sum: valueAt(i), Count: 1})
		}
		want := ref.rows()
		var table Table
		for round := 0; round < 2; round++ {
			for i := 0; i < n; i++ {
				c := table.At(keyAt(i))
				c.Sum += valueAt(i)
				c.Count++
			}
			if got := table.Drain(nil); !same(got, want) {
				t.Fatalf("%s, use %d:\n got %+v\nwant %+v", name, round+1, got, want)
			}
		}
		if got := table.Drain(nil); len(got) != 0 {
			t.Fatalf("%s: a drained table still holds %+v", name, got)
		}
	}
}

// Partial tables merged in order answer what merging the maps in the
// same order answers (the executors fold a launch's or a worker's table
// into the scan's).
func TestMergeMatchesMap(t *testing.T) {
	const n, part = 4000, 500
	for name, keyAt := range keyDomains() {
		merged, refMerged := new(Table), refTable{}
		var buf []Group
		for from := 0; from < n; from += part {
			var table Table
			ref := refTable{}
			for i := from; i < from+part; i++ {
				c := table.At(keyAt(i))
				c.Sum += valueAt(i)
				c.Count++
				ref.add(Group{Key: keyAt(i), Sum: valueAt(i), Count: 1})
			}
			buf = table.Drain(buf[:0])
			if want := ref.rows(); !same(buf, want) {
				t.Fatalf("%s part at %d:\n got %+v\nwant %+v", name, from, buf, want)
			}
			merged.Merge(buf)
			for _, g := range buf {
				refMerged.add(g)
			}
		}
		if got, want := merged.Drain(nil), refMerged.rows(); !same(got, want) {
			t.Fatalf("%s merged:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// A group exists while its count is non-zero, in the window and in the
// overflow alike; Drain appends behind what dst already holds.
func TestDrainAppendsLiveGroups(t *testing.T) {
	var table Table
	table.Merge([]Group{{Key: 1, Sum: 2, Count: 1}, {Key: 2, Sum: 9, Count: 0}, {Key: 5000, Sum: 1, Count: 0}, {Key: -7000, Sum: 4, Count: 2}})
	got := table.Drain([]Group{{Key: 99}})
	want := []Group{{Key: 99}, {Key: -7000, Sum: 4, Count: 2}, {Key: 1, Sum: 2, Count: 1}}
	if !same(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestKeysAndFolds(t *testing.T) {
	const n = 1000
	for _, size := range []int{4, 8} {
		for _, stride := range []int{size, 40} {
			vstride := max(stride, 8)
			kdata := make([]byte, n*stride)
			vdata := make([]byte, n*vstride)
			keyAt := func(i int) int64 { return int64(i*13%70) - 35 }
			for i := 0; i < n; i++ {
				if size == 8 {
					binary.LittleEndian.PutUint64(kdata[i*stride:], uint64(keyAt(i)))
				} else {
					binary.LittleEndian.PutUint32(kdata[i*stride:], uint32(int32(keyAt(i))))
				}
				binary.LittleEndian.PutUint64(vdata[i*vstride:], math.Float64bits(valueAt(i)))
			}
			keys := Keys{Data: kdata, Stride: stride, Size: size}
			if !keys.Covers(n) || keys.Covers(n+1) || !keys.Covers(0) {
				t.Fatalf("size %d stride %d: Covers is off", size, stride)
			}
			for i := 0; i < n; i += 97 {
				if keys.At(i) != keyAt(i) {
					t.Fatalf("size %d stride %d: key %d = %d, want %d", size, stride, i, keys.At(i), keyAt(i))
				}
			}
			all, where := refTable{}, refTable{}
			for i := 0; i < n; i++ {
				x := valueAt(i)
				all.add(Group{Key: keyAt(i), Sum: x, Count: 1})
				if 10 <= x && x <= 90 {
					where.add(Group{Key: keyAt(i), Sum: x, Count: 1})
				}
			}
			var table Table
			table.FoldAll(keys, vdata, vstride, n)
			if got := table.Drain(nil); !same(got, all.rows()) {
				t.Fatalf("size %d stride %d: FoldAll = %+v, want %+v", size, stride, got, all.rows())
			}
			table.FoldWhere(keys, vdata, vstride, n, 10, 90)
			if got := table.Drain(nil); !same(got, where.rows()) {
				t.Fatalf("size %d stride %d: FoldWhere = %+v, want %+v", size, stride, got, where.rows())
			}
		}
	}
	for _, bad := range []Keys{{Data: make([]byte, 64), Stride: 2, Size: 4}, {Data: make([]byte, 64), Stride: 8, Size: 3}, {Data: make([]byte, 7), Stride: 4, Size: 4}} {
		if bad.Covers(2) {
			t.Errorf("Covers accepts %d bytes, stride %d, size %d for 2 keys", len(bad.Data), bad.Stride, bad.Size)
		}
	}
}
