package index

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestHashPutGet(t *testing.T) {
	h := NewHash()
	for i := int64(0); i < 100; i++ {
		if err := h.Put(i*7, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 100 {
		t.Fatalf("Len = %d", h.Len())
	}
	for i := int64(0); i < 100; i++ {
		row, ok := h.Lookup(i * 7)
		if !ok || row != uint64(i) {
			t.Fatalf("Lookup(%d) = %d, %v", i*7, row, ok)
		}
	}
	if _, ok := h.Lookup(1); ok {
		t.Fatal("missing key found")
	}
}

func TestHashDuplicate(t *testing.T) {
	h := NewHash()
	h.Put(1, 1)
	if err := h.Put(1, 2); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
	row, _ := h.Lookup(1)
	if row != 1 {
		t.Fatal("duplicate overwrote")
	}
}

func TestHashGrowthKeepsEverything(t *testing.T) {
	h := NewHash()
	const n = 10_000
	for i := int64(0); i < n; i++ {
		if err := h.Put(i*13+7, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < n; i++ {
		row, ok := h.Lookup(i*13 + 7)
		if !ok || row != uint64(i) {
			t.Fatalf("after growth Lookup(%d) = %d, %v", i*13+7, row, ok)
		}
	}
}

// Property: the index agrees with a model map under random put/get
// sequences over both tiers — a run of random length starting anywhere
// (near either end of int64, where k0+n wraps, and with rows near the
// end of uint64), then puts that break it: keys inside the run and in
// the table again (duplicates), the key that would have extended the run
// (it goes to the table once the table exists), rows unrelated to arrival
// order. The run tier must hold exactly the prefix that did not wrap.
func TestQuickHashModel(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		runLen := r.Intn(300)
		k0 := []int64{r.Int63n(1000) - 500, math.MinInt64 + r.Int63n(4), math.MaxInt64 - int64(r.Intn(runLen+1))}[r.Intn(3)]
		r0 := []uint64{uint64(r.Intn(1000)), math.MaxUint64 - uint64(r.Intn(runLen+1))}[r.Intn(2)]
		h := NewHash()
		model := map[int64]uint64{}
		put := func(k int64, row uint64) bool {
			err := h.Put(k, row)
			if _, exists := model[k]; exists != errors.Is(err, ErrDuplicate) {
				return false
			}
			if err == nil {
				model[k] = row
			}
			return true
		}
		// The run: k0+i -> r0+i, both sums wrapping in two's complement.
		// It holds up to the first pair whose key or row wrapped.
		wantRun := 0
		for i := 0; i < runLen; i++ {
			k, row := k0+int64(i), r0+uint64(i)
			if wantRun == i && (i == 0 || k > k0 && row > r0) {
				wantRun++
			}
			if !put(k, row) {
				return false
			}
		}
		if int(h.n) != wantRun || h.Len() != len(model) {
			return false
		}
		// Keys from around the run: inside it, just past either end, the
		// extending key, and a window beyond.
		key := func() int64 {
			switch r.Intn(4) {
			case 0:
				return k0 + int64(r.Intn(runLen+1))
			case 1:
				return k0 + int64(runLen)
			case 2:
				return k0 - 1 - int64(r.Intn(4))
			}
			return k0 + int64(runLen) + int64(r.Intn(400))
		}
		ops := int(opsRaw)%2000 + 10
		for i := 0; i < ops; i++ {
			k := key()
			switch r.Intn(2) {
			case 0:
				// Half the rows track the keys, so the extending key
				// comes with the extending row.
				row := r.Uint64()
				if r.Intn(2) == 0 {
					row = r0 + uint64(k-k0)
				}
				if !put(k, row) {
					return false
				}
			case 1:
				row, ok := h.Lookup(k)
				want, exists := model[k]
				if exists != ok || (exists && row != want) {
					return false
				}
			}
		}
		for k, want := range model {
			if row, ok := h.Lookup(k); !ok || row != want {
				return false
			}
		}
		return h.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// bytes is what the index keeps beside its header, counted from the
// capacities of its arrays.
func (h *Hash) bytes() int { return 4*cap(h.slots) + 8*cap(h.keys) + 8*cap(h.rows) }

// The footprint a loaded table pays: 1<<17 dense keys (every loader's
// pk == row in row order) keep nothing per key; 1<<17 shuffled keys at
// most 24 B per key. The retained heap must agree with the count.
func TestHashFootprint(t *testing.T) {
	const n = 1 << 17
	for _, tc := range []struct {
		name    string
		keys    []int64
		perKey  int // bytes per key at most, counted from capacities
		slack   int // bytes the heap may retain beyond the count
		wantRun int
	}{
		{"dense", denseKeys(n), 0, 1 << 10, n},
		{"shuffled", shuffledKeys(n, 1), 24, 64 << 10, -1},
	} {
		// A build's retained delta is its own arrays plus whatever the
		// runtime allocated meanwhile, which only adds bytes: the smallest
		// delta over fresh builds is the build's own.
		var h *Hash
		retained := math.MaxInt
		for build := 0; build < 3; build++ {
			h = nil
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			h = NewHash()
			for row, k := range tc.keys {
				if err := h.Put(k, uint64(row)); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			retained = min(retained, int(after.HeapAlloc)-int(before.HeapAlloc))
		}
		if got := h.bytes(); got > tc.perKey*n {
			t.Errorf("%s: %d B in the arrays, %.1f per key; want at most %d", tc.name, got, float64(got)/n, tc.perKey*n)
		}
		if bound := tc.perKey*n + tc.slack; retained > bound {
			t.Errorf("%s: %d B retained, %.1f per key; want at most %d", tc.name, retained, float64(retained)/n, bound)
		}
		if tc.wantRun >= 0 && int(h.n) != tc.wantRun {
			t.Errorf("%s: run of %d keys, want %d", tc.name, h.n, tc.wantRun)
		}
		for row, k := range tc.keys {
			if got, ok := h.Lookup(k); !ok || got != uint64(row) {
				t.Fatalf("%s: Lookup(%d) = %d, %v", tc.name, k, got, ok)
			}
		}
		runtime.KeepAlive(h)
	}
}

func denseKeys(n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	return keys
}

func shuffledKeys(n int, seed int64) []int64 {
	keys := denseKeys(n)
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

var sinkRow uint64

// BenchmarkHash loads 1<<16 keys (row i for the i-th key) and looks each
// up again: dense keys live in the run, shuffled ones in the table.
func BenchmarkHash(b *testing.B) {
	const n = 1 << 16
	for _, bc := range []struct {
		name string
		keys []int64
	}{{"dense", denseKeys(n)}, {"shuffled", shuffledKeys(n, 1)}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := NewHash()
				for row, k := range bc.keys {
					if err := h.Put(k, uint64(row)); err != nil {
						b.Fatal(err)
					}
				}
				for _, k := range bc.keys {
					row, _ := h.Lookup(k)
					sinkRow += row
				}
			}
		})
	}
}
