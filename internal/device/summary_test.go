package device

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// summaryColumn returns n values in one of the shapes a summary meets:
// full-mantissa random, a sorted run, either with NaN, ±0 and ±Inf mixed
// in, or a sorted run with one whole block of NaNs.
func summaryColumn(r *rand.Rand, n int) []float64 {
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	xs := make([]float64, n)
	shape, at := r.Intn(4), r.Float64()*50
	for i := range xs {
		switch shape {
		case 0, 2:
			xs[i] = r.Float64()*100 - 20
		default:
			at += r.Float64() / 4
			xs[i] = at
		}
		if shape >= 2 && r.Intn(8) == 0 {
			xs[i] = special[r.Intn(len(special))]
		}
	}
	if shape == 3 && n > zoneRows {
		b := r.Intn(n / zoneRows)
		for i := b * zoneRows; i < (b+1)*zoneRows; i++ {
			xs[i] = math.NaN()
		}
	}
	return xs
}

// summaryIntervals returns intervals that cover the column's envelope,
// touch its edges, straddle it or miss it, around the non-NaN values xs.
func summaryIntervals(r *rand.Rand, xs []float64) []Interval {
	var ok []float64
	for _, x := range xs {
		if x == x {
			ok = append(ok, x)
		}
	}
	sort.Float64s(ok)
	inf := math.Inf(1)
	ivs := []Interval{{-inf, inf}, {3, 2}, {math.NaN(), 5}, {-inf, math.NaN()}}
	if len(ok) == 0 {
		return ivs
	}
	lo, hi := ok[0], ok[len(ok)-1]
	pick := func() float64 { return ok[r.Intn(len(ok))] }
	a, b := pick(), pick()
	ivs = append(ivs,
		Interval{lo, hi}, Interval{lo - 1, hi + 1}, // cover, on the edges and beyond them
		Interval{math.Nextafter(lo, inf), hi}, Interval{lo, math.Nextafter(hi, -inf)}, // a hair short
		Interval{lo, lo}, Interval{hi, hi}, Interval{-inf, lo}, Interval{hi, inf}, // touch an edge
		Interval{min(a, b), max(a, b)}, Interval{a, math.Nextafter(a, inf)}, // straddle
		Interval{hi + 1, hi + 2}, Interval{lo - 2, lo - 1}, // miss
	)
	return ivs
}

// same reports whether two launch results agree bit for bit.
func same(got, want []Partial) bool {
	for k := range want {
		g, w := got[k], want[k]
		if math.Float64bits(g.Sum) != math.Float64bits(w.Sum) || g.Count != w.Count || len(g.Groups) != len(w.Groups) {
			return false
		}
		for i := range w.Groups {
			if g.Groups[i].Key != w.Groups[i].Key || g.Groups[i].Count != w.Groups[i].Count ||
				math.Float64bits(g.Groups[i].Sum) != math.Float64bits(w.Groups[i].Sum) {
				return false
			}
		}
	}
	return true
}

// TestQuickSummaryMatchesPlainFold launches one segment table twice:
// over write-once cache images, which fold through their summaries —
// covered pairs from the stored totals and memoized group tables, the
// rest block by block — and over transient copies of the same bytes,
// which take the plain loops. Every result must agree bit for bit, K = 1
// and 3, grouped and not, the first cached launch (which builds the
// summaries) and the second (which reads them), and a grouped launch
// over the same values under another key image (which must not read the
// memo of the first).
func TestQuickSummaryMatchesPlainFold(t *testing.T) {
	g, _ := newGPU()
	cache := NewFragCache(g)
	frag := uint64(0)
	f := func(seed int64, grouped bool) bool {
		r := rand.New(rand.NewSource(seed))
		nsegs := 1 + r.Intn(5)
		var cols [][]float64
		var ivs []Interval
		for s := 0; s < nsegs; s++ {
			n := 1 + r.Intn(400)
			if r.Intn(3) == 0 {
				n = zoneRows * (1 + r.Intn(6))
			}
			cols = append(cols, summaryColumn(r, n))
			ivs = append(ivs, summaryIntervals(r, cols[s])...)
		}
		var pins []Pin
		var bufs []*Buffer
		defer func() {
			ReleasePins(pins)
			for _, b := range bufs {
				b.Free()
			}
		}()
		ksize := 4 << r.Intn(2)
		images := func(img []byte) (cached, transient *Buffer) {
			frag++
			pin, _, err := cache.Acquire(FragKey{Table: "t", Frag: frag, Rows: len(img)}, 1, len(img), func(b *Buffer) error {
				return g.CopyToDevice(b, 0, img)
			})
			if err != nil {
				t.Fatal(err)
			}
			buf, err := g.Alloc(len(img))
			if err == nil {
				err = g.CopyToDevice(buf, 0, img)
			}
			if err != nil {
				t.Fatal(err)
			}
			pins, bufs = append(pins, pin), append(bufs, buf)
			return pin.Buffer(), buf
		}
		keyImage := func(n int) []byte {
			img := make([]byte, n*ksize)
			for i := 0; i < n; i++ {
				key := int64(r.Intn(6)) - 2
				if ksize == 8 {
					binary.LittleEndian.PutUint64(img[i*8:], uint64(key<<40))
				} else {
					binary.LittleEndian.PutUint32(img[i*4:], uint32(key))
				}
			}
			return img
		}
		cached, transient, rekeyed := make([]Segment, nsegs), make([]Segment, nsegs), make([]Segment, nsegs)
		for s, xs := range cols {
			img := make([]byte, len(xs)*8)
			for i, x := range xs {
				binary.LittleEndian.PutUint64(img[i*8:], math.Float64bits(x))
			}
			c, tr := images(img)
			cached[s].Vals = Vec{Buf: c, Stride: 8, Size: 8, Len: len(xs)}
			transient[s].Vals = Vec{Buf: tr, Stride: 8, Size: 8, Len: len(xs)}
			rekeyed[s].Vals = cached[s].Vals
			if grouped {
				c, tr := images(keyImage(len(xs)))
				cached[s].Keys = Vec{Buf: c, Stride: ksize, Size: ksize, Len: len(xs)}
				transient[s].Keys = Vec{Buf: tr, Stride: ksize, Size: ksize, Len: len(xs)}
				c, _ = images(keyImage(len(xs)))
				rekeyed[s].Keys = Vec{Buf: c, Stride: ksize, Size: ksize, Len: len(xs)}
			}
		}
		for _, nk := range []int{1, 3} {
			for trial := 0; trial < 4; trial++ {
				where := make([]Interval, nk)
				admit := make([]bool, nsegs*nk)
				for k := range where {
					where[k] = ivs[r.Intn(len(ivs))]
				}
				for i := range admit {
					admit[i] = r.Intn(5) > 0
				}
				run := func(segs []Segment) []Partial {
					out := make([]Partial, nk)
					if err := g.Launch(Kernel{Segs: segs, Where: where, Admit: admit, Config: ReduceConfigFor(1)}, out); err != nil {
						t.Fatal(err)
					}
					return out
				}
				want := run(transient)
				for pass := 0; pass < 2; pass++ {
					if got := run(cached); !same(got, want) {
						t.Logf("seed %d, K=%d, %v, pass %d: cached %+v, plain %+v", seed, nk, where, pass, got, want)
						return false
					}
				}
				if grouped {
					replain := make([]Segment, nsegs)
					for s := range replain {
						replain[s] = Segment{Vals: transient[s].Vals, Keys: rekeyed[s].Keys}
					}
					if got, want := run(rekeyed), run(replain); !same(got, want) {
						t.Logf("seed %d, K=%d, %v, other keys: cached %+v, plain %+v", seed, nk, where, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// cachedFloats uploads xs as a write-once cache image and returns its pin
// and the dense vector over it.
func cachedFloats(t *testing.T, c *FragCache, frag uint64, xs []float64) (Pin, Vec) {
	t.Helper()
	img := make([]byte, len(xs)*8)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(img[i*8:], math.Float64bits(x))
	}
	pin, _, err := c.Acquire(FragKey{Table: "t", Frag: frag, Col: 1, Rows: len(xs)}, 1, len(img), func(b *Buffer) error {
		return c.gpu.CopyToDevice(b, 0, img)
	})
	if err != nil {
		t.Fatal(err)
	}
	return pin, Vec{Buf: pin.Buffer(), Stride: 8, Size: 8, Len: len(xs)}
}

// A covered pair is answered from the summary, not from the bytes: with
// the stored total (and the memoized group table) overwritten by a
// sentinel, an interval that touches the image's envelope exactly at
// both ends answers the sentinel, and one a hair short of an edge folds
// the bytes. So a covered test that admitted only intervals strictly
// wider than the envelope would fail here, though its answers keep their
// bits.
func TestSummaryCoveredPathTaken(t *testing.T) {
	g, _ := newGPU()
	c := NewFragCache(g)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i%100) + 0.5
	}
	pin, vals := cachedFloats(t, c, 1, xs)
	defer pin.Release()
	keys := make([]byte, len(xs)*4)
	kpin, _, err := c.Acquire(FragKey{Table: "t", Frag: 1, Col: 0, Rows: len(xs)}, 1, len(keys), func(b *Buffer) error {
		return g.CopyToDevice(b, 0, keys) // every key 0
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kpin.Release()
	kv := Vec{Buf: kpin.Buffer(), Stride: 4, Size: 4, Len: len(xs)}
	cfg := ReduceConfigFor(len(xs))
	edges := Interval{0.5, 99.5}
	if _, err := launch1(g, one(Segment{Vals: vals, Keys: kv}, cfg, edges)); err != nil {
		t.Fatal(err)
	}
	sm := vals.Buf.summary.Load()
	if sm == nil {
		t.Fatal("a filtered launch over a cache image built no summary")
	}
	const sentinel = 12345.0
	sm.sum, sm.count = sentinel, 1
	sm.groups.Load().groups[0].Sum = sentinel
	if got, err := launch1(g, one(Segment{Vals: vals}, cfg, edges)); err != nil || got.Sum != sentinel {
		t.Errorf("interval on the envelope's edges: sum %v (%v), want the stored total", got.Sum, err)
	}
	if got, err := launch1(g, one(Segment{Vals: vals, Keys: kv}, cfg, edges)); err != nil || len(got.Groups) != 1 || got.Groups[0].Sum != sentinel {
		t.Errorf("grouped, interval on the envelope's edges: %+v (%v), want the memoized table", got.Groups, err)
	}
	short := Interval{math.Nextafter(0.5, 1), 99.5}
	want, _ := launch1(g, one(Segment{Vals: Vec{Data: vals.Buf.data, Stride: 8, Size: 8, Len: len(xs)}}, cfg, short))
	if got, err := launch1(g, one(Segment{Vals: vals}, cfg, short)); err != nil || got.Sum != want.Sum || got.Count != want.Count {
		t.Errorf("interval a hair short: (%v, %d), want the fold's (%v, %d)", got.Sum, got.Count, want.Sum, want.Count)
	}
}

// Concurrent launches share cache images and the summaries built beside
// them: run under -race, every launch — the ones that race to build a
// summary or a group memo included — must return the serial answer.
func TestSummaryConcurrentLaunches(t *testing.T) {
	g, _ := newGPU()
	c := NewFragCache(g)
	r := rand.New(rand.NewSource(7))
	var segs []Segment
	for f := uint64(1); f <= 6; f++ {
		pin, v := cachedFloats(t, c, f, summaryColumn(r, 500))
		defer pin.Release()
		keys := make([]byte, 500*4)
		for i := range keys {
			keys[i] = byte(r.Intn(3))
		}
		kpin, _, err := c.Acquire(FragKey{Table: "t", Frag: f, Rows: 500}, 1, len(keys), func(b *Buffer) error {
			return g.CopyToDevice(b, 0, keys)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer kpin.Release()
		segs = append(segs, Segment{Vals: v, Keys: Vec{Buf: kpin.Buffer(), Stride: 4, Size: 4, Len: 500}})
	}
	plain := make([]Segment, len(segs))
	for s, seg := range segs {
		plain[s] = Segment{
			Vals: Vec{Data: seg.Vals.Buf.data, Stride: 8, Size: 8, Len: 500},
			Keys: Vec{Data: seg.Keys.Buf.data, Stride: 4, Size: 4, Len: 500},
		}
	}
	where := []Interval{{math.Inf(-1), math.Inf(1)}, {10, 30}, {-5, 200}}
	cfg := ReduceConfigFor(3000)
	want := make([]Partial, len(where))
	if err := g.Launch(Kernel{Segs: plain, Where: where, Config: cfg}, want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := make([]Partial, len(where))
				if err := g.Launch(Kernel{Segs: segs, Where: where, Config: cfg}, got); err != nil || !same(got, want) {
					t.Errorf("concurrent launch: %+v (%v), want %+v", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Only write-once cache images get a summary. A transient upload and a
// placed vector (Data, what a gputx column hands the card) can be
// scattered into between launches; each launch must fold the bytes as
// they are then, and neither buffer ever carries a summary.
func TestSummaryOnlyOnWriteOnceImages(t *testing.T) {
	g, _ := newGPU()
	xs := []float64{1, 2, 3, 4}
	buf, transient, err := fillFloats(g, len(xs), 8, func(i int) float64 { return xs[i] })
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	placed := Vec{Data: make([]byte, 32), Stride: 8, Size: 8, Len: 4}
	for i, x := range xs {
		binary.LittleEndian.PutUint64(placed.Data[i*8:], math.Float64bits(x))
	}
	cover := Interval{0, 100}
	for name, v := range map[string]Vec{"transient": transient, "placed": placed} {
		for _, want := range []float64{10, 60} {
			if got, err := launch1(g, one(Segment{Vals: v}, ReduceConfigFor(4), cover)); err != nil || got.Sum != want {
				t.Errorf("%s: sum %v (%v), want %v", name, got.Sum, err, want)
			}
			s := g.NewStream()
			val := make([]byte, 8)
			binary.LittleEndian.PutUint64(val, math.Float64bits(54))
			if err := s.Scatter(v, []int{3}, val); err != nil {
				t.Fatal(err)
			}
			s.Wait()
		}
	}
	if buf.image != 0 || buf.summary.Load() != nil {
		t.Errorf("a transient upload is sealed (%d) or summarized (%v)", buf.image, buf.summary.Load() != nil)
	}
}
