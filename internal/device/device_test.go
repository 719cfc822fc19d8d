package device

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridstore/internal/agg"
	"hybridstore/internal/compress"
	"hybridstore/internal/mem"
	"hybridstore/internal/perfmodel"
)

func newGPU() (*GPU, *perfmodel.Clock) {
	var clk perfmodel.Clock
	return New(perfmodel.DefaultDevice(), &clk), &clk
}

// fillFloats writes n little-endian float64s with the given stride.
func fillFloats(g *GPU, n int, stride int, gen func(i int) float64) (*Buffer, Vec, error) {
	buf, err := g.Alloc(n * stride)
	if err != nil {
		return nil, Vec{}, err
	}
	host := make([]byte, n*stride)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(host[i*stride:], math.Float64bits(gen(i)))
	}
	if err := g.CopyToDevice(buf, 0, host); err != nil {
		return nil, Vec{}, err
	}
	return buf, Vec{Buf: buf, Base: 0, Stride: stride, Size: 8, Len: n}, nil
}

// launcher runs kernels: a GPU (charged now) or a Stream (charged at
// Wait).
type launcher interface {
	Launch(Kernel, []Partial) error
}

// one is the one-segment kernel over seg, filtered to where if given.
func one(seg Segment, cfg LaunchConfig, where ...Interval) Kernel {
	return Kernel{Segs: []Segment{seg}, Where: where, Config: cfg}
}

// launch1 runs a kernel of one result.
func launch1(on launcher, k Kernel) (Partial, error) {
	out := make([]Partial, 1)
	err := on.Launch(k, out)
	return out[0], err
}

// reduceSum launches the plain tree reduction over v.
func reduceSum(on launcher, v Vec, cfg LaunchConfig) (float64, error) {
	out, err := launch1(on, one(Segment{Vals: v}, cfg))
	return out.Sum, err
}

func TestReduceSumFloat64Exact(t *testing.T) {
	g, _ := newGPU()
	n := 10_000
	buf, v, err := fillFloats(g, n, 8, func(i int) float64 { return float64(i) })
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	got, err := reduceSum(g, v, DefaultReduceConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n-1) * float64(n) / 2
	if got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestReduceSumStrided(t *testing.T) {
	// NSM-resident column: 28-byte records, price at offset 20.
	g, _ := newGPU()
	n := 5000
	stride := 28
	buf, err := g.Alloc(n * stride)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	host := make([]byte, n*stride)
	var want float64
	for i := 0; i < n; i++ {
		p := float64(i%97) + 0.5
		want += p
		binary.LittleEndian.PutUint64(host[i*stride+20:], math.Float64bits(p))
	}
	if err := g.CopyToDevice(buf, 0, host); err != nil {
		t.Fatal(err)
	}
	v := Vec{Buf: buf, Base: 20, Stride: stride, Size: 8, Len: n}
	got, err := reduceSum(g, v, LaunchConfig{Blocks: 64, ThreadsPerBlock: 128})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("strided sum = %v, want %v", got, want)
	}
}

func TestReduceEmptyVector(t *testing.T) {
	g, _ := newGPU()
	buf, _ := g.Alloc(8)
	defer buf.Free()
	got, err := reduceSum(g, Vec{Buf: buf, Stride: 8, Size: 8, Len: 0}, DefaultReduceConfig())
	if err != nil || got != 0 {
		t.Fatalf("empty reduce = %v, %v", got, err)
	}
}

func TestLaunchValidation(t *testing.T) {
	g, _ := newGPU()
	buf, _ := g.Alloc(64)
	defer buf.Free()
	v := Vec{Buf: buf, Stride: 8, Size: 8, Len: 8}
	cases := []LaunchConfig{
		{Blocks: 0, ThreadsPerBlock: 128},
		{Blocks: 8, ThreadsPerBlock: 0},
		{Blocks: 8, ThreadsPerBlock: 2048}, // beyond MaxThreadsPerBlock
		{Blocks: 8, ThreadsPerBlock: 96},   // not a power of two
	}
	for _, cfg := range cases {
		if _, err := reduceSum(g, v, cfg); !errors.Is(err, ErrBadLaunch) {
			t.Errorf("cfg %+v: err = %v, want ErrBadLaunch", cfg, err)
		}
	}
	// Wrong element size.
	if _, err := reduceSum(g, Vec{Buf: buf, Stride: 4, Size: 4, Len: 8}, DefaultReduceConfig()); !errors.Is(err, ErrBadLaunch) {
		t.Errorf("size-4 reduce err = %v", err)
	}
}

func TestVecBoundsChecked(t *testing.T) {
	g, _ := newGPU()
	buf, _ := g.Alloc(64)
	defer buf.Free()
	bad := []Vec{
		{Buf: buf, Base: 0, Stride: 8, Size: 8, Len: 9},  // runs past end
		{Buf: buf, Base: -1, Stride: 8, Size: 8, Len: 1}, // negative base
		{Buf: buf, Base: 0, Stride: 4, Size: 8, Len: 1},  // stride < size
		{Buf: buf, Base: 60, Stride: 8, Size: 8, Len: 1}, // tail past end
		{Buf: buf, Base: 0, Stride: 8, Size: 8, Len: -1}, // negative len
	}
	for i, v := range bad {
		if _, err := reduceSum(g, v, DefaultReduceConfig()); !errors.Is(err, ErrShortBuffer) {
			t.Errorf("vec %d: err = %v, want ErrShortBuffer", i, err)
		}
	}
}

func TestCopyBounds(t *testing.T) {
	g, _ := newGPU()
	buf, _ := g.Alloc(16)
	defer buf.Free()
	if err := g.CopyToDevice(buf, 8, make([]byte, 16)); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("overrun copy err = %v", err)
	}
	if err := g.CopyToDevice(buf, -1, make([]byte, 4)); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("negative offset err = %v", err)
	}
	if _, err := g.Gather(buf, 32, []int{0}); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("overread err = %v", err)
	}
}

func TestCopyRoundTripAndStats(t *testing.T) {
	g, clk := newGPU()
	buf, _ := g.Alloc(32)
	defer buf.Free()
	src := []byte("0123456789abcdef0123456789abcdef")
	if err := g.CopyToDevice(buf, 0, src); err != nil {
		t.Fatal(err)
	}
	dst, err := g.Gather(buf, 32, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if string(dst) != string(src) {
		t.Fatal("round trip corrupted data")
	}
	st := g.Stats()
	if st.HostToDeviceBytes != 32 || st.DeviceToHostBytes != 32 || st.HostToDeviceOps != 1 || st.DeviceToHostOps != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if clk.ElapsedNs() < 2*g.Profile().TransferLatencyNs {
		t.Error("transfers did not charge bus latency")
	}
}

func TestUseAfterFree(t *testing.T) {
	g, _ := newGPU()
	buf, _ := g.Alloc(16)
	buf.Free()
	buf.Free() // idempotent
	if buf.Len() != 0 {
		t.Error("freed buffer reports nonzero length")
	}
	if err := g.CopyToDevice(buf, 0, []byte{1}); !errors.Is(err, ErrBufferFreed) {
		t.Errorf("copy-to-freed err = %v", err)
	}
	if _, err := reduceSum(g, Vec{Buf: buf, Stride: 8, Size: 8, Len: 1}, DefaultReduceConfig()); !errors.Is(err, ErrBufferFreed) {
		t.Errorf("reduce-on-freed err = %v", err)
	}
}

func TestDeviceMemoryCapacity(t *testing.T) {
	g, _ := newGPU()
	if _, err := g.Alloc(int(g.Profile().GlobalMemory + 1)); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	used := g.Allocator().Used()
	buf, err := g.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if g.Allocator().Used() != used+(1<<20) {
		t.Error("device memory accounting wrong")
	}
	buf.Free()
}

func TestGather(t *testing.T) {
	g, clk := newGPU()
	const width = 12
	n := 100
	buf, _ := g.Alloc(n * width)
	defer buf.Free()
	host := make([]byte, n*width)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[i*width:], uint32(i))
	}
	g.CopyToDevice(buf, 0, host)
	before := clk.ElapsedNs()
	out, err := g.Gather(buf, width, []int{5, 99, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3*width {
		t.Fatalf("gathered %d bytes", len(out))
	}
	for i, want := range []uint32{5, 99, 0} {
		if got := binary.LittleEndian.Uint32(out[i*width:]); got != want {
			t.Errorf("record %d = %d, want %d", i, got, want)
		}
	}
	if clk.ElapsedNs() <= before {
		t.Error("gather charged no time")
	}
	if _, err := g.Gather(buf, width, []int{n}); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("out-of-range gather err = %v", err)
	}
	if _, err := g.Gather(buf, 0, nil); !errors.Is(err, ErrBadLaunch) {
		t.Errorf("zero-width gather err = %v", err)
	}
}

// syncScatter runs one scatter to completion on a depth-1 stream, which
// charges exactly what a synchronous call would.
func syncScatter(g *GPU, v Vec, positions []int, vals []byte) error {
	s := g.NewStreamDepth(1)
	defer s.Wait()
	return s.Scatter(v, positions, vals)
}

func TestScatter(t *testing.T) {
	g, _ := newGPU()
	n := 16
	buf, _ := g.Alloc(n * 8)
	defer buf.Free()
	g.CopyToDevice(buf, 0, make([]byte, n*8))
	v := Vec{Buf: buf, Stride: 8, Size: 8, Len: n}
	vals := make([]byte, 2*8)
	binary.LittleEndian.PutUint64(vals[0:], math.Float64bits(1.5))
	binary.LittleEndian.PutUint64(vals[8:], math.Float64bits(2.5))
	if err := syncScatter(g, v, []int{3, 7}, vals); err != nil {
		t.Fatal(err)
	}
	sum, err := reduceSum(g, v, LaunchConfig{Blocks: 4, ThreadsPerBlock: 8})
	if err != nil || sum != 4.0 {
		t.Fatalf("post-scatter sum = %v, %v", sum, err)
	}
	if err := syncScatter(g, v, []int{99}, vals[:8]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("bad position err = %v", err)
	}
	if err := syncScatter(g, v, []int{1, 2}, vals[:8]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("length mismatch err = %v", err)
	}
}

// TestQuickReduceMatchesHostSum launches random non-integer columns, raw
// (dense or strided) and as a Raw compressed image, filtered and not,
// under random launch geometry: every leg returns the bits and count of
// a host loop folding in ascending element order.
func TestQuickReduceMatchesHostSum(t *testing.T) {
	g, _ := newGPU()
	f := func(seed int64, nRaw uint16, blocksRaw, threadsExp uint8, strided bool) bool {
		n := int(nRaw)%5000 + 1
		blocks := int(blocksRaw)%64 + 1
		threads := 1 << (int(threadsExp)%8 + 1) // 2..256
		r := rand.New(rand.NewSource(seed))
		vals := make([]float64, n)
		img := make([]byte, n*8)
		for i := range vals {
			vals[i] = r.Float64() * 100
			binary.LittleEndian.PutUint64(img[i*8:], math.Float64bits(vals[i]))
		}
		lo, hi := r.Float64()*50, 50+r.Float64()*50
		var wantSum, wantWhere float64
		var wantN int64
		for _, x := range vals {
			wantSum += x
			if lo <= x && x <= hi {
				wantWhere += x
				wantN++
			}
		}
		stride := 8
		if strided {
			stride = 24
		}
		buf, v, err := fillFloats(g, n, stride, func(i int) float64 { return vals[i] })
		if err != nil {
			t.Fatal(err)
		}
		defer buf.Free()
		col, err := compress.CompressAs(compress.Raw, img, n, 8)
		if err != nil {
			t.Fatal(err)
		}
		image := col.AppendMarshal(nil)
		comp, err := g.Alloc(len(image))
		if err != nil {
			t.Fatal(err)
		}
		defer comp.Free()
		if err := g.CopyToDevice(comp, 0, image); err != nil {
			t.Fatal(err)
		}
		cfg := LaunchConfig{Blocks: blocks, ThreadsPerBlock: threads}
		for _, seg := range []Segment{{Vals: v}, {Comp: comp}} {
			got, err := launch1(g, one(seg, cfg))
			if err != nil || math.Float64bits(got.Sum) != math.Float64bits(wantSum) || got.Count != 0 {
				t.Logf("n=%d comp=%v sum: (%v, %d, %v), want %v", n, seg.Comp != nil, got.Sum, got.Count, err, wantSum)
				return false
			}
			got, err = launch1(g, one(seg, cfg, Interval{lo, hi}))
			if err != nil || math.Float64bits(got.Sum) != math.Float64bits(wantWhere) || got.Count != wantN {
				t.Logf("n=%d comp=%v sum_where: (%v, %d, %v), want (%v, %d)", n, seg.Comp != nil, got.Sum, got.Count, err, wantWhere, wantN)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSegmentedLaunchMatchesPieceFolds launches random segment
// tables — raw and compressed segments, empty ones, values with −0 and
// ±Inf, one to three intervals under a random admit matrix, scalar and
// grouped — and checks every result bit for bit against the host folds
// of each piece on its own (agg.SumWhere / agg.SumAll, agg.Table.FoldWhere,
// compress.Column.Fold) added up in piece order: per segment, as the
// one-segment launch of that piece, and combined, as the launch of the
// whole table. The launch count stays 2 (3 with a compressed segment)
// for a reduction and 1 for the group kernel, whatever the table.
func TestQuickSegmentedLaunchMatchesPieceFolds(t *testing.T) {
	g, _ := newGPU()
	special := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	f := func(seed int64, grouped bool) bool {
		r := rand.New(rand.NewSource(seed))
		nk := 1 + r.Intn(3)
		where := make([]Interval, nk)
		for k := range where {
			lo := r.Float64()*60 - 10
			where[k] = Interval{lo, lo + r.Float64()*60}
		}
		if r.Intn(4) == 0 {
			where[0] = Interval{math.Inf(-1), math.Inf(1)}
		}
		if !grouped && r.Intn(4) == 0 {
			where, nk = nil, 1 // the unfiltered reduction
		}
		type piece struct {
			vals []byte
			n    int
			col  *compress.Column
			keys agg.Keys
		}
		pieces := make([]piece, 1+r.Intn(8))
		segs := make([]Segment, len(pieces))
		admit := make([]bool, len(pieces)*nk)
		var bufs []*Buffer
		upload := func(b []byte) *Buffer {
			buf, err := g.Alloc(max(len(b), 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := g.CopyToDevice(buf, 0, b); err != nil {
				t.Fatal(err)
			}
			bufs = append(bufs, buf)
			return buf
		}
		defer func() {
			for _, b := range bufs {
				b.Free()
			}
		}()
		anyComp := false
		for s := range pieces {
			p := &pieces[s]
			if r.Intn(5) > 0 {
				p.n = r.Intn(300)
			}
			p.vals = make([]byte, p.n*8)
			kimg := make([]byte, p.n*4)
			for i := 0; i < p.n; i++ {
				x := r.Float64() * 40 // full mantissas: any other fold order shows in the bits
				if r.Intn(10) == 0 {
					x = special[r.Intn(len(special))]
				}
				binary.LittleEndian.PutUint64(p.vals[i*8:], math.Float64bits(x))
				binary.LittleEndian.PutUint32(kimg[i*4:], uint32(r.Intn(5)))
			}
			p.keys = agg.Keys{Data: kimg, Stride: 4, Size: 4}
			if grouped {
				segs[s].Keys = Vec{Buf: upload(kimg), Stride: 4, Size: 4, Len: p.n}
			}
			if p.n > 0 && r.Intn(2) == 0 {
				for _, enc := range []compress.Encoding{compress.RLE, compress.Dict, compress.FOR, compress.Raw} {
					if col, err := compress.CompressAs(enc, p.vals, p.n, 8); err == nil {
						p.col = col
						break
					}
				}
				segs[s].Comp, anyComp = upload(p.col.AppendMarshal(nil)), true
			} else {
				segs[s].Vals = Vec{Buf: upload(p.vals), Stride: 8, Size: 8, Len: p.n}
			}
			for k := 0; k < nk; k++ {
				admit[s*nk+k] = r.Intn(4) > 0
			}
		}
		// The host folds: each piece on its own, then in piece order.
		want := make([]Partial, nk)
		tables := make([]agg.Table, nk)
		perSeg := make([][]Partial, len(pieces))
		for s, p := range pieces {
			perSeg[s] = make([]Partial, nk)
			for k := 0; k < nk; k++ {
				var iv Interval
				if where != nil {
					iv = where[k]
				}
				var part Partial
				var table agg.Table
				switch {
				case grouped && p.col != nil:
					if _, _, err := p.col.Fold(true, iv.Lo, iv.Hi, p.keys, &table); err != nil {
						t.Fatal(err)
					}
				case grouped:
					table.FoldWhere(p.keys, p.vals, 8, p.n, iv.Lo, iv.Hi)
				case p.col != nil:
					var err error
					if part.Sum, part.Count, err = p.col.Fold(where != nil, iv.Lo, iv.Hi, agg.Keys{}, nil); err != nil {
						t.Fatal(err)
					}
				case where != nil:
					part.Sum, part.Count = agg.SumWhere(p.vals, 8, p.n, iv.Lo, iv.Hi)
				default:
					part.Sum = agg.SumAll(p.vals, 8, p.n)
				}
				part.Groups = table.Drain(nil)
				perSeg[s][k] = part
				if admit[s*nk+k] {
					want[k].Sum += part.Sum
					want[k].Count += part.Count
					tables[k].Merge(part.Groups)
				}
			}
		}
		for k := range want {
			want[k].Groups = tables[k].Drain(nil)
		}
		same := func(what string, got, want []Partial) bool {
			for k := range want {
				a, b := got[k], want[k]
				ok := math.Float64bits(a.Sum) == math.Float64bits(b.Sum) && a.Count == b.Count && len(a.Groups) == len(b.Groups)
				for i := 0; ok && i < len(a.Groups); i++ {
					ok = a.Groups[i].Key == b.Groups[i].Key && a.Groups[i].Count == b.Groups[i].Count &&
						math.Float64bits(a.Groups[i].Sum) == math.Float64bits(b.Groups[i].Sum)
				}
				if !ok {
					t.Logf("seed %d grouped=%v %s, interval %d: %+v, want %+v", seed, grouped, what, k, a, b)
					return false
				}
			}
			return true
		}
		cfg := ReduceConfigFor(300)
		for s := range segs {
			got := make([]Partial, nk)
			if err := g.Launch(Kernel{Segs: segs[s : s+1], Where: where, Config: cfg}, got); err != nil {
				t.Fatal(err)
			}
			if !same(fmt.Sprintf("segment %d", s), got, perSeg[s]) {
				return false
			}
		}
		before := g.Stats().KernelLaunches
		got := make([]Partial, nk)
		if err := g.Launch(Kernel{Segs: segs, Where: where, Admit: admit, Config: cfg}, got); err != nil {
			t.Fatal(err)
		}
		launches := int64(2)
		if grouped {
			launches = 1
		} else if anyComp {
			launches = 3
		}
		if n := g.Stats().KernelLaunches - before; n != launches {
			t.Logf("seed %d grouped=%v: %d launches for the table, want %d", seed, grouped, n, launches)
			return false
		}
		return same("combined", got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmLaunchAllocatesNothing pins the raw reduction legs at zero
// allocations per warm launch: the card folds in the caller, with no
// worker goroutines and no scratch.
func TestWarmLaunchAllocatesNothing(t *testing.T) {
	g, _ := newGPU()
	for _, n := range []int{1, 4096, 100_000} {
		buf, v, err := fillFloats(g, n, 8, func(i int) float64 { return float64(i%97) + 0.25 })
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Partial, 1)
		for _, where := range []bool{false, true} {
			k := one(Segment{Vals: v}, ReduceConfigFor(n))
			if where {
				k.Where = []Interval{{10, 50}}
			}
			if err := g.Launch(k, out); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(20, func() { g.Launch(k, out) }); allocs != 0 {
				t.Errorf("n=%d where=%v: %.1f allocations per warm launch, want 0", n, where, allocs)
			}
		}
		buf.Free()
	}
}

func TestKernelChargesModelTime(t *testing.T) {
	g, clk := newGPU()
	n := 1_000_000
	buf, v, err := fillFloats(g, n, 8, func(i int) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	clk.Reset()
	if _, err := reduceSum(g, v, DefaultReduceConfig()); err != nil {
		t.Fatal(err)
	}
	want := g.Profile().ReduceKernelNs(int64(n), 8, 8, 1024, 512)
	if math.Abs(clk.ElapsedNs()-want) > 1 {
		t.Errorf("charged %.0fns, want %.0fns", clk.ElapsedNs(), want)
	}
}

func TestNilClockIsSafe(t *testing.T) {
	g := New(perfmodel.DefaultDevice(), nil)
	buf, v, err := fillFloats(g, 100, 8, func(i int) float64 { return float64(i) })
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	if _, err := reduceSum(g, v, LaunchConfig{Blocks: 2, ThreadsPerBlock: 32}); err != nil {
		t.Fatal(err)
	}
}

// An image encoded in place is the upload of its AppendMarshal bytes:
// the same device bytes, the same counters, the same charge at Wait —
// and a buffer too short for it is refused, as a copy would be.
func TestCopyImageMatchesCopy(t *testing.T) {
	vals := make([]byte, 8*300)
	for i := 0; i < 300; i++ {
		binary.LittleEndian.PutUint64(vals[8*i:], uint64(i%7))
	}
	col, err := compress.Compress(vals, 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	img := col.AppendMarshal(nil)
	upload := func(image bool) ([]byte, TransferStats, float64) {
		g, clk := newGPU()
		buf, _ := g.Alloc(len(img) + 16)
		defer buf.Free()
		s := g.NewStream()
		if image {
			err = s.CopyImageToDevice(buf, 16, col)
		} else {
			err = s.CopyToDevice(buf, 16, img)
		}
		if err != nil {
			t.Fatal(err)
		}
		s.Wait()
		got, err := g.Gather(buf, len(img)+16, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		return got, g.Stats(), clk.ElapsedNs()
	}
	wantBytes, wantStats, wantNs := upload(false)
	gotBytes, gotStats, gotNs := upload(true)
	if !bytes.Equal(gotBytes, wantBytes) || gotStats != wantStats || gotNs != wantNs {
		t.Fatalf("in-place image upload: stats %+v, %v ns; copy: %+v, %v ns (bytes equal: %v)",
			gotStats, gotNs, wantStats, wantNs, bytes.Equal(gotBytes, wantBytes))
	}
	g, _ := newGPU()
	short, _ := g.Alloc(len(img) - 1)
	defer short.Free()
	if err := g.NewStream().CopyImageToDevice(short, 0, col); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short buffer: err = %v", err)
	}
	if st := g.Stats(); st.HostToDeviceBytes != 0 {
		t.Fatalf("a refused upload counted %d bytes", st.HostToDeviceBytes)
	}
}

// TestGatherChargesOverlapOnce pins the transfer-pricing fix: a Gather
// costs exactly one combined OverlapNs(transfer, kernel, 1) charge —
// symmetric with Scatter — rather than separate kernel and transfer
// charges drifting apart from the stream paths.
func TestGatherChargesOverlapOnce(t *testing.T) {
	g, clk := newGPU()
	const n, width = 1024, 16
	buf, err := g.Alloc(n * width)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	if err := g.CopyToDevice(buf, 0, make([]byte, n*width)); err != nil {
		t.Fatal(err)
	}
	positions := []int{1, 3, 5, 7, 11}

	before := clk.ElapsedNs()
	out, err := g.Gather(buf, width, positions)
	if err != nil {
		t.Fatal(err)
	}
	got := clk.ElapsedNs() - before

	prof := g.Profile()
	want := prof.OverlapNs(
		prof.TransferNs(int64(len(out))),
		prof.GatherKernelNs(int64(len(positions)), int64(n), width), 1)
	if got != want {
		t.Fatalf("gather charged %v ns, want single overlap charge %v ns", got, want)
	}
}
