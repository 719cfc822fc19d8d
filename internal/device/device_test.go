package device

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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

// reduceSum launches the plain tree reduction over v on a GPU (charged
// now) or a Stream (charged at Wait).
func reduceSum(on interface{ Launch(Kernel) (Partial, error) }, v Vec, cfg LaunchConfig) (float64, error) {
	out, err := on.Launch(Kernel{Vals: v, Config: cfg})
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
	if err := g.CopyToHost(make([]byte, 32), buf, 0); !errors.Is(err, ErrShortBuffer) {
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
	dst := make([]byte, 32)
	if err := g.CopyToHost(dst, buf, 0); err != nil {
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
	free := g.FreeMemory()
	buf, err := g.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if g.FreeMemory() != free-(1<<20) {
		t.Error("FreeMemory accounting wrong")
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
	if err := g.Scatter(v, []int{3, 7}, vals); err != nil {
		t.Fatal(err)
	}
	sum, err := reduceSum(g, v, LaunchConfig{Blocks: 4, ThreadsPerBlock: 8})
	if err != nil || sum != 4.0 {
		t.Fatalf("post-scatter sum = %v, %v", sum, err)
	}
	if err := g.Scatter(v, []int{99}, vals[:8]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("bad position err = %v", err)
	}
	if err := g.Scatter(v, []int{1, 2}, vals[:8]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("length mismatch err = %v", err)
	}
}

// Property: the device reduction equals a sequential host sum for random
// data, geometry and stride.
func TestQuickReduceMatchesHostSum(t *testing.T) {
	g, _ := newGPU()
	f := func(seed int64, nRaw uint16, blocksRaw, threadsExp uint8) bool {
		n := int(nRaw)%5000 + 1
		blocks := int(blocksRaw)%64 + 1
		threads := 1 << (int(threadsExp)%8 + 1) // 2..256
		r := rand.New(rand.NewSource(seed))
		buf, v, err := fillFloats(g, n, 8, func(int) float64 { return math.Floor(r.Float64() * 1000) })
		if err != nil {
			return false
		}
		defer buf.Free()
		var want float64
		raw, _ := buf.bytes()
		for i := 0; i < n; i++ {
			want += math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		got, err := reduceSum(g, v, LaunchConfig{Blocks: blocks, ThreadsPerBlock: threads})
		return err == nil && math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
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

func TestTreeReduce(t *testing.T) {
	if got := treeReduce(nil); got != 0 {
		t.Errorf("treeReduce(nil) = %v", got)
	}
	if got := treeReduce([]float64{1, 2, 3, 4, 5}); got != 15 {
		t.Errorf("treeReduce = %v, want 15", got)
	}
}
