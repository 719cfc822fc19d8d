package device

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"hybridstore/internal/compress"
)

// TestKernelShapes drives the one kernel entry through every descriptor
// shape — raw or compressed values, filtered or not, grouped or not —
// under both charging modes, and pins what each shape must keep: the
// answer of a sequential host loop, the launch count (2 for a tree
// reduction, 3 with a decode kernel in front, exactly 1 for the fused
// group kernel), one 24-byte-per-group D2H for grouped launches and none
// otherwise, and a price that is the same whether it advances the clock
// now (GPU) or rides a depth-1 stream's lanes until Wait.
func TestKernelShapes(t *testing.T) {
	const n = 4096
	vals := make([]float64, n)
	keys := make([]byte, n*4)
	img := make([]byte, n*8)
	for i := range vals {
		vals[i] = float64(i % 50)
		binary.LittleEndian.PutUint64(img[i*8:], math.Float64bits(vals[i]))
		binary.LittleEndian.PutUint32(keys[i*4:], uint32(i%3))
	}
	col, err := compress.CompressAs(compress.Dict, img, n, 8)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 10.0, 19.0
	cfg := LaunchConfig{Blocks: 16, ThreadsPerBlock: 64}

	for _, shape := range []struct {
		name                 string
		comp, where, grouped bool
		kernels              int64
	}{
		{"raw", false, false, false, 2},
		{"raw-where", false, true, false, 2},
		{"comp", true, false, false, 3},
		{"comp-where", true, true, false, 3},
		{"raw-group", false, true, true, 1},
		{"comp-group", true, true, true, 1},
	} {
		var charged [2]float64
		for mode, onStream := range []bool{false, true} {
			g, clk := newGPU()
			k := Kernel{Where: shape.where, Lo: lo, Hi: hi, Config: cfg}
			upload := func(b []byte) *Buffer {
				buf, err := g.Alloc(len(b))
				if err != nil {
					t.Fatal(err)
				}
				if err := g.CopyToDevice(buf, 0, b); err != nil {
					t.Fatal(err)
				}
				return buf
			}
			if shape.comp {
				k.Comp = upload(col.Marshal())
			} else {
				k.Vals = Vec{Buf: upload(img), Stride: 8, Size: 8, Len: n}
			}
			if shape.grouped {
				k.Keys = Vec{Buf: upload(keys), Stride: 4, Size: 4, Len: n}
			}
			before := g.Stats()
			clk.Reset()
			var out Partial
			if onStream {
				s := g.NewStreamDepth(1)
				out, err = s.Launch(k)
				s.Wait()
			} else {
				out, err = g.Launch(k)
			}
			if err != nil {
				t.Fatalf("%s: %v", shape.name, err)
			}
			charged[mode] = clk.ElapsedNs()
			after := g.Stats()

			var wantSum float64
			var wantN int64
			groups := map[int64]GroupPartial{}
			for i, x := range vals {
				if shape.where && !(lo <= x && x <= hi) {
					continue
				}
				wantSum += x
				wantN++
				key := int64(i % 3)
				gr := groups[key]
				groups[key] = GroupPartial{Key: key, Sum: gr.Sum + x, Count: gr.Count + 1}
			}
			if !shape.where {
				wantN = 0 // an unfiltered reduction reports no count
			}
			if shape.grouped {
				if len(out.Groups) != len(groups) {
					t.Fatalf("%s: %d groups, want %d", shape.name, len(out.Groups), len(groups))
				}
				for i, gr := range out.Groups {
					if i > 0 && out.Groups[i-1].Key >= gr.Key {
						t.Fatalf("%s: groups not key-sorted", shape.name)
					}
					if groups[gr.Key] != gr {
						t.Fatalf("%s: group %+v, want %+v", shape.name, gr, groups[gr.Key])
					}
				}
			} else if out.Sum != wantSum || out.Count != wantN {
				t.Fatalf("%s: (%v, %d), want (%v, %d)", shape.name, out.Sum, out.Count, wantSum, wantN)
			}
			if got := after.KernelLaunches - before.KernelLaunches; got != shape.kernels {
				t.Errorf("%s: %d launches, want %d", shape.name, got, shape.kernels)
			}
			wantOps, wantBytes := int64(0), int64(0)
			if shape.grouped {
				wantOps, wantBytes = 1, int64(len(groups))*groupPartialBytes
			}
			if ops, bytes := after.DeviceToHostOps-before.DeviceToHostOps, after.DeviceToHostBytes-before.DeviceToHostBytes; ops != wantOps || bytes != wantBytes {
				t.Errorf("%s: D2H %d ops / %d bytes, want %d / %d", shape.name, ops, bytes, wantOps, wantBytes)
			}
		}
		if charged[0] <= 0 || math.Abs(charged[0]-charged[1]) > 1 {
			t.Errorf("%s: GPU charged %.0fns, depth-1 stream %.0fns", shape.name, charged[0], charged[1])
		}
	}
}

// TestKernelSemantics pins the two edges of the descriptor: the
// unfiltered sum includes NaNs (it is not a filter over (-Inf, +Inf)),
// and no grouped kernel exists without a filter.
func TestKernelSemantics(t *testing.T) {
	g, _ := newGPU()
	buf, v, err := fillFloats(g, 64, 8, func(i int) float64 {
		if i == 7 {
			return math.NaN()
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	cfg := LaunchConfig{Blocks: 2, ThreadsPerBlock: 32}
	if out, err := g.Launch(Kernel{Vals: v, Config: cfg}); err != nil || !math.IsNaN(out.Sum) {
		t.Errorf("unfiltered sum over a NaN = (%v, %v), want NaN", out.Sum, err)
	}
	if out, err := g.Launch(Kernel{Vals: v, Where: true, Lo: math.Inf(-1), Hi: math.Inf(1), Config: cfg}); err != nil || out.Sum != 63 || out.Count != 63 {
		t.Errorf("filtered sum over a NaN = (%v, %d, %v), want (63, 63)", out.Sum, out.Count, err)
	}
	if _, err := g.Launch(Kernel{Vals: v, Keys: v, Config: cfg}); !errors.Is(err, ErrBadLaunch) {
		t.Errorf("unfiltered grouped launch: err = %v, want ErrBadLaunch", err)
	}
}

// A grouped launch allocates the result it hands back — once, whatever
// the group count — and nothing per group: the group table is recycled
// across launches, so a 64-group fragment costs what a 1-group fragment
// of the same length does. (With a map of pointers it cost one heap
// object per group per launch plus the map's growth, on every fragment
// of every scan.) Handed the previous launch's table back as its
// Kernel.Groups buffer, the way a scan does, it allocates nothing.
func TestGroupedLaunchAllocsIndependentOfGroups(t *testing.T) {
	const n = 1024
	g, _ := newGPU()
	vbuf, vals, err := fillFloats(g, n, 8, func(i int) float64 { return float64(i % 50) })
	if err != nil {
		t.Fatal(err)
	}
	defer vbuf.Free()
	allocs := func(domain int, reuse bool) float64 {
		raw := make([]byte, n*4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(raw[i*4:], uint32(i%domain))
		}
		kbuf, err := g.Alloc(len(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer kbuf.Free()
		if err := g.CopyToDevice(kbuf, 0, raw); err != nil {
			t.Fatal(err)
		}
		k := Kernel{
			Vals: vals, Keys: Vec{Buf: kbuf, Stride: 4, Size: 4, Len: n},
			Where: true, Lo: 0, Hi: 100, Config: ReduceConfigFor(n),
		}
		s := g.NewStream()
		defer s.Wait()
		return testing.AllocsPerRun(50, func() {
			out, err := s.Launch(k)
			if err != nil || len(out.Groups) != domain {
				t.Fatalf("%d groups, %v; want %d", len(out.Groups), err, domain)
			}
			if reuse {
				k.Groups = out.Groups
			}
		})
	}
	one, many, reused := allocs(1, false), allocs(64, false), allocs(64, true)
	t.Logf("allocs per grouped launch: %.0f with 1 group, %.0f with 64, %.0f with 64 into the caller's buffer", one, many, reused)
	if many > one {
		t.Errorf("a 64-group launch allocates %.0f, a 1-group launch %.0f: grows with the group count", many, one)
	}
	if reused != 0 {
		t.Errorf("a launch into a buffer that holds its table allocates %.0f, want 0", reused)
	}
}

// A grouped launch over a compressed image hands back, bit for bit, the
// group table of the same launch over the raw values — whichever
// encoding holds the image, strided or dense raw values, int32 or int64
// keys, with the values float addition is touchy about (NaN, -0, an
// infinity, adjacent doubles) in the column and on the interval's edge.
func TestGroupedLaunchCompressedMatchesRaw(t *testing.T) {
	const n = 1500
	columns := map[string]func(i int) float64{
		// Runs of three, 40 distinct values: RLE and Dict both apply.
		"specials": func(i int) float64 {
			switch v := i / 3 % 40; v {
			case 5:
				return math.NaN()
			case 6:
				return math.Copysign(0, -1)
			case 7:
				return math.Inf(1)
			default:
				return float64(v) - 4
			}
		},
		// 64 adjacent doubles around 1: FOR frames their bit patterns.
		"adjacent": func(i int) float64 { return math.Float64frombits(math.Float64bits(1) - 32 + uint64(i*7%64)) },
	}
	intervals := [][2]float64{{math.Inf(-1), math.Inf(1)}, {0, 20}, {math.Nextafter(1, 0), 1}, {math.Copysign(0, -1), 0}, {3, 2}}
	for name, gen := range columns {
		img := make([]byte, n*8)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(img[i*8:], math.Float64bits(gen(i)))
		}
		g, _ := newGPU()
		upload := func(b []byte) *Buffer {
			buf, err := g.Alloc(len(b))
			if err != nil {
				t.Fatal(err)
			}
			if err := g.CopyToDevice(buf, 0, b); err != nil {
				t.Fatal(err)
			}
			return buf
		}
		_, strided, err := fillFloats(g, n, 24, gen)
		if err != nil {
			t.Fatal(err)
		}
		raws := map[string]Vec{"dense": {Buf: upload(img), Stride: 8, Size: 8, Len: n}, "strided": strided}
		encoded := 0
		for _, enc := range []compress.Encoding{compress.Raw, compress.RLE, compress.Dict, compress.FOR} {
			col, err := compress.CompressAs(enc, img, n, 8)
			if errors.Is(err, compress.ErrNotApplicable) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			encoded++
			comp := upload(col.Marshal())
			for _, ksize := range []int{4, 8} {
				keys := make([]byte, n*ksize)
				for i := 0; i < n; i++ {
					if key := int64(i*11%300) - 150; ksize == 8 { // wider than the table's slot window
						binary.LittleEndian.PutUint64(keys[i*8:], uint64(key))
					} else {
						binary.LittleEndian.PutUint32(keys[i*4:], uint32(int32(key)))
					}
				}
				k := Kernel{Keys: Vec{Buf: upload(keys), Stride: ksize, Size: ksize, Len: n}, Where: true, Config: ReduceConfigFor(n)}
				for _, iv := range intervals {
					k.Lo, k.Hi = iv[0], iv[1]
					k.Vals, k.Comp = Vec{}, comp
					got, err := g.Launch(k)
					if err != nil {
						t.Fatalf("%s/%v: %v", name, enc, err)
					}
					for shape, raw := range raws {
						k.Vals, k.Comp = raw, nil
						want, err := g.Launch(k)
						if err != nil {
							t.Fatalf("%s/%s: %v", name, shape, err)
						}
						if len(got.Groups) != len(want.Groups) {
							t.Fatalf("%s/%v vs %s, %d-byte keys, [%v, %v]: %d groups, want %d", name, enc, shape, ksize, iv[0], iv[1], len(got.Groups), len(want.Groups))
						}
						for i, gr := range got.Groups {
							if w := want.Groups[i]; gr.Key != w.Key || gr.Count != w.Count || math.Float64bits(gr.Sum) != math.Float64bits(w.Sum) {
								t.Fatalf("%s/%v vs %s, %d-byte keys, [%v, %v]: group %+v, want %+v", name, enc, shape, ksize, iv[0], iv[1], gr, w)
							}
						}
					}
				}
			}
		}
		if encoded < 3 {
			t.Errorf("%s: only %d encodings apply", name, encoded)
		}
	}
}
