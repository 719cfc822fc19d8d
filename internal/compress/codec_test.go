package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"hybridstore/internal/agg"
)

// rleFrame hand-builds the wire image of an 8-byte RLE column of n
// elements: one value per run (its index) and the given run ends, which
// no encoder would produce if they are not ascending.
func rleFrame(n int, ends ...uint32) []byte {
	out := []byte{byte(RLE), 0, 8, 0}
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ends)))
	for k := range ends {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(float64(k+1)))
	}
	for _, e := range ends {
		out = binary.LittleEndian.AppendUint32(out, e)
	}
	return out
}

// Run ends are untrusted bytes. Decode used to compare only the last
// one with the element count: ends [3, 1, 4] over 4 elements then made
// the grouped operator fold 6 elements of a 4-element column and
// SumWhere spin through a uint32 underflow, and ends [9, 4] indexed the
// key column out of range.
func TestDecodeRejectsBadRunEnds(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		ends []uint32
	}{
		{"descending middle", 4, []uint32{3, 1, 4}},
		{"end beyond the column", 4, []uint32{9, 4}},
		{"empty run", 4, []uint32{2, 2, 4}},
		{"empty first run", 4, []uint32{0, 4}},
		{"no runs for elements", 4, nil},
		{"short of the column", 4, []uint32{1, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if c, err := Decode(rleFrame(tc.n, tc.ends...)); !errors.Is(err, ErrBadInput) {
				t.Fatalf("Decode accepted run ends %v over %d elements: %v, %v", tc.ends, tc.n, c, err)
			}
		})
	}
	c, err := Decode(rleFrame(4, 1, 3, 4))
	if err != nil {
		t.Fatalf("ascending run ends rejected: %v", err)
	}
	if sum, n, err := c.SumFloat64Where(Pred[float64]{Op: OpGT, Lo: 1}); err != nil || sum != 2+2+3 || n != 3 {
		t.Fatalf("sum over runs 1|2 2|3 = (%v, %d, %v)", sum, n, err)
	}
}

// checkDecoded holds a decoded column to its own dense image: every
// access path and operator must agree, bit for bit, with Decompress()
// and an elementwise loop over it.
func checkDecoded(t *testing.T, c *Column) {
	t.Helper()
	n, size := c.Len(), c.ElementSize()
	dense := c.Decompress()
	if len(dense) != n*size {
		t.Fatalf("%v: Decompress gave %d bytes", c, len(dense))
	}
	into, err := c.DecompressInto(make([]byte, n*size))
	if err != nil || !bytes.Equal(into, dense) {
		t.Fatalf("%v: DecompressInto disagrees with Decompress (%v)", c, err)
	}
	el := make([]byte, size)
	for i := 0; i < n; i++ {
		if got, err := c.At(i, el); err != nil || !bytes.Equal(got, dense[i*size:(i+1)*size]) {
			t.Fatalf("%v: At(%d) = %x, %v; dense image has %x", c, i, got, err, dense[i*size:(i+1)*size])
		}
	}
	if d, err := Decode(c.AppendMarshal(nil)); err != nil || !bytes.Equal(d.Decompress(), dense) {
		t.Fatalf("%v: does not survive Marshal and Decode (%v)", c, err)
	}
	if size != 8 {
		if _, err := sumOf(c); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%v: float fold over %d-byte elements: %v", c, size, err)
		}
		return
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(dense[i*8:]))
	}
	keyAt := func(i int) int64 { return int64(i % 5) }
	keys := layKeys(keyCol{"mod 5", keyAt, 4}, n, 4)
	preds := []Pred[float64]{{Op: OpBetween, Lo: math.Inf(-1), Hi: math.Inf(1)}, {Op: OpLT, Hi: 0}}
	if n > 0 {
		preds = append(preds, Pred[float64]{Op: OpEQ, Lo: vals[0]}, Pred[float64]{Op: OpGT, Lo: vals[n/2]})
	}
	// The unfiltered fold first, then each predicate's: all four shapes.
	for k := -1; k < len(preds); k++ {
		where, match, p := k >= 0, func(float64) bool { return true }, Pred[float64]{}
		if where {
			p = preds[k]
			match = p.Match
		}
		var want float64
		var wantN int64
		for _, x := range vals {
			if match(x) {
				want = agg.Add(want, x)
				wantN++
			}
		}
		if !where {
			wantN = 0
		}
		lo, hi, _ := p.Closed()
		if got, gotN, err := c.Fold(where, lo, hi, agg.Keys{}, nil); err != nil || math.Float64bits(got) != math.Float64bits(want) || gotN != wantN {
			t.Fatalf("%v where %v %+v: Fold = (%v, %d, %v), want (%v, %d)", c, where, p, got, gotN, err, want, wantN)
		}
		var table agg.Table
		if _, _, err := c.Fold(where, lo, hi, keys, &table); err != nil {
			t.Fatalf("%v where %v %+v: grouped Fold: %v", c, where, p, err)
		}
		if got, want := table.Drain(nil), refGroups(vals, keyAt, match); !sameGroups(got, want) {
			t.Fatalf("%v where %v %+v: groups %+v, want %+v", c, where, p, got, want)
		}
	}
}

// FuzzDecode feeds Decode arbitrary bytes — compressed images cross the
// simulated bus and sit in the device cache, and the operators behind
// Decode index their payload unchecked. Decode must never panic, and
// whatever it accepts must be a column every operator can run over and
// agrees about.
func FuzzDecode(f *testing.F) {
	for enc, img := range testShapes() {
		c, err := CompressAs(enc, img, len(img)/8, 8)
		if err != nil {
			f.Fatal(err)
		}
		wire := c.AppendMarshal(nil)
		f.Add(wire)
		f.Add(wire[:len(wire)-3]) // a truncated payload
	}
	empty, err := Compress(nil, 0, 8)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty.AppendMarshal(nil))
	narrow, err := Compress([]byte{1, 2, 1, 2, 3, 3}, 3, 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(narrow.AppendMarshal(nil))
	f.Add(rleFrame(4, 3, 1, 4))
	f.Add(rleFrame(4, 9, 4))
	f.Add(rleFrame(4, 2, 2, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadInput) {
				t.Fatalf("Decode failed with %v, not ErrBadInput", err)
			}
			return
		}
		// Element counts come from the header: bound what the check
		// materializes, not what Decode accepts.
		if c.Len()*c.ElementSize() > 1<<20 {
			return
		}
		checkDecoded(t, c)
	})
}

// The fuzz check itself holds on what the encoders produce.
func TestDecodedColumnsAgree(t *testing.T) {
	for enc, img := range testShapes() {
		c, err := CompressAs(enc, img, len(img)/8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if c, err = Decode(c.AppendMarshal(nil)); err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		checkDecoded(t, c)
	}
}
