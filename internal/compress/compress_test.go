package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// encode builds a little-endian int64 column image.
func encodeInts(vals []int64) []byte {
	out := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

func decodeInts(data []byte, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out
}

func TestRoundTripAllEncodings(t *testing.T) {
	vals := []int64{5, 5, 5, 7, 7, 5, 9, 9, 9, 9}
	data := encodeInts(vals)
	for _, enc := range []Encoding{Raw, RLE, Dict, FOR} {
		c, err := CompressAs(enc, data, len(vals), 8)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		got := decodeInts(c.Decompress(), len(vals))
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("%v: element %d = %d, want %d", enc, i, got[i], vals[i])
			}
		}
		if c.Len() != len(vals) || c.ElementSize() != 8 {
			t.Fatalf("%v: metadata broken", enc)
		}
	}
}

func TestRandomAccess(t *testing.T) {
	vals := []int64{1, 1, 2, 3, 3, 3, 4}
	data := encodeInts(vals)
	for _, enc := range []Encoding{Raw, RLE, Dict, FOR} {
		c, err := CompressAs(enc, data, len(vals), 8)
		if err != nil {
			t.Fatal(err)
		}
		tmp := make([]byte, 8)
		for i, want := range vals {
			got, err := c.At(i, tmp)
			if err != nil {
				t.Fatalf("%v At(%d): %v", enc, i, err)
			}
			if int64(binary.LittleEndian.Uint64(got)) != want {
				t.Fatalf("%v At(%d) = %d, want %d", enc, i, binary.LittleEndian.Uint64(got), want)
			}
		}
		if _, err := c.At(len(vals), tmp); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("%v: out-of-range err = %v", enc, err)
		}
		if _, err := c.At(0, make([]byte, 2)); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%v: short buffer err = %v", enc, err)
		}
	}
}

func TestCompressPicksGoodEncoding(t *testing.T) {
	// Constant column: RLE should crush it.
	constant := make([]int64, 10_000)
	for i := range constant {
		constant[i] = 42
	}
	c, err := Compress(encodeInts(constant), len(constant), 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Encoding() != RLE || c.Ratio() < 1000 {
		t.Fatalf("constant column: %v", c)
	}

	// Low-cardinality strings: dictionary.
	codes := []string{"GC", "BC"}
	data := make([]byte, 10_000*2)
	for i := 0; i < 10_000; i++ {
		copy(data[i*2:], codes[i%2])
	}
	c, err = Compress(data, 10_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Encoding() != Dict && c.Encoding() != RLE {
		t.Fatalf("low-cardinality column picked %v", c.Encoding())
	}
	if c.Ratio() < 1.9 {
		t.Fatalf("ratio = %v", c.Ratio())
	}

	// Narrow-range integers: FOR.
	narrow := make([]int64, 10_000)
	for i := range narrow {
		narrow[i] = 1_000_000 + int64(i%200)
	}
	c, err = Compress(encodeInts(narrow), len(narrow), 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Encoding() != FOR || c.Ratio() < 7 {
		t.Fatalf("narrow ints: %v", c)
	}

	// High-entropy data: raw fallback.
	r := rand.New(rand.NewSource(1))
	random := make([]int64, 1000)
	for i := range random {
		random[i] = r.Int63() - r.Int63()
	}
	c, err = Compress(encodeInts(random), len(random), 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Encoding() != Raw {
		t.Fatalf("random ints picked %v with ratio %v", c.Encoding(), c.Ratio())
	}
}

func TestDictRejectsHighCardinality(t *testing.T) {
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(i)
	}
	if _, err := CompressAs(Dict, encodeInts(vals), len(vals), 8); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("err = %v", err)
	}
}

func TestFORRejectsWideSpanAndNon8Byte(t *testing.T) {
	wide := []int64{0, math.MaxInt64}
	if _, err := CompressAs(FOR, encodeInts(wide), 2, 8); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("wide span err = %v", err)
	}
	if _, err := CompressAs(FOR, make([]byte, 8), 2, 4); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("4-byte err = %v", err)
	}
}

func TestFORWidths(t *testing.T) {
	cases := []struct {
		span  int64
		width int
	}{
		{200, 1}, {60_000, 2}, {4_000_000, 4},
	}
	for _, cse := range cases {
		vals := []int64{100, 100 + cse.span}
		c, err := CompressAs(FOR, encodeInts(vals), 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		if c.width != cse.width {
			t.Fatalf("span %d: width = %d, want %d", cse.span, c.width, cse.width)
		}
		got := decodeInts(c.Decompress(), 2)
		if got[0] != 100 || got[1] != 100+cse.span {
			t.Fatalf("span %d round trip = %v", cse.span, got)
		}
	}
}

func TestBadInput(t *testing.T) {
	if _, err := Compress(make([]byte, 4), 2, 8); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short data err = %v", err)
	}
	if _, err := Compress(nil, 0, 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("zero size err = %v", err)
	}
	if _, err := CompressAs(Encoding(9), make([]byte, 8), 1, 8); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("unknown encoding err = %v", err)
	}
}

func TestEmptyColumn(t *testing.T) {
	for _, enc := range []Encoding{Raw, RLE, Dict, FOR} {
		c, err := CompressAs(enc, nil, 0, 8)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		if c.Len() != 0 || len(c.Decompress()) != 0 {
			t.Fatalf("%v: empty column broken", enc)
		}
		sum, err := Sum[int64](c)
		if err != nil || sum != 0 {
			t.Fatalf("%v: empty sum = %d, %v", enc, sum, err)
		}
	}
}

func TestSumInt64FastPaths(t *testing.T) {
	vals := []int64{10, 10, 10, 25, 25, 7}
	var want int64
	for _, v := range vals {
		want += v
	}
	data := encodeInts(vals)
	for _, enc := range []Encoding{Raw, RLE, Dict, FOR} {
		c, err := CompressAs(enc, data, len(vals), 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Sum[int64](c)
		if err != nil || got != want {
			t.Fatalf("%v sum = %d, %v; want %d", enc, got, err, want)
		}
	}
}

func TestSumFloat64FastPaths(t *testing.T) {
	vals := []float64{1.5, 1.5, 2.25, 2.25, 2.25, 9}
	data := make([]byte, len(vals)*8)
	var want float64
	for i, v := range vals {
		binary.LittleEndian.PutUint64(data[i*8:], math.Float64bits(v))
		want += v
	}
	for _, enc := range []Encoding{Raw, RLE, Dict} {
		c, err := CompressAs(enc, data, len(vals), 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.SumFloat64()
		if err != nil || math.Abs(got-want) > 1e-9 {
			t.Fatalf("%v sum = %v, %v; want %v", enc, got, err, want)
		}
	}
	// Wrong width.
	c, _ := CompressAs(Raw, make([]byte, 4), 1, 4)
	if _, err := c.SumFloat64(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("4-byte float sum err = %v", err)
	}
	if _, err := Sum[int64](c); !errors.Is(err, ErrBadInput) {
		t.Fatalf("4-byte int sum err = %v", err)
	}
}

func TestStringer(t *testing.T) {
	c, _ := Compress(encodeInts([]int64{1, 1, 1}), 3, 8)
	if c.String() == "" || Encoding(9).String() == "" {
		t.Fatal("String broken")
	}
}

// Property: for random columns, every encoding that accepts the input
// round-trips exactly, and Compress never loses against Raw.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8, cardRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%500 + 1
		card := int(cardRaw)%20 + 1
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(card)) * 3
		}
		data := encodeInts(vals)
		for _, enc := range []Encoding{Raw, RLE, Dict, FOR} {
			c, err := CompressAs(enc, data, n, 8)
			if errors.Is(err, ErrNotApplicable) {
				continue
			}
			if err != nil {
				return false
			}
			if !bytes.Equal(c.Decompress(), data[:n*8]) {
				return false
			}
			want, got := int64(0), int64(0)
			for _, v := range vals {
				want += v
			}
			if got, err = Sum[int64](c); err != nil || got != want {
				return false
			}
		}
		best, err := Compress(data, n, 8)
		return err == nil && best.CompressedBytes() <= n*8 && bytes.Equal(best.Decompress(), data[:n*8])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// testShapes builds one representative column image per encoding.
func testShapes() map[Encoding][]byte {
	runny := make([]int64, 300)
	for i := range runny {
		runny[i] = int64(i / 50)
	}
	lowCard := make([]int64, 300)
	for i := range lowCard {
		lowCard[i] = int64((i * 7) % 5)
	}
	narrow := make([]int64, 300)
	for i := range narrow {
		narrow[i] = 1_000_000 + int64(i%200)
	}
	distinct := make([]int64, 300)
	for i := range distinct {
		distinct[i] = int64(i)*1_000_003 + 17
	}
	return map[Encoding][]byte{
		RLE:  encodeInts(runny),
		Dict: encodeInts(lowCard),
		FOR:  encodeInts(narrow),
		Raw:  encodeInts(distinct),
	}
}

// TestCompressedCodecRoundTrip checks the wire frame: Marshal produces
// exactly MarshaledBytes, Decode reconstructs a column whose dense
// bytes are bit-identical, and truncated frames are rejected.
func TestCompressedCodecRoundTrip(t *testing.T) {
	for enc, img := range testShapes() {
		c, err := CompressAs(enc, img, len(img)/8, 8)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		wire := c.Marshal()
		if len(wire) != c.MarshaledBytes() {
			t.Errorf("%v: Marshal length %d, MarshaledBytes %d", enc, len(wire), c.MarshaledBytes())
		}
		d, err := Decode(wire)
		if err != nil {
			t.Fatalf("%v: Decode: %v", enc, err)
		}
		if d.Encoding() != enc || d.Len() != c.Len() || d.ElementSize() != 8 {
			t.Fatalf("%v: decoded as %v len %d size %d", enc, d.Encoding(), d.Len(), d.ElementSize())
		}
		if !bytes.Equal(d.Decompress(), img) {
			t.Errorf("%v: round trip corrupted the payload", enc)
		}
		for _, cut := range []int{0, 4, codecHeader - 1, len(wire) - 1} {
			if _, err := Decode(wire[:cut]); err == nil {
				t.Errorf("%v: Decode accepted a frame truncated to %d bytes", enc, cut)
			}
		}
	}
}

// TestDecompressInto checks the bulk decoder against the element loop
// and its destination-size contract.
func TestDecompressInto(t *testing.T) {
	for enc, img := range testShapes() {
		c, err := CompressAs(enc, img, len(img)/8, 8)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		dst := make([]byte, len(img))
		out, err := c.DecompressInto(dst)
		if err != nil {
			t.Fatalf("%v: DecompressInto: %v", enc, err)
		}
		if !bytes.Equal(out, img) {
			t.Errorf("%v: bulk decode differs from the source image", enc)
		}
		// Element loop agreement.
		el := make([]byte, 8)
		for i := 0; i < c.Len(); i++ {
			el, err = c.At(i, el)
			if err != nil {
				t.Fatalf("%v: At(%d): %v", enc, i, err)
			}
			if !bytes.Equal(el, img[i*8:i*8+8]) {
				t.Fatalf("%v: At(%d) disagrees with the image", enc, i)
			}
		}
		if _, err := c.DecompressInto(dst[:len(img)-1]); !errors.Is(err, ErrBadInput) {
			t.Errorf("%v: short destination err = %v, want ErrBadInput", enc, err)
		}
	}
}
