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
		sum, err := sumOf(c)
		if err != nil || sum != 0 {
			t.Fatalf("%v: empty sum = %v, %v", enc, sum, err)
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
		got, err := sumOf(c)
		if err != nil || math.Abs(got-want) > 1e-9 {
			t.Fatalf("%v sum = %v, %v; want %v", enc, got, err, want)
		}
	}
	// Wrong width.
	c, _ := CompressAs(Raw, make([]byte, 4), 1, 4)
	if _, err := sumOf(c); !errors.Is(err, ErrBadInput) {
		t.Fatalf("4-byte float sum err = %v", err)
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
			// The sum reads the same bits as doubles, in storage order.
			var want float64
			for _, v := range vals {
				want += math.Float64frombits(uint64(v))
			}
			if got, err := sumOf(c); err != nil || math.Float64bits(got) != math.Float64bits(want) {
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
		wire := c.AppendMarshal(nil)
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

// refCompress is the build-all chooser Compress replaced, kept as its
// reference: every scheme is encoded in full by the original map- and
// append-based encoders, and the smallest image wins, ties to the
// earlier scheme with Raw as the incumbent.
func refCompress(data []byte, n, size int) (*Column, error) {
	best, err := refCompressAs(Raw, data, n, size)
	if err != nil {
		return nil, err
	}
	for _, enc := range []Encoding{RLE, Dict, FOR} {
		if c, err := refCompressAs(enc, data, n, size); err == nil && c.CompressedBytes() < best.CompressedBytes() {
			best = c
		}
	}
	return best, nil
}

// refCompressAs is the reference encoder of one scheme.
func refCompressAs(enc Encoding, data []byte, n, size int) (*Column, error) {
	if size <= 0 || n < 0 || len(data) < n*size {
		return nil, ErrBadInput
	}
	c := &Column{enc: enc, n: n, size: size}
	switch enc {
	case Raw:
		c.raw = append([]byte(nil), data[:n*size]...)
	case RLE:
		for i := 0; i < n; i++ {
			el := data[i*size : (i+1)*size]
			if last := c.Runs() - 1; last >= 0 && bytes.Equal(el, c.runVals[last*size:(last+1)*size]) {
				binary.LittleEndian.PutUint32(c.runEnds[last*4:], uint32(i+1))
				continue
			}
			c.runVals = append(c.runVals, el...)
			c.runEnds = binary.LittleEndian.AppendUint32(c.runEnds, uint32(i+1))
		}
	case Dict:
		index := make(map[string]int)
		c.codes = make([]byte, n)
		for i := 0; i < n; i++ {
			el := string(data[i*size : (i+1)*size])
			code, ok := index[el]
			if !ok {
				if len(index) == 256 {
					return nil, ErrNotApplicable
				}
				code = len(index)
				index[el] = code
				c.dict = append(c.dict, el...)
			}
			c.codes[i] = byte(code)
		}
	case FOR:
		if size != 8 {
			return nil, ErrNotApplicable
		}
		if n == 0 {
			return c, nil
		}
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i := 0; i < n; i++ {
			v := int64(binary.LittleEndian.Uint64(data[i*8:]))
			lo, hi = min(lo, v), max(hi, v)
		}
		span := uint64(hi - lo)
		switch {
		case span < 1<<8:
			c.width = 1
		case span < 1<<16:
			c.width = 2
		case span < 1<<32:
			c.width = 4
		default:
			return nil, ErrNotApplicable
		}
		c.base, c.deltas = lo, make([]byte, n*c.width)
		for i := 0; i < n; i++ {
			d := uint64(int64(binary.LittleEndian.Uint64(data[i*8:])) - lo)
			for b := 0; b < c.width; b++ {
				c.deltas[i*c.width+b] = byte(d >> (8 * b))
			}
		}
	default:
		return nil, ErrNotApplicable
	}
	return c, nil
}

// sameImage fails unless got and want are the same column class: both
// errors of one class, or the same encoding with the same wire bytes.
func sameImage(t *testing.T, what string, got *Column, gotErr error, want *Column, wantErr error) {
	t.Helper()
	for _, class := range []error{ErrBadInput, ErrNotApplicable} {
		if errors.Is(gotErr, class) != errors.Is(wantErr, class) {
			t.Fatalf("%s: err %v, reference %v", what, gotErr, wantErr)
		}
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err %v, reference %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Encoding() != want.Encoding() || !bytes.Equal(got.AppendMarshal(nil), want.AppendMarshal(nil)) {
		t.Fatalf("%s: %v image %x, reference %v image %x", what, got.Encoding(), got.AppendMarshal(nil), want.Encoding(), want.AppendMarshal(nil))
	}
}

// checkAgainstReference compares Compress and every CompressAs with the
// reference chooser and encoders on one column.
func checkAgainstReference(t *testing.T, what string, data []byte, n, size int) {
	t.Helper()
	got, gotErr := Compress(data, n, size)
	want, wantErr := refCompress(data, n, size)
	sameImage(t, what+" Compress", got, gotErr, want, wantErr)
	for _, enc := range []Encoding{Raw, RLE, Dict, FOR} {
		got, gotErr := CompressAs(enc, data, n, size)
		want, wantErr := refCompressAs(enc, data, n, size)
		sameImage(t, what+" "+enc.String(), got, gotErr, want, wantErr)
	}
}

// randomColumn draws n elements of size bytes from a pool of card
// distinct random elements, repeated in runs of up to maxRun. At size 8
// the pool is salted with NaN and ±0 float payloads, or is integers
// within a 2^8, 2^16 or 2^32 frame.
func randomColumn(r *rand.Rand, n, size, card, maxRun int) []byte {
	base, frame := r.Int63()-r.Int63(), []int64{0, 0, 1 << 8, 1 << 16, 1 << 32}[r.Intn(5)]
	pool := make([][]byte, card)
	for i := range pool {
		pool[i] = make([]byte, size)
		r.Read(pool[i])
		if size == 8 && frame > 0 {
			binary.LittleEndian.PutUint64(pool[i], uint64(base+r.Int63n(frame)))
		} else if size == 8 && r.Intn(4) == 0 {
			specials := []uint64{0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001, math.Float64bits(math.Copysign(0, -1)), 0}
			binary.LittleEndian.PutUint64(pool[i], specials[r.Intn(len(specials))])
		}
	}
	out := make([]byte, 0, n*size)
	for len(out) < n*size {
		el := pool[r.Intn(card)]
		for run := 1 + r.Intn(maxRun); run > 0 && len(out) < n*size; run-- {
			out = append(out, el...)
		}
	}
	return out
}

// Compress sizes before it encodes; it must choose and build exactly
// what building every scheme would have.
func TestCompressMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 12}
	cards := []int{1, 2, 3, 17, 255, 256, 257, 300, 1 << 20}
	for i := 0; i < 4000; i++ {
		size, card := sizes[r.Intn(len(sizes))], cards[r.Intn(len(cards))]
		n := []int{0, 1, 2, 3, 4, 5, 300}[r.Intn(7)]
		if r.Intn(2) == 0 {
			n = r.Intn(1100)
		}
		if card > 256 && r.Intn(2) == 0 {
			n = 512 + r.Intn(512) // enough rows to see every value of a 257-pool
		}
		data := randomColumn(r, n, size, min(card, max(n, 1)+1), []int{1, 2, 8, 64}[r.Intn(4)])
		checkAgainstReference(t, "random", data, n, size)
	}

	// Exactly 256 vs 257 distinct values, every element size.
	for size := 1; size <= 8; size++ {
		for _, k := range []int{256, 257} {
			if size == 1 && k == 257 {
				continue
			}
			data := make([]byte, 0, 2*k*size)
			for rep := 0; rep < 2; rep++ {
				for v := 0; v < k; v++ {
					for b := 0; b < size; b++ {
						data = append(data, byte(v>>(8*b)))
					}
				}
			}
			checkAgainstReference(t, "distinct", data, 2*k, size)
			if _, err := CompressAs(Dict, data, 2*k, size); (err == nil) != (k == 256) {
				t.Fatalf("%d distinct %d-byte values: Dict err = %v", k, size, err)
			}
		}
	}

	// FOR spans at and around every width edge, from bases near both
	// ends of int64.
	for _, base := range []int64{0, -1 << 40, math.MinInt64, math.MaxInt64 - 1<<33} {
		for _, span := range []int64{0, 1<<8 - 1, 1 << 8, 1<<8 + 1, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1} {
			vals := []int64{base, base + span, base + span/2, base, base + 1}
			if base == math.MinInt64 {
				vals = append(vals, math.MaxInt64) // a span that wraps uint64
			}
			checkAgainstReference(t, "for", encodeInts(vals), len(vals), 8)
		}
	}

	// Ties, each settled for the earlier scheme: a constant int64
	// column of 4 where RLE, Dict and FOR all make 12 bytes; a constant
	// byte column of 5 where RLE makes Raw's 5; two alternating values
	// 1000 apart where Dict and FOR both make 24.
	for _, tie := range []struct {
		data    []byte
		n, size int
		want    Encoding
	}{
		{encodeInts([]int64{7, 7, 7, 7}), 4, 8, RLE},
		{[]byte{9, 9, 9, 9, 9}, 5, 1, Raw},
		{encodeInts([]int64{0, 1000, 0, 1000, 0, 1000, 0, 1000}), 8, 8, Dict},
	} {
		checkAgainstReference(t, "tie", tie.data, tie.n, tie.size)
		if c, _ := Compress(tie.data, tie.n, tie.size); c.Encoding() != tie.want {
			t.Fatalf("tie %x chose %v, want %v", tie.data, c.Encoding(), tie.want)
		}
	}

	// Bad input fails with the same class.
	for _, bad := range []struct {
		data    []byte
		n, size int
	}{{nil, 0, 0}, {nil, -1, 8}, {make([]byte, 4), 2, 8}, {nil, 1, -3}} {
		checkAgainstReference(t, "bad", bad.data, bad.n, bad.size)
	}
}

// Compress of a column that stays raw allocates the Column and its
// payload, nothing for the schemes it sized and rejected.
func TestCompressAllocatesOnlyTheWinner(t *testing.T) {
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(i)*1.37 + 0.5
	}
	data := encodeFloats(vals)
	if c, _ := Compress(data, len(vals), 8); c.Encoding() != Raw {
		t.Fatalf("unique floats chose %v", c.Encoding())
	}
	if allocs := testing.AllocsPerRun(50, func() { Compress(data, len(vals), 8) }); allocs > 2 {
		t.Fatalf("Compress of 1024 unique float64s: %v allocations, want ≤ 2", allocs)
	}
}

// FuzzCompress feeds Compress arbitrary bytes at every element size:
// never a panic, the reference chooser's image, and a wire image that
// decodes back to the input elements.
func FuzzCompress(f *testing.F) {
	for _, img := range testShapes() {
		f.Add(img, uint8(8))
	}
	f.Add([]byte{1, 2, 1, 2, 3, 3}, uint8(2))
	f.Add([]byte{}, uint8(8))
	f.Add(encodeInts([]int64{7, 7, 7, 7}), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		sz := int(size%12) + 1
		n := len(data) / sz
		got, err := Compress(data, n, sz)
		want, wantErr := refCompress(data, n, sz)
		sameImage(t, "fuzz", got, err, want, wantErr)
		if err != nil {
			t.Fatalf("Compress of %d %d-byte elements: %v", n, sz, err)
		}
		back, err := Decode(got.AppendMarshal(nil))
		if err != nil {
			t.Fatalf("Decode(Marshal()) of %v: %v", got.Encoding(), err)
		}
		if !bytes.Equal(back.Decompress(), data[:n*sz]) {
			t.Fatalf("%v round trip differs", got.Encoding())
		}
	})
}
