package figures

import (
	"fmt"
	"math"

	"hybridstore/internal/exec"
)

// The compression panel measures compressed-domain execution (paper
// Section IV-B, "compression as a storage-engine dimension"): the same
// SUM(x) WHERE predicate runs over 64 frozen fragments in four data
// shapes whose achieved ratios differ — all-distinct values that stay
// raw, a low-cardinality dictionary column, a sorted frame-of-reference
// column and a runny RLE column — on the host and on the device, each
// both uncompressed and in the compressed format. The device legs show
// the bus effect the tentpole is after: a compressed scan ships only
// the encoded image, and a warm rescan through the fragment cache ships
// nothing at all.

// CompressionShape is one data shape of the sweep, with both platforms'
// uncompressed and compressed legs.
type CompressionShape struct {
	// Shape names the generator; Encoding is what Compress actually
	// picked for its fragments.
	Shape, Encoding string
	// RawBytes is the dense column size; CompressedBytes the summed
	// marshaled images; Ratio their quotient.
	RawBytes, CompressedBytes int64
	Ratio                     float64
	// HostNs and HostCompNs are the simulated host scan times over the
	// dense and the compressed fragments.
	HostNs, HostCompNs float64
	// DeviceH2DBytes / DeviceNs are the cold uncached device scan over
	// dense fragments; DeviceCompH2DBytes / DeviceCompNs the cold scan
	// shipping compressed images instead.
	DeviceH2DBytes, DeviceCompH2DBytes int64
	DeviceNs, DeviceCompNs             float64
	// WarmCompH2DBytes is the bus traffic of rescanning the compressed
	// column once its images are cache-resident (zero when everything
	// hit), and WarmHits the cache hits that rescan scored.
	WarmCompH2DBytes, WarmHits int64
	// WarmCompNs is the simulated time of the warm compressed rescan.
	WarmCompNs float64
}

// CompressionSweep is the full panel.
type CompressionSweep struct {
	// Rows is the column size; FragmentRows the rows per frozen fragment.
	Rows, FragmentRows uint64
	// Fragments is the fragment count.
	Fragments int
	// Shapes holds one entry per data shape.
	Shapes []CompressionShape
}

// dataShape generates one data shape: value(i) is row i of the
// column. Values are float64; the shape controls which encoding Compress
// picks per fragment.
type dataShape struct {
	name  string
	value func(i uint64) float64
}

// dataShapes returns the swept shapes for a column cut into
// fragments of fragRows rows.
func dataShapes(fragRows uint64) []dataShape {
	prices := [8]float64{4.99, 9.99, 14.99, 19.99, 24.99, 29.99, 34.99, 39.99}
	base := math.Float64bits(100.0)
	return []dataShape{
		// Every value distinct: incompressible, fragments stay Raw.
		{"distinct", func(i uint64) float64 { return 1 + float64(i)*1.0009 }},
		// Eight distinct prices: one byte of code per 8-byte value.
		{"dict8", func(i uint64) float64 { return prices[(i*2654435761)%8] }},
		// Sorted within each fragment, stepping one ULP per row: the bit
		// patterns are a narrow integer range, so frame-of-reference packs
		// each element into two delta bytes.
		{"sorted-for", func(i uint64) float64 { return math.Float64frombits(base + i%fragRows) }},
		// Runs of 512 identical values.
		{"runny-rle", func(i uint64) float64 { return 5 + float64((i/512)%64) }},
	}
}

// MeasureCompression executes the sweep for real. Every leg's answer is
// cross-checked against a host-side shadow accumulation.
func MeasureCompression(rows uint64, fragments int) (*CompressionSweep, error) {
	fragRows, err := fragmentRows(rows, fragments)
	if err != nil {
		return nil, err
	}
	sweep := &CompressionSweep{Rows: rows, FragmentRows: fragRows, Fragments: fragments}

	for _, shape := range dataShapes(fragRows) {
		vals := make([]float64, rows)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range vals {
			vals[i] = shape.value(uint64(i))
			lo, hi = math.Min(lo, vals[i]), math.Max(hi, vals[i])
		}
		// A half-range predicate: selective enough to filter, closed so the
		// device path admits it.
		p := exec.Between(lo, lo+(hi-lo)/2)
		l := legs{what: "compression " + shape.name, want: shadowSum(vals, p)}

		rawPieces, err := cutPieces(floatColumn(vals, 8), 8, fragments, false)
		if err != nil {
			return nil, err
		}
		compPieces, err := compressPieces(rawPieces)
		if err != nil {
			return nil, err
		}
		row := CompressionShape{Shape: shape.name, RawBytes: int64(rows * 8), Encoding: compPieces[0].Comp.Encoding().String()}
		for _, cp := range compPieces {
			row.CompressedBytes += int64(cp.Comp.MarshaledBytes())
		}
		row.Ratio = float64(row.RawBytes) / float64(row.CompressedBytes)
		plan := exec.Plan{Op: exec.KindSumWhere, Pred: p}
		raw, comp := exec.Scan{Plan: plan, Vals: rawPieces}, exec.Scan{Plan: plan, Vals: compPieces}

		// Host legs: sequential scans with simulated-time charging.
		row.HostNs = l.on(newRig(false), "host", onHost(exec.SingleThreaded, raw)).Ns
		row.HostCompNs = l.on(newRig(false), "host-comp", onHost(exec.SingleThreaded, comp)).Ns

		// Device leg, uncompressed: a cold uncached scan ships the dense
		// column over the bus every time.
		dev := l.on(newRig(false), "device", onCard("compression", raw))
		row.DeviceH2DBytes, row.DeviceNs = dev.H2D, dev.Ns

		// Device leg, compressed: the cold scan ships only the marshaled
		// images into the fragment cache; the warm rescan ships nothing.
		r := newRig(true)
		cold := l.on(r, "device-comp", onCard("compression", comp))
		row.DeviceCompH2DBytes, row.DeviceCompNs = cold.H2D, cold.Ns
		warm := l.on(r, "device-comp-warm", onCard("compression", comp))
		row.WarmCompH2DBytes, row.WarmHits, row.WarmCompNs = warm.H2D, warm.Hits, warm.Ns
		if l.err != nil {
			return nil, l.err
		}
		sweep.Shapes = append(sweep.Shapes, row)
	}
	return sweep, nil
}

// Tables renders the sweep, one row per shape.
func (s *CompressionSweep) Tables() []Table {
	t := Table{
		Caption: []string{
			fmt.Sprintf("compression panel: SUM(x) WHERE over %d rows in %d frozen fragments (%d rows each)",
				s.Rows, s.Fragments, s.FragmentRows),
			"comp legs execute in the compressed domain; device comp legs ship the encoded image over the bus",
		},
		Columns: []Column{
			{CSV: "shape", Text: "shape"},
			{CSV: "encoding", Text: "enc"},
			{CSV: "raw_bytes"},
			{CSV: "compressed_bytes"},
			{CSV: "ratio", Text: "ratio", TextVerb: "%.1fx"},
			{CSV: "host_ns", Text: "host ns", TextVerb: "%.0f"},
			{CSV: "host_comp_ns", Text: "host comp ns", TextVerb: "%.0f"},
			{CSV: "device_h2d_bytes", Text: "dev h2d"},
			{CSV: "device_comp_h2d_bytes", Text: "dev comp h2d"},
			{CSV: "device_ns", Text: "dev ns", TextVerb: "%.0f"},
			{CSV: "device_comp_ns", Text: "dev comp ns", TextVerb: "%.0f"},
			{CSV: "warm_comp_h2d_bytes", Text: "warm h2d"},
			{CSV: "warm_hits", Text: "warm hits"},
			{CSV: "warm_comp_ns"},
		},
	}
	for _, r := range s.Shapes {
		t.Rows = append(t.Rows, []any{r.Shape, r.Encoding, r.RawBytes, r.CompressedBytes, r.Ratio,
			r.HostNs, r.HostCompNs, r.DeviceH2DBytes, r.DeviceCompH2DBytes,
			r.DeviceNs, r.DeviceCompNs, r.WarmCompH2DBytes, r.WarmHits, r.WarmCompNs})
	}
	return []Table{t}
}
