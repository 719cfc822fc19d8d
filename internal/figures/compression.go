package figures

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"hybridstore/internal/compress"
	"hybridstore/internal/device"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/perfmodel"
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

// compressionValues generates the column for one shape. Values are
// float64; the shape controls which encoding Compress picks per
// fragment.
func compressionValues(shape string, rows, fragRows uint64) []float64 {
	vals := make([]float64, rows)
	switch shape {
	case "distinct":
		// Every value distinct: incompressible, fragments stay Raw.
		for i := range vals {
			vals[i] = 1 + float64(i)*1.0009
		}
	case "dict8":
		// Eight distinct prices: one byte of code per 8-byte value.
		prices := [8]float64{4.99, 9.99, 14.99, 19.99, 24.99, 29.99, 34.99, 39.99}
		for i := range vals {
			vals[i] = prices[(uint64(i)*2654435761)%8]
		}
	case "sorted-for":
		// Sorted within each fragment, stepping one ULP per row: the bit
		// patterns are a narrow integer range, so frame-of-reference packs
		// each element into two delta bytes.
		base := math.Float64bits(100.0)
		for i := uint64(0); i < rows; i++ {
			vals[i] = math.Float64frombits(base + i%fragRows)
		}
	case "runny-rle":
		// Runs of 512 identical values.
		for i := uint64(0); i < rows; i++ {
			vals[i] = 5 + float64((i/512)%64)
		}
	}
	return vals
}

// MeasureCompression executes the sweep for real. Every leg's answer is
// cross-checked against a host-side shadow accumulation.
func MeasureCompression(rows uint64, fragments int) (*CompressionSweep, error) {
	if fragments < 1 || rows%uint64(fragments) != 0 {
		return nil, fmt.Errorf("figures: rows %d not divisible into %d fragments", rows, fragments)
	}
	fragRows := rows / uint64(fragments)
	sweep := &CompressionSweep{Rows: rows, FragmentRows: fragRows, Fragments: fragments}
	host := perfmodel.DefaultHost()

	for _, shape := range []string{"distinct", "dict8", "sorted-for", "runny-rle"} {
		vals := compressionValues(shape, rows, fragRows)
		dense := make([]byte, rows*8)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range vals {
			binary.LittleEndian.PutUint64(dense[i*8:], math.Float64bits(v))
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		// A half-range predicate: selective enough to filter, closed so the
		// device path admits it.
		p := exec.Between(lo, lo+(hi-lo)/2)
		var wantSum float64
		var wantN int64
		for _, v := range vals {
			if p.Match(v) {
				wantSum += v
				wantN++
			}
		}

		// Build matching dense and compressed piece lists: fragment i
		// covers rows [i*fragRows, (i+1)*fragRows).
		rawPieces := make([]exec.Piece, fragments)
		compPieces := make([]exec.Piece, fragments)
		row := CompressionShape{Shape: shape, RawBytes: int64(rows * 8)}
		for i := 0; i < fragments; i++ {
			begin := uint64(i) * fragRows
			rr := layout.RowRange{Begin: begin, End: begin + fragRows}
			vec := layout.ColVector{
				Data: dense, Base: int(begin * 8),
				Stride: 8, Size: 8, Len: int(fragRows),
			}
			rawPieces[i] = exec.Piece{Rows: rr, Vec: vec, FragID: uint64(i + 1), FragVersion: 1}
			cc, err := compress.Compress(dense[begin*8:(begin+fragRows)*8], int(fragRows), 8)
			if err != nil {
				return nil, fmt.Errorf("figures: compressing %s fragment %d: %w", shape, i, err)
			}
			if i == 0 {
				row.Encoding = cc.Encoding().String()
			}
			row.CompressedBytes += int64(cc.MarshaledBytes())
			compPieces[i] = exec.Piece{
				Rows: rr,
				Vec:  layout.ColVector{Stride: 8, Size: 8, Len: int(fragRows)},
				Comp: cc, FragID: uint64(i + 1), FragVersion: 1,
			}
		}
		row.Ratio = float64(row.RawBytes) / float64(row.CompressedBytes)

		check := func(leg string, sum float64, n int64) error {
			if n != wantN || math.Abs(sum-wantSum) > 1e-6*math.Max(1, math.Abs(wantSum)) {
				return fmt.Errorf("figures: compression %s %s: got (%v, %d), want (%v, %d)",
					shape, leg, sum, n, wantSum, wantN)
			}
			return nil
		}

		// Host legs: sequential scans with simulated-time charging.
		for _, leg := range []struct {
			name   string
			pieces []exec.Piece
			ns     *float64
		}{{"host", rawPieces, &row.HostNs}, {"host-comp", compPieces, &row.HostCompNs}} {
			clock := &perfmodel.Clock{}
			cfg := exec.Config{Policy: exec.SingleThreaded, Host: host, Clock: clock}
			sum, n, err := exec.SumFloat64Where(cfg, leg.pieces, p)
			if err != nil {
				return nil, err
			}
			if err := check(leg.name, sum, n); err != nil {
				return nil, err
			}
			*leg.ns = clock.ElapsedNs()
		}

		// Device leg, uncompressed: a cold uncached scan ships the dense
		// column over the bus every time.
		{
			clock := &perfmodel.Clock{}
			gpu := device.New(perfmodel.DefaultDevice(), clock)
			ds := exec.DeviceScan{GPU: gpu, Table: "compression"}
			sum, n, err := sumWhereOn(ds, 0, rawPieces, p)
			if err != nil {
				return nil, err
			}
			if err := check("device", sum, n); err != nil {
				return nil, err
			}
			row.DeviceH2DBytes = gpu.Stats().HostToDeviceBytes
			row.DeviceNs = clock.ElapsedNs()
		}

		// Device leg, compressed: the cold scan ships only the marshaled
		// images into the fragment cache; the warm rescan ships nothing.
		{
			clock := &perfmodel.Clock{}
			gpu := device.New(perfmodel.DefaultDevice(), clock)
			cache := device.NewFragCache(gpu)
			ds := exec.DeviceScan{GPU: gpu, Cache: cache, Table: "compression"}
			sum, n, err := sumWhereOn(ds, 0, compPieces, p)
			if err != nil {
				return nil, err
			}
			if err := check("device-comp", sum, n); err != nil {
				return nil, err
			}
			row.DeviceCompH2DBytes = gpu.Stats().HostToDeviceBytes
			row.DeviceCompNs = clock.ElapsedNs()

			h0 := cache.Stats().Hits
			sum, n, err = sumWhereOn(ds, 0, compPieces, p)
			if err != nil {
				return nil, err
			}
			if err := check("device-comp-warm", sum, n); err != nil {
				return nil, err
			}
			row.WarmCompH2DBytes = gpu.Stats().HostToDeviceBytes - row.DeviceCompH2DBytes
			row.WarmHits = cache.Stats().Hits - h0
			row.WarmCompNs = clock.ElapsedNs() - row.DeviceCompNs
		}

		sweep.Shapes = append(sweep.Shapes, row)
	}
	return sweep, nil
}

// Render formats the sweep as a fixed-width table.
func (s *CompressionSweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compression panel: SUM(x) WHERE over %d rows in %d frozen fragments (%d rows each)\n",
		s.Rows, s.Fragments, s.FragmentRows)
	b.WriteString("comp legs execute in the compressed domain; device comp legs ship the encoded image over the bus\n")
	rows := [][]string{{"shape", "enc", "ratio", "host ns", "host comp ns",
		"dev h2d", "dev comp h2d", "dev ns", "dev comp ns", "warm h2d", "warm hits"}}
	for _, r := range s.Shapes {
		rows = append(rows, []string{
			r.Shape, r.Encoding,
			fmt.Sprintf("%.1fx", r.Ratio),
			fmt.Sprintf("%.0f", r.HostNs),
			fmt.Sprintf("%.0f", r.HostCompNs),
			fmt.Sprintf("%d", r.DeviceH2DBytes),
			fmt.Sprintf("%d", r.DeviceCompH2DBytes),
			fmt.Sprintf("%.0f", r.DeviceNs),
			fmt.Sprintf("%.0f", r.DeviceCompNs),
			fmt.Sprintf("%d", r.WarmCompH2DBytes),
			fmt.Sprintf("%d", r.WarmHits),
		})
	}
	renderTable(&b, rows)
	return b.String()
}

// CSV renders the sweep as comma-separated values, one row per shape.
func (s *CompressionSweep) CSV() string {
	var b strings.Builder
	b.WriteString("shape,encoding,raw_bytes,compressed_bytes,ratio," +
		"host_ns,host_comp_ns,device_h2d_bytes,device_comp_h2d_bytes," +
		"device_ns,device_comp_ns,warm_comp_h2d_bytes,warm_hits,warm_comp_ns\n")
	for _, r := range s.Shapes {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%g,%g,%g,%d,%d,%g,%g,%d,%d,%g\n",
			r.Shape, r.Encoding, r.RawBytes, r.CompressedBytes, r.Ratio,
			r.HostNs, r.HostCompNs, r.DeviceH2DBytes, r.DeviceCompH2DBytes,
			r.DeviceNs, r.DeviceCompNs, r.WarmCompH2DBytes, r.WarmHits, r.WarmCompNs)
	}
	return b.String()
}
