// Device-side column scans backed by the fragment cache. This is the
// exec-layer face of the paper's "mixed data location" design point
// (Section IV-C): the same Piece lists the host operators scan can be
// shipped to the simulated GPU, and — when a device.FragCache is
// configured — repeated scans over unchanged fragments reuse the resident
// images and cost zero bus bytes. Uploads and kernels run on a Stream, so
// a cold multi-piece scan overlaps each fragment's H2D copy with the
// previous fragment's reduction kernel.
package exec

import (
	"errors"
	"fmt"

	"hybridstore/internal/device"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
)

var obsDeviceScan = obs.NewSpanFamily("exec.device_scan")

// ScanExecutor is the shared face of the device-routed scan operators:
// the single-card DeviceScan and the cross-device MultiDeviceScan satisfy
// it, so engines pick per-environment without caring how many cards are
// behind the scan.
type ScanExecutor interface {
	SumFloat64(col int, pieces []Piece) (float64, error)
	SumFloat64Where(col int, pieces []Piece, p Pred[float64]) (float64, int64, error)
	GroupSumFloat64Where(keyCol, valCol int, keys, vals []Piece, p Pred[float64]) ([]GroupResult, error)
}

// DeviceScan configures device-side scans over exec Pieces.
type DeviceScan struct {
	// GPU is the executing card. Required.
	GPU *device.GPU
	// Cache, when non-nil, keeps uploaded column images device-resident
	// keyed by (Table, fragment, column, clip, version). Nil re-ships
	// every piece on every scan (the pre-cache behavior, and the cold
	// baseline the devicecache panel measures against).
	Cache *device.FragCache
	// Table namespaces cache keys (the owning relation's name).
	Table string
	// Launch overrides the reduction geometry; the zero value picks the
	// paper's 1024×512 grid, falling back to a small grid for inputs
	// shorter than two elements per block.
	Launch device.LaunchConfig
	// Stages overrides the stream pipeline depth (0 = double buffering).
	Stages int
}

// launchFor picks the kernel geometry for an n-element reduction.
func (d DeviceScan) launchFor(n int) device.LaunchConfig {
	if d.Launch.Blocks > 0 {
		return d.Launch
	}
	cfg := device.DefaultReduceConfig()
	if n < cfg.Blocks*2 {
		cfg = device.LaunchConfig{Blocks: 8, ThreadsPerBlock: 64}
	}
	return cfg
}

// denseBytes returns the dense byte image of a column clip, packing
// strided (NSM) vectors into a contiguous run — the host-side pack real
// engines perform before shipping a column image over the bus.
func denseBytes(v layout.ColVector) []byte {
	if v.Contiguous() {
		return v.Data[v.Base : v.Base+v.Len*v.Size]
	}
	out := make([]byte, v.Len*v.Size)
	off := v.Base
	for i := 0; i < v.Len; i++ {
		copy(out[i*v.Size:], v.Data[off:off+v.Size])
		off += v.Stride
	}
	return out
}

// acquirePiece returns a device-resident image of the piece's column
// clip: from the cache when the piece is cacheable (hit = zero bus
// bytes), uploading through the stream otherwise. release returns the
// image (unpins, or frees a transient upload); it must be called after
// the consuming kernel's Wait.
func (d DeviceScan) acquirePiece(s *device.Stream, col int, p Piece) (vec device.Vec, release func(), err error) {
	n := p.Vec.Len
	size := n * p.Vec.Size
	upload := func(buf *device.Buffer) error { return s.CopyToDevice(buf, 0, denseBytes(p.Vec)) }

	if d.Cache != nil && p.FragID != 0 {
		key := device.FragKey{Table: d.Table, Frag: p.FragID, Col: col, Row0: int(p.Rows.Begin), Rows: n}
		buf, unpin, _, err := d.Cache.Acquire(key, p.FragVersion, size, upload)
		if err == nil {
			return device.Vec{Buf: buf, Stride: p.Vec.Size, Size: p.Vec.Size, Len: n}, unpin, nil
		}
		if !errors.Is(err, device.ErrCachePinned) {
			return device.Vec{}, nil, err
		}
		// Every resident image is pinned by in-flight scans: degrade to an
		// uncached direct transfer instead of failing the scan. The image
		// ships, computes and frees without ever entering the cache.
	}

	buf, err := d.GPU.Alloc(size)
	if err != nil {
		return device.Vec{}, nil, err
	}
	if err := upload(buf); err != nil {
		buf.Free()
		return device.Vec{}, nil, err
	}
	return device.Vec{Buf: buf, Stride: p.Vec.Size, Size: p.Vec.Size, Len: n}, buf.Free, nil
}

// acquireCompressed returns a device-resident copy of the piece's
// compressed wire image (compress.Column.Marshal). The bus is charged
// only the image's length — the whole point of compressed transfers —
// and cached entries occupy image-length device bytes, so the cache's
// effective capacity grows by the compression ratio. Marshal runs only
// inside the upload closure: a cache hit never materializes the image
// on the host.
func (d DeviceScan) acquireCompressed(s *device.Stream, col int, p Piece) (buf *device.Buffer, release func(), err error) {
	size := p.Comp.MarshaledBytes()
	upload := func(b *device.Buffer) error { return s.CopyToDevice(b, 0, p.Comp.Marshal()) }

	if d.Cache != nil && p.FragID != 0 {
		key := device.FragKey{Table: d.Table, Frag: p.FragID, Col: col,
			Row0: int(p.Rows.Begin), Rows: p.Comp.Len(), Comp: true}
		b, unpin, _, err := d.Cache.Acquire(key, p.FragVersion, size, upload)
		if err == nil {
			return b, unpin, nil
		}
		if !errors.Is(err, device.ErrCachePinned) {
			return nil, nil, err
		}
		// Pinned-full cache: fall through to an uncached direct transfer.
	}

	b, err := d.GPU.Alloc(size)
	if err != nil {
		return nil, nil, err
	}
	if err := upload(b); err != nil {
		b.Free()
		return nil, nil, err
	}
	return b, b.Free, nil
}

// SumFloat64Where computes SUM(col), COUNT(*) WHERE p over the pieces on
// the device with the fused filter+reduction kernel. Pieces whose zone
// maps exclude the predicate are pruned before any bus traffic (the
// decision is accounted via NoteZoneDecision); surviving pieces are
// acquired through the fragment cache and reduced on a stream. Only
// predicates normalizable to a closed interval run on the device (the
// kernel is branch-free of comparison modes); others fail with
// ErrBadColumn and the caller falls back to the host path.
func (d DeviceScan) SumFloat64Where(col int, pieces []Piece, p Pred[float64]) (float64, int64, error) {
	if err := checkSize8(pieces, "device fused float64 sum"); err != nil {
		return 0, 0, err
	}
	lo, hi, ok := ClosedFloat64(p)
	if !ok {
		return 0, 0, fmt.Errorf("%w: predicate %v has no closed-interval form for the device kernel", ErrBadColumn, p.Op)
	}
	// Zone decisions happen before any device state exists: when every
	// piece is pruned (or empty) the scan returns without opening a
	// stream, so a fully-pruned scan leaves zero device.stream spans and
	// charges nothing but the zone checks.
	var kept []Piece
	for _, pc := range pieces {
		if pc.Vec.Len == 0 {
			continue
		}
		admit := ZoneAdmits(pc.Zone, p)
		NoteZoneDecision(admit, int64(pc.Vec.Len*pc.Vec.Size))
		if admit {
			kept = append(kept, pc)
		}
	}
	if len(kept) == 0 {
		return 0, 0, nil
	}
	sp := obsDeviceScan.Start()
	s := d.newStream()
	var sum float64
	var count int64
	var releases []func()
	defer func() {
		s.Wait()
		for _, r := range releases {
			r()
		}
		sp.End()
	}()
	for _, pc := range kept {
		if pc.Comp != nil {
			buf, release, err := d.acquireCompressed(s, col, pc)
			if err != nil {
				return 0, 0, err
			}
			releases = append(releases, release)
			r, c, err := s.ReduceSumFloat64WhereCompressed(buf, lo, hi, d.launchFor(pc.Comp.Len()))
			if err != nil {
				return 0, 0, err
			}
			sum += r
			count += c
			continue
		}
		vec, release, err := d.acquirePiece(s, col, pc)
		if err != nil {
			return 0, 0, err
		}
		releases = append(releases, release)
		r, c, err := s.ReduceSumFloat64Where(vec, lo, hi, d.launchFor(vec.Len))
		if err != nil {
			return 0, 0, err
		}
		sum += r
		count += c
	}
	return sum, count, nil
}

// SumFloat64 is the unfiltered device reduction over the pieces, with the
// same cache-backed residency.
func (d DeviceScan) SumFloat64(col int, pieces []Piece) (float64, error) {
	if err := checkSize8(pieces, "device float64 sum"); err != nil {
		return 0, err
	}
	var kept []Piece
	for _, pc := range pieces {
		if pc.Vec.Len != 0 {
			kept = append(kept, pc)
		}
	}
	if len(kept) == 0 {
		return 0, nil
	}
	sp := obsDeviceScan.Start()
	s := d.newStream()
	var sum float64
	var releases []func()
	defer func() {
		s.Wait()
		for _, r := range releases {
			r()
		}
		sp.End()
	}()
	for _, pc := range kept {
		if pc.Comp != nil {
			buf, release, err := d.acquireCompressed(s, col, pc)
			if err != nil {
				return 0, err
			}
			releases = append(releases, release)
			r, err := s.ReduceSumFloat64Compressed(buf, d.launchFor(pc.Comp.Len()))
			if err != nil {
				return 0, err
			}
			sum += r
			continue
		}
		vec, release, err := d.acquirePiece(s, col, pc)
		if err != nil {
			return 0, err
		}
		releases = append(releases, release)
		r, err := s.ReduceSumFloat64(vec, d.launchFor(vec.Len))
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum, nil
}

// GroupSumFloat64Where computes SUM(val), COUNT(*) WHERE p GROUP BY key
// on the device with the fused filter+hash-aggregate kernel: per
// surviving fragment pair, the key and value images are acquired
// through the fragment cache and exactly ONE kernel launch plus ONE D2H
// (the fragment's group table) run on the stream — no selection vector
// or intermediate positions ever cross the bus. Value pieces whose zone
// maps exclude the predicate are pruned (both columns' bytes count as
// saved) before any device state exists; a fully-pruned scan opens no
// stream. Compressed value pieces aggregate from their resident
// compressed images; compressed KEY pieces are not supported on the
// device and fail with ErrBadColumn so the caller falls back to the
// host fused path.
func (d DeviceScan) GroupSumFloat64Where(keyCol, valCol int, keys, vals []Piece, p Pred[float64]) ([]GroupResult, error) {
	if err := checkGroupCols(keys, vals); err != nil {
		return nil, err
	}
	lo, hi, ok := ClosedFloat64(p)
	if !ok {
		return nil, fmt.Errorf("%w: predicate %v has no closed-interval form for the device kernel", ErrBadColumn, p.Op)
	}
	var keptK, keptV []Piece
	for i, vp := range vals {
		if vp.Vec.Len == 0 {
			continue
		}
		admit := ZoneAdmits(vp.Zone, p)
		NoteZoneDecision(admit, int64(keys[i].Vec.Len*keys[i].Vec.Size+vp.Vec.Len*vp.Vec.Size))
		if !admit {
			continue
		}
		if keys[i].Comp != nil {
			return nil, fmt.Errorf("%w: compressed group keys are host-only", ErrBadColumn)
		}
		keptK = append(keptK, keys[i])
		keptV = append(keptV, vp)
	}
	if len(keptV) == 0 {
		return nil, nil
	}
	sp := obsDeviceScan.Start()
	s := d.newStream()
	table := make(map[int64]*GroupResult)
	var releases []func()
	defer func() {
		s.Wait()
		for _, r := range releases {
			r()
		}
		sp.End()
	}()
	for i, vp := range keptV {
		keyVec, release, err := d.acquirePiece(s, keyCol, keptK[i])
		if err != nil {
			return nil, err
		}
		releases = append(releases, release)
		var parts []device.GroupPartial
		if vp.Comp != nil {
			buf, rel, err := d.acquireCompressed(s, valCol, vp)
			if err != nil {
				return nil, err
			}
			releases = append(releases, rel)
			parts, err = s.GroupReduceSumFloat64WhereCompressed(keyVec, buf, lo, hi, d.launchFor(vp.Comp.Len()))
			if err != nil {
				return nil, err
			}
		} else {
			valVec, rel, err := d.acquirePiece(s, valCol, vp)
			if err != nil {
				return nil, err
			}
			releases = append(releases, rel)
			parts, err = s.GroupReduceSumFloat64Where(keyVec, valVec, lo, hi, d.launchFor(valVec.Len))
			if err != nil {
				return nil, err
			}
		}
		for _, part := range parts {
			if gr, ok := table[part.Key]; ok {
				gr.Sum += part.Sum
				gr.Count += part.Count
			} else {
				table[part.Key] = &GroupResult{Key: part.Key, Sum: part.Sum, Count: part.Count}
			}
		}
	}
	out := make([]GroupResult, 0, len(table))
	for _, gr := range table {
		out = append(out, *gr)
	}
	SortGroupResults(out)
	return out, nil
}

// newStream opens the scan's command stream at the configured depth.
func (d DeviceScan) newStream() *device.Stream {
	if d.Stages > 0 {
		return d.GPU.NewStreamDepth(d.Stages)
	}
	return d.GPU.NewStream()
}
