// Device-side column scans backed by the fragment cache. This is the
// exec-layer face of the paper's "mixed data location" design point
// (Section IV-C): the same Scan the host operators run can be shipped
// to the simulated GPU, and — when a device.FragCache is configured —
// repeated scans over unchanged fragments reuse the resident images and
// cost zero bus bytes. Uploads and kernels run on a Stream, so a cold
// multi-piece scan overlaps each fragment's H2D copy with the previous
// fragment's kernel; pieces already Resident in device memory launch
// directly on the card.
package exec

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"hybridstore/internal/agg"
	"hybridstore/internal/device"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
)

var (
	obsDeviceScan       = obs.NewSpanFamily("exec.device_scan")
	mDeviceSumFallbacks = obs.NewCounter("exec.device_scan.sum_fallbacks")
)

// NoteDeviceFallback records one device leg of a scan of kind k
// abandoned for the host because the card could not hold its images: a
// grouped scan leaves the device-fused path for the host-fused one
// (exec.groupby.fused.fallbacks), a sum its reduction kernels
// (exec.device_scan.sum_fallbacks).
func NoteDeviceFallback(k Kind) {
	if k.Grouped() {
		mGroupFusedFallbacks.Inc()
	} else {
		mDeviceSumFallbacks.Inc()
	}
}

// DeviceScan runs scans on one card.
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

// fragKey is the cache key of a piece's image of column col: the clip of
// its fragment, dense or compressed.
func fragKey(table string, col int, p *Piece) device.FragKey {
	return device.FragKey{Table: table, Frag: p.FragID, Col: col,
		Row0: int(p.Rows.Begin), Rows: p.Vec.Len, Comp: p.Comp != nil}
}

// acquire returns a pin on a device-resident image of the piece's
// column clip — the dense bytes, or for a compressed piece its wire
// image (compress.Column.AppendMarshal, encoded in place), so the bus
// is charged only the encoded length and cached entries occupy
// image-length device bytes (the cache's effective capacity grows by
// the compression ratio). The
// image comes from the cache when the piece is cacheable (hit = zero bus
// bytes; the host-side image is only built inside the upload closure, so
// a hit never materializes it) and from a transient upload through the
// stream otherwise. Releasing the pin returns the image (unpins, or
// frees the transient copy); it must happen after the consuming
// kernel's Wait.
func (d DeviceScan) acquire(s *device.Stream, col int, p *Piece) (device.Pin, error) {
	size := p.Vec.Len * p.Vec.Size
	if p.Comp != nil {
		size = p.Comp.MarshaledBytes()
	}
	upload := func(b *device.Buffer) error {
		if p.Comp != nil {
			return s.CopyImageToDevice(b, 0, p.Comp)
		}
		return s.CopyToDevice(b, 0, denseBytes(p.Vec))
	}
	if d.Cache != nil && p.FragID != 0 {
		pin, _, err := d.Cache.Acquire(fragKey(d.Table, col, p), p.FragVersion, size, upload)
		if !errors.Is(err, device.ErrCachePinned) {
			return pin, err
		}
		// Every resident image is pinned by in-flight scans: degrade to an
		// uncached direct transfer instead of failing the scan. The image
		// ships, computes and frees without ever entering the cache.
	}
	buf, err := d.GPU.Alloc(size)
	if err != nil {
		return device.Pin{}, err
	}
	if err := upload(buf); err != nil {
		buf.Free()
		return device.Pin{}, err
	}
	return device.TransientPin(buf), nil
}

// scanScratch is what one device scan works in and gives back: the
// zone test of every piece against every predicate, each piece's kernel
// operands, the pins held until the stream drains, the host buffer each
// launch's group table lands in, and one group table per result that
// the launches fold into. Only Result.Groups — drained from the tables
// — leaves a scan; the rest is recycled, so a warm scan's garbage does
// not grow with its piece count.
type scanScratch struct {
	admit   []bool
	kernels []device.Kernel
	pins    []device.Pin
	groups  []device.GroupPartial
	tables  []agg.Table
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// release returns every pin, empties the group tables — a grouped scan
// that failed may have folded pieces into them — and recycles the
// scratch.
func (x *scanScratch) release() {
	for i := range x.pins {
		x.pins[i].Release()
	}
	for k := range x.tables {
		x.groups = x.tables[k].Drain(x.groups[:0])
	}
	clear(x.kernels)
	x.admit, x.kernels, x.pins, x.groups = x.admit[:0], x.kernels[:0], x.pins[:0], x.groups[:0]
	scanScratchPool.Put(x)
}

// Scan runs the scan on the card: SUM(val) [, COUNT(*) WHERE p] with the
// tree-reduction kernels, or SUM, COUNT WHERE p GROUP BY key with the
// fused filter+hash-aggregate kernel — exactly ONE launch plus ONE D2H
// (the fragment's group table) per surviving fragment pair and
// admitting predicate, no selection vector or intermediate positions
// ever crossing the bus. The pass is piece-major: each value piece is
// zone-tested against every predicate, and a piece some predicate
// admits is acquired once — through the fragment cache, compressed
// value pieces as their resident compressed images — and launched once
// per predicate that admits it, in piece order, so result k folds
// exactly the launches a scan of predicate k alone would. Pruned pieces
// save both columns' bytes (NoteZoneDecision, once per piece and
// predicate), and a scan with nothing left opens no stream and no span.
// Every image is acquired before any decision is noted or any kernel
// launched, so a card that cannot hold them refuses the scan with
// nothing accounted. What no kernel can run — the unpredicated
// group-by, an empty predicate, compressed group keys — fails with
// ErrBadColumn and the caller falls back to the host path.
func (d DeviceScan) Scan(sc Scan, out []Result) error {
	if err := sc.deviceForm(out); err != nil {
		return err
	}
	clear(out)
	filtered, grouped, nk := sc.Op.Filtered(), sc.Op.Grouped(), len(out)
	x := scanScratchPool.Get().(*scanScratch)
	for i := range sc.Vals {
		for k := range out {
			x.admit = append(x.admit, sc.Vals[i].Vec.Len > 0 && (!filtered || ZoneAdmits(sc.Vals[i].Zone, sc.pred(k))))
		}
	}
	var sp obs.Span      // opened when some predicate admits a piece
	var s *device.Stream // opened by the first piece that has to ship
	defer func() {
		if s != nil {
			s.Wait()
		}
		x.release()
		sp.End()
	}()
	// operand resolves one piece to the kernel's view of it.
	operand := func(col int, p *Piece) (vec device.Vec, comp *device.Buffer, err error) {
		if p.Place == Resident {
			return DeviceVec(p.Vec), nil, nil
		}
		if s == nil {
			s = d.GPU.NewStream()
		}
		pin, err := d.acquire(s, col, p)
		if err != nil {
			return device.Vec{}, nil, err
		}
		x.pins = append(x.pins, pin)
		if p.Comp != nil {
			return device.Vec{}, pin.Buffer(), nil
		}
		return device.Vec{Buf: pin.Buffer(), Stride: p.Vec.Size, Size: p.Vec.Size, Len: p.Vec.Len}, nil, nil
	}
	if slices.Contains(x.admit, true) {
		sp = obsDeviceScan.Start()
	}
	for i := range sc.Vals {
		var k device.Kernel
		if slices.Contains(x.admit[i*nk:(i+1)*nk], true) {
			vp := &sc.Vals[i]
			k = device.Kernel{Where: filtered, Config: device.ReduceConfigFor(vp.Vec.Len)}
			var err error
			if grouped {
				if k.Keys, _, err = operand(sc.KeyCol, &sc.Keys[i]); err != nil {
					return err
				}
			}
			if k.Vals, k.Comp, err = operand(sc.Col, vp); err != nil {
				return err
			}
		}
		x.kernels = append(x.kernels, k)
	}
	x.tables = append(x.tables, make([]agg.Table, max(nk-len(x.tables), 0))...)
	for i, k := range x.kernels {
		for r := range out {
			admit := x.admit[i*nk+r]
			if filtered && sc.Vals[i].Vec.Len > 0 {
				NoteZoneDecision(admit, sc.zoneBytes(i))
			}
			if !admit {
				continue
			}
			if filtered {
				k.Lo, k.Hi, _ = sc.pred(r).Closed()
			}
			// x.groups is the one host buffer every launch's group table
			// lands in: each is folded into its result's table before the
			// next launch overwrites it.
			k.Groups = x.groups
			launch := d.GPU.Launch
			if sc.Vals[i].Place != Resident {
				launch = s.Launch // the piece shipped, so the stream is open
			}
			part, err := launch(k)
			if err != nil {
				return err
			}
			out[r].Sum += part.Sum
			out[r].Count += part.Count
			x.tables[r].Merge(part.Groups)
			x.groups = part.Groups
		}
	}
	for r := 0; grouped && r < nk; r++ {
		out[r].Groups = x.tables[r].Drain(nil)
	}
	return nil
}

// Prime uploads the pieces' images of column col into the fragment cache
// without running any kernel — the warm-restart path: a recovered table
// replays its checkpoint manifest's resident-column list through Prime
// so the first post-restart scans hit a cache in the pre-crash state
// instead of paying cold-miss bus traffic. Pieces ride the same acquire
// path as scans (dense, or compressed when the piece carries an image),
// so a later scan's keys match exactly. A nil cache makes Prime a no-op.
func (d DeviceScan) Prime(col int, pieces []Piece) error {
	if d.Cache == nil {
		return nil
	}
	s := d.GPU.NewStream()
	x := scanScratchPool.Get().(*scanScratch)
	defer func() {
		s.Wait()
		x.release()
	}()
	for i := range pieces {
		pc := &pieces[i]
		if pc.Vec.Len == 0 || pc.FragID == 0 {
			continue
		}
		pin, err := d.acquire(s, col, pc)
		if err != nil {
			return fmt.Errorf("exec: priming col %d: %w", col, err)
		}
		x.pins = append(x.pins, pin)
	}
	return nil
}
