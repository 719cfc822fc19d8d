// Device-side column scans backed by the fragment cache. This is the
// exec-layer face of the paper's "mixed data location" design point
// (Section IV-C): the same Scan the host operators run can be shipped
// to the simulated GPU, and — when a device.FragCache is configured —
// repeated scans over unchanged fragments reuse the resident images and
// cost zero bus bytes. A scan is one segmented kernel per column over
// every surviving piece; uploads and the kernel run on a Stream, so a
// cold scan overlaps the H2D copies with the compute, and a scan of
// pieces already Resident in device memory launches directly on the
// card.
package exec

import (
	"errors"
	"fmt"
	"sync"

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
	if r := d.request(col, p); r.Key.Frag != 0 {
		pin, _, err := d.Cache.Acquire(r.Key, r.Version, size, upload)
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
// zone test of every surviving piece against every predicate, the
// survivors' piece indexes and kernel segments, the predicates'
// intervals, the cache requests of the images to ship, the stream they
// ship on and the pins held until it drains, and the launch's partials.
// Only the partials' group tables leave a scan; the rest is recycled, so
// a warm scan allocates nothing else.
type scanScratch struct {
	admit  []bool
	of     []int
	segs   []device.Segment
	where  []device.Interval
	reqs   []device.CacheReq
	stream device.Stream
	pins   []device.Pin
	parts  []device.Partial
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// release recycles the scratch, every device buffer reference cleared.
func (x *scanScratch) release() {
	clear(x.segs)
	x.admit, x.of, x.segs, x.where, x.reqs = x.admit[:0], x.of[:0], x.segs[:0], x.where[:0], x.reqs[:0]
	scanScratchPool.Put(x)
}

// Scan runs the scan on the card as ONE segmented launch per column:
// SUM(val) [, COUNT(*) WHERE p] with the tree-reduction kernels, or SUM,
// COUNT WHERE p GROUP BY key with the fused filter+hash-aggregate kernel
// — no selection vector or intermediate positions ever crossing the bus,
// whatever the cohort's size. Each value piece is zone-tested against
// every predicate; a piece some predicate admits becomes one segment,
// acquired once — through the fragment cache, compressed value pieces as
// their resident compressed images — and the kernel folds it for every
// predicate that admits it, so result k has the bits of a solo scan of
// predicate k (device.Kernel). Pruned pieces save both columns' bytes,
// noted per piece and predicate, and a scan with nothing left opens no
// stream and no span. Every image is acquired before any decision is
// noted or the kernel launched, so a card that cannot hold them refuses
// the scan with nothing accounted. What no kernel can run — the
// unpredicated group-by, an empty predicate, compressed group keys —
// fails with ErrBadColumn and the caller falls back to the host path.
func (d DeviceScan) Scan(sc Scan, out []Result) error {
	if err := sc.deviceForm(out); err != nil {
		return err
	}
	filtered, grouped, nk := sc.Op.Filtered(), sc.Op.Grouped(), len(out)
	if !filtered {
		nk = 1 // every result is the one unfiltered sum
	}
	x := scanScratchPool.Get().(*scanScratch)
	defer x.release()
	var scanned, pruned, prunedBytes int64
	elems := 0
	for i := range sc.Vals {
		vp, row, live := &sc.Vals[i], len(x.admit), false
		for k := 0; k < nk; k++ {
			admit := vp.Vec.Len > 0 && (!filtered || ZoneAdmits(vp.Zone, sc.pred(k)))
			x.admit, live = append(x.admit, admit), live || admit
			if filtered && vp.Vec.Len > 0 && !admit {
				pruned, prunedBytes = pruned+1, prunedBytes+sc.zoneBytes(i)
			} else if filtered && vp.Vec.Len > 0 {
				scanned++
			}
		}
		if !live {
			x.admit = x.admit[:row]
			continue
		}
		x.of, elems = append(x.of, i), elems+vp.Vec.Len
		if vp.Place != Resident && grouped {
			x.reqs = append(x.reqs, d.request(sc.KeyCol, &sc.Keys[i]))
		}
		if vp.Place != Resident {
			x.reqs = append(x.reqs, d.request(sc.Col, vp))
		}
	}
	x.parts = append(x.parts[:0], make([]device.Partial, nk)...)
	for k := 0; grouped && k < nk; k++ {
		x.parts[k].Groups = out[k].Groups[:0]
	}
	if len(x.of) > 0 {
		if err := d.launch(sc, x, elems); err != nil {
			return err
		}
	}
	NoteZoneDecisions(scanned, pruned, prunedBytes)
	for k := range out {
		p := x.parts[k%nk]
		out[k] = Result{Sum: p.Sum, Count: p.Count, Groups: p.Groups}
	}
	clear(x.parts)
	return nil
}

// launch acquires the images of the scan's surviving pieces x.of, whose
// requests x.reqs holds — the cache's hits under one lock, then the
// misses — and runs them as one kernel into x.parts. The pins are
// released once the stream drains.
func (d DeviceScan) launch(sc Scan, x *scanScratch, elems int) (err error) {
	sp := obsDeviceScan.Start()
	var s *device.Stream // open when some piece ships
	if len(x.reqs) > 0 {
		s = x.stream.Reopen(d.GPU)
	}
	x.pins = append(x.pins[:0], make([]device.Pin, len(x.reqs))...)
	defer func() {
		if s != nil {
			s.Wait()
		}
		device.ReleasePins(x.pins)
		sp.End()
	}()
	if d.Cache != nil {
		d.Cache.PinHits(x.reqs, x.pins)
	}
	j := 0 // the next shipped image's request
	operand := func(col int, p *Piece) (device.Vec, *device.Buffer, error) {
		if x.pins[j].Buffer() == nil {
			if x.pins[j], err = d.acquire(s, col, p); err != nil {
				return device.Vec{}, nil, err
			}
		}
		buf := x.pins[j].Buffer()
		j++
		if p.Comp != nil {
			return device.Vec{}, buf, nil
		}
		return device.Vec{Buf: buf, Stride: p.Vec.Size, Size: p.Vec.Size, Len: p.Vec.Len}, nil, nil
	}
	grouped := sc.Op.Grouped()
	for _, i := range x.of {
		var seg device.Segment
		switch vp := &sc.Vals[i]; {
		case vp.Place == Resident && grouped:
			seg.Vals, seg.Keys = DeviceVec(vp.Vec), DeviceVec(sc.Keys[i].Vec)
		case vp.Place == Resident:
			seg.Vals = DeviceVec(vp.Vec)
		case grouped:
			if seg.Keys, _, err = operand(sc.KeyCol, &sc.Keys[i]); err != nil {
				return err
			}
			fallthrough
		default:
			if seg.Vals, seg.Comp, err = operand(sc.Col, vp); err != nil {
				return err
			}
		}
		x.segs = append(x.segs, seg)
	}
	k := device.Kernel{Segs: x.segs, Admit: x.admit, Config: device.ReduceConfigFor(elems)}
	for q := 0; sc.Op.Filtered() && q < len(x.parts); q++ {
		lo, hi, _ := sc.pred(q).Closed()
		x.where = append(x.where, device.Interval{Lo: lo, Hi: hi})
		k.Where = x.where
	}
	if s != nil {
		return s.Launch(k, x.parts)
	}
	return d.GPU.Launch(k, x.parts)
}

// request is the cache request of a piece's image of column col: the
// clip of its fragment, dense or compressed. An uncacheable piece's
// names no fragment.
func (d DeviceScan) request(col int, p *Piece) device.CacheReq {
	if d.Cache == nil || p.FragID == 0 {
		return device.CacheReq{}
	}
	return device.CacheReq{Version: p.FragVersion, Key: device.FragKey{Table: d.Table, Frag: p.FragID, Col: col,
		Row0: int(p.Rows.Begin), Rows: p.Vec.Len, Comp: p.Comp != nil}}
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
	var pins []device.Pin
	defer func() {
		s.Wait()
		device.ReleasePins(pins)
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
		pins = append(pins, pin)
	}
	return nil
}
