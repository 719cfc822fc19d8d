package device

import (
	"fmt"

	"hybridstore/internal/agg"
	"hybridstore/internal/compress"
)

// Segment is one row of a launch's segment table: a piece of the float64
// value column — a raw vector (Vals), or instead a buffer holding its
// compressed image (Comp, compress.Column.AppendMarshal) — and, for a
// grouped launch, the row-aligned int64/int32 group-key vector (Keys).
type Segment struct {
	Vals Vec
	Comp *Buffer
	Keys Vec
}

// Interval is the closed value interval [Lo, Hi] a filtered result
// keeps. Strict predicate bounds are normalized to closed intervals
// host-side (Pred.Closed), so the kernel stays branch-free of
// comparison modes.
type Interval struct{ Lo, Hi float64 }

// Kernel describes ONE aggregate launch over a whole segment table — the
// shape of CUB's DeviceSegmentedReduce — for K results at once. Which
// kernel runs follows from what the descriptor carries:
//
//   - Segments without Keys: the Harris-style parallel tree reduction
//     the paper used — each block reduces its grid-stride slice in
//     shared memory, halving the active threads per step, then a final
//     single-block pass reduces the per-block partials (two launches).
//     Unfiltered (Where nil) it has one result, the sum of every element,
//     NaNs included, and no count; filtered, result k keeps the elements
//     inside Where[k] and counts them, the K intervals tested in
//     registers in the same sweep.
//   - A segment with Comp: a decode kernel runs first, expanding every
//     compressed segment (perfmodel.DecodeNs), three launches in total.
//     The software card folds the image through compress.Column.Fold, in
//     the compressed domain.
//   - Segments with Keys (and Where; the first segment decides, the
//     others must follow): the fused filter+hash-aggregate kernel. ONE
//     launch sweeps keys and values together, folds matches into per-SM
//     group tables that merge before the kernel retires, and ships only
//     group tables back — 24 bytes per group. Compressed value images
//     decode inside the same launch.
//
// Segment s contributes to result k only where Admit[s*K+k] holds (nil
// admits every pair): the zone decisions the host already took. Each
// admitted pair folds in ascending element order from a fresh partial —
// a zero sum, an empty group table — and the partials combine in segment
// order, so a result has the bits of one launch per segment added up
// segment by segment, on the card: the D2H is K group tables. Over a
// write-once cache image the software card reaches the same bits
// through the image's summary (summary.go) and folds only the rows an
// interval can reach, priced as the full sweep all the same. The card
// prices one launch (per kernel stage), one tree step and the sum of the
// segment sweeps; raw and compressed segments share the launch.
type Kernel struct {
	Segs []Segment
	// Where holds the K intervals of a filtered launch; nil is the one
	// unfiltered result.
	Where []Interval
	// Admit is the segment × interval matrix, row-major; nil admits all.
	Admit []bool
	// Config is the launch geometry (see ReduceConfigFor).
	Config LaunchConfig
}

// Partial is one result of a launch: Sum and Count for a reduction, the
// group table in ascending key order for a grouped one. On the way in,
// Groups is the host buffer that table's D2H lands in: the launch
// appends to Groups[:0], so a caller handing back the previous launch's
// table allocates only when a table outgrows it, and nil makes the
// launch allocate the table it returns.
type Partial struct {
	Sum    float64
	Count  int64
	Groups []GroupPartial
}

// GroupPartial is one group of a device grouped aggregation, the wire
// format of the group-table D2H (24 bytes per group: key, sum, count).
type GroupPartial = agg.Group

// groupPartialBytes is the D2H wire size of one group-table entry.
const groupPartialBytes = 24

// Launch runs the kernel, writing its K results to out, and advances
// the device clock by its priced duration now.
func (g *GPU) Launch(k Kernel, out []Partial) error {
	kernelNs, d2hNs, err := g.launch(k, out)
	if err == nil {
		g.charge(kernelNs + d2hNs)
	}
	return err
}

// Launch enqueues the kernel on the stream: the K results are available
// immediately (the simulated card computes eagerly), the launch lands in
// the compute lane and a grouped kernel's group-table D2H in the
// transfer lane, and the clock charge waits for Wait.
func (s *Stream) Launch(k Kernel, out []Partial) error {
	kernelNs, d2hNs, err := s.gpu.launch(k, out)
	if err == nil {
		s.add(d2hNs, kernelNs)
	}
	return err
}

// groupScratch is what a grouped launch folds through: the fresh table
// of one (segment, interval) pair, the buffer it drains into, and one
// table per result that the pairs merge into. Each card recycles its
// own (GPU.scratch), so a warm grouped launch allocates nothing beyond
// its results; a launch that fails leaves its scratch, tables half
// folded, to the collector.
type groupScratch struct {
	fold   agg.Table
	buf    []agg.Group
	tables []agg.Table
}

// launch is the one priced kernel body: it validates the descriptor,
// computes the real answers, counts launches and result bytes, and
// returns the priced (kernel, D2H) durations without advancing the clock.
func (g *GPU) launch(k Kernel, out []Partial) (kernelNs, d2hNs float64, err error) {
	nk, ns := max(len(k.Where), 1), len(k.Segs)
	grouped := ns > 0 && k.Segs[0].Keys.Size != 0
	if len(out) != nk || k.Admit != nil && len(k.Admit) != ns*nk || grouped && k.Where == nil {
		return 0, 0, fmt.Errorf("%w: %d results and %d admits for %d segments × %d intervals (grouped %v)",
			ErrBadLaunch, len(out), len(k.Admit), ns, len(k.Where), grouped)
	}
	if err := g.validate(k.Config, !grouped); err != nil {
		return 0, 0, err
	}
	for i := range out {
		out[i] = Partial{Groups: out[i].Groups[:0]}
	}
	var x *groupScratch // recycled only empty, after a launch that worked
	if grouped {
		select {
		case x = <-g.scratch:
		default:
			x = new(groupScratch)
		}
		x.tables = append(x.tables, make([]agg.Table, max(nk-len(x.tables), 0))...)
	}
	// The launches' fixed cost, then each segment's sweep, then the tree:
	// a one-segment reduction prices exactly as perfmodel.ReduceKernelNs.
	launches, sweepNs, where := 2, 0.0, k.Where
	if where == nil {
		where = make([]Interval, 1) // the unfiltered reduction reads none
	}
	for s := range k.Segs {
		seg := &k.Segs[s]
		vals, stride, n, col, err := seg.operand()
		if err != nil {
			return 0, 0, err
		}
		var keys agg.Keys
		if grouped {
			if keys, err = seg.keys(n); err != nil {
				return 0, 0, err
			}
		}
		var sm *summary
		var keyImage uint64
		if k.Where != nil && col == nil {
			sm, keyImage = seg.summaryOf(vals, n), seg.keyImage()
		}
		var matched int64
		for r, iv := range where {
			if k.Admit != nil && !k.Admit[s*nk+r] {
				continue
			}
			sum, cnt, groups := 0.0, int64(0), []agg.Group(nil)
			switch {
			case grouped && col != nil:
				_, _, err = col.Fold(true, iv.Lo, iv.Hi, keys, &x.fold)
			case grouped && sm != nil && keyImage != 0 && sm.covers(iv):
				groups = sm.groupsUnder(keyImage, &x.fold, keys, vals, n)
			case grouped && sm != nil:
				sm.foldWhere(&x.fold, keys, vals, n, iv)
			case grouped:
				x.fold.FoldWhere(keys, vals, stride, n, iv.Lo, iv.Hi)
			case col != nil:
				sum, cnt, err = col.Fold(k.Where != nil, iv.Lo, iv.Hi, agg.Keys{}, nil)
			case sm != nil:
				sum, cnt = sm.sumWhere(vals, n, iv)
			case k.Where != nil:
				sum, cnt = agg.SumWhere(vals, stride, n, iv.Lo, iv.Hi)
			default:
				sum = agg.SumAll(vals, stride, n)
			}
			if err != nil {
				return 0, 0, err
			}
			out[r].Sum += sum
			out[r].Count += cnt
			if grouped {
				if groups == nil {
					x.buf = x.fold.Drain(x.buf[:0])
					groups = x.buf
				}
				for _, gr := range groups {
					matched += gr.Count
				}
				x.tables[r].Merge(groups)
			}
		}
		// A compressed segment is decoded, then swept dense.
		if col != nil {
			sweepNs += g.prof.DecodeNs(int64(len(seg.Comp.data)), int64(n*8))
			launches, stride = max(launches, 3), 8
		}
		if grouped {
			sweepNs += g.prof.SweepNs(int64(n), 2, 8, stride)
			sweepNs += g.prof.AtomicsNs(matched)
		} else {
			sweepNs += g.prof.SweepNs(int64(n), 1, 8, stride)
		}
	}
	if grouped {
		launches = 1 // the group kernel decodes inside its one launch
	}
	g.countKernels(int64(launches))
	kernelNs = float64(launches)*g.prof.KernelLaunchNs + sweepNs + g.prof.TreeNs(k.Config.ThreadsPerBlock)
	if !grouped {
		return kernelNs, 0, nil
	}
	var resultBytes int64
	for r := range out {
		out[r].Groups = x.tables[r].Drain(out[r].Groups)
		resultBytes += int64(len(out[r].Groups)) * groupPartialBytes
	}
	select {
	case g.scratch <- x:
	default:
	}
	g.countTransfer(resultBytes, false)
	return kernelNs, g.prof.TransferNs(resultBytes), nil
}

// operand resolves the segment's values: n float64 elements, a raw run
// (vals from its first element on, stride apart) or a decoded
// compressed image (col).
func (seg *Segment) operand() (vals []byte, stride, n int, col *compress.Column, err error) {
	size := seg.Vals.Size
	if seg.Comp != nil {
		data, err := seg.Comp.bytes()
		if err == nil {
			col, err = compress.Decode(data)
		}
		if err != nil {
			return nil, 0, 0, nil, fmt.Errorf("device: compressed image: %w", err)
		}
		stride, n, size = 8, col.Len(), col.ElementSize()
	} else if vals, err = seg.Vals.check(); err != nil {
		return nil, 0, 0, nil, err
	} else if stride, n = seg.Vals.Stride, seg.Vals.Len; n > 0 {
		vals = vals[seg.Vals.Base:]
	}
	if size != 8 {
		return nil, 0, 0, nil, fmt.Errorf("%w: float64 reduction over %d-byte elements", ErrBadLaunch, size)
	}
	return vals, stride, n, col, nil
}

// keys resolves the segment's group keys, which must align with its n
// values.
func (seg *Segment) keys(n int) (agg.Keys, error) {
	kv := seg.Keys
	buf, err := kv.check()
	switch {
	case err != nil:
		return agg.Keys{}, err
	case kv.Size != 8 && kv.Size != 4:
		return agg.Keys{}, fmt.Errorf("%w: group key of %d bytes", ErrBadLaunch, kv.Size)
	case kv.Len != n:
		return agg.Keys{}, fmt.Errorf("%w: %d keys vs %d values", ErrBadLaunch, kv.Len, n)
	}
	keys := agg.Keys{Stride: kv.Stride, Size: kv.Size}
	if n > 0 {
		keys.Data = buf[kv.Base:]
	}
	return keys, nil
}
