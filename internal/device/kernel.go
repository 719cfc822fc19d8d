package device

import (
	"fmt"

	"hybridstore/internal/agg"
	"hybridstore/internal/compress"
)

// Kernel describes one aggregate launch over a float64 value column.
// Which kernel runs follows from what the descriptor carries:
//
//   - Vals alone: the Harris-style parallel tree reduction the paper
//     used — each block reduces its grid-stride slice in shared memory,
//     halving the active threads per step, then a final single-block
//     pass reduces the per-block partials (two launches). The card
//     prices that tree (perfmodel.ReduceKernelNs) and computes the sum
//     in ascending element order, like every other leg, so a device sum
//     is bit-identical to the host's. The whole column sums, NaNs
//     included.
//   - Where: the closed-interval filter [Lo, Hi] fuses into the same two
//     launches — each thread keeps the elements inside the interval and
//     carries (sum, count) in registers. Strict predicate bounds are
//     normalized to closed intervals host-side (Pred.Closed), so
//     the kernel stays branch-free of comparison modes.
//   - Comp instead of Vals: the value column is a resident compressed
//     image (compress.Column.AppendMarshal) and a decode kernel runs
//     first: compressed bytes read plus raw bytes written at global
//     bandwidth (perfmodel.DecodeKernelNs), three launches in total. The software
//     card computes the answer through compress.Column.Fold, in the
//     compressed domain.
//   - Keys (with Where): the fused filter+hash-aggregate kernel. ONE
//     launch sweeps keys and values together, folds matches into per-SM
//     group tables that merge before the kernel retires, and ships only
//     the merged group table back — one D2H of 24 bytes per group. A
//     compressed value image decodes inside the same single launch. The
//     software card folds into one agg.Table in element order.
type Kernel struct {
	// Vals is the raw value vector; ignored when Comp is set.
	Vals Vec
	// Comp is a buffer holding the value column's compressed image.
	Comp *Buffer
	// Keys is the aligned int64/int32 group-key vector; the zero Vec
	// means an ungrouped reduction.
	Keys Vec
	// Where restricts the aggregate to values inside [Lo, Hi].
	Where  bool
	Lo, Hi float64
	// Groups is the host buffer the group table's D2H lands in: a
	// grouped launch appends its table to Groups[:0] and returns that as
	// Partial.Groups. The caller owns the buffer throughout — the card
	// keeps no reference — so a scan launching fragment after fragment
	// passes the previous Partial.Groups back in once it has folded it,
	// and allocates only when a table outgrows the buffer. Nil is a
	// buffer of capacity zero: the launch allocates the table it returns.
	Groups []GroupPartial
	// Config is the launch geometry (see ReduceConfigFor).
	Config LaunchConfig
}

// grouped reports whether the descriptor carries a key column.
func (k Kernel) grouped() bool { return k.Keys.Size != 0 }

// Partial is the result of one Kernel launch: Sum and Count for a
// reduction, the group table in ascending key order for a grouped one.
// Groups aliases the launch's Kernel.Groups buffer when the table fit
// it: it belongs to whoever owns that buffer, and a later launch handed
// the same buffer overwrites it.
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

// Launch runs the kernel and advances the device clock by its priced
// duration now.
func (g *GPU) Launch(k Kernel) (Partial, error) {
	out, kernelNs, d2hNs, err := g.launch(k)
	if err != nil {
		return Partial{}, err
	}
	g.charge(kernelNs + d2hNs)
	return out, nil
}

// Launch enqueues the kernel on the stream: the result is available
// immediately (the simulated card computes eagerly), the launch lands in
// the compute lane and a grouped kernel's group-table D2H in the
// transfer lane, so the next fragment's upload overlaps both and the
// clock charge waits for Wait.
func (s *Stream) Launch(k Kernel) (Partial, error) {
	out, kernelNs, d2hNs, err := s.gpu.launch(k)
	if err != nil {
		return Partial{}, err
	}
	s.consume(&k)
	s.addCompute(kernelNs)
	if k.grouped() {
		s.addTransfer(d2hNs)
	}
	return out, nil
}

// launch is the one priced kernel body: it validates the descriptor,
// computes the real answer, counts launches and result bytes, and
// returns the priced (kernel, D2H) durations without advancing the clock.
func (g *GPU) launch(k Kernel) (out Partial, kernelNs, d2hNs float64, err error) {
	grouped := k.grouped()
	if err := g.validate(k.Config, !grouped); err != nil {
		return out, 0, 0, err
	}
	var kbuf []byte
	if grouped {
		if !k.Where {
			return out, 0, 0, fmt.Errorf("%w: no unfiltered grouped kernel", ErrBadLaunch)
		}
		if kbuf, err = k.Keys.check(); err != nil {
			return out, 0, 0, err
		}
		if k.Keys.Size != 8 && k.Keys.Size != 4 {
			return out, 0, 0, fmt.Errorf("%w: group key of %d bytes", ErrBadLaunch, k.Keys.Size)
		}
	}
	// Resolve the value operand: n elements of size bytes, stride apart
	// once decoded; decodeNs prices the decode kernel of a compressed one.
	// vals is a raw operand from its first element on.
	var vbuf, vals []byte
	var col *compress.Column
	var decodeNs float64
	n, size, stride := k.Vals.Len, k.Vals.Size, k.Vals.Stride
	if k.Comp != nil {
		data, err := k.Comp.bytes()
		if err != nil {
			return out, 0, 0, err
		}
		if col, err = compress.Decode(data); err != nil {
			return out, 0, 0, fmt.Errorf("device: compressed image: %w", err)
		}
		n, size, stride = col.Len(), col.ElementSize(), col.ElementSize()
		decodeNs = g.prof.DecodeKernelNs(int64(len(data)), int64(n*size))
	} else if vbuf, err = k.Vals.check(); err != nil {
		return out, 0, 0, err
	} else if n > 0 {
		vals = vbuf[k.Vals.Base:]
	}
	if size != 8 {
		return out, 0, 0, fmt.Errorf("%w: float64 reduction over %d-byte elements", ErrBadLaunch, size)
	}
	if grouped && k.Keys.Len != n {
		return out, 0, 0, fmt.Errorf("%w: %d keys vs %d values", ErrBadLaunch, k.Keys.Len, n)
	}

	if grouped {
		keys := agg.Keys{Stride: k.Keys.Stride, Size: k.Keys.Size}
		if n > 0 {
			keys.Data = kbuf[k.Keys.Base:]
		}
		// Ascending element order keeps per-group float accumulation
		// bit-identical to the host fused kernel's.
		table := g.getGroupTable()
		if col != nil {
			if _, _, err := col.Fold(true, k.Lo, k.Hi, keys, table); err != nil {
				return out, 0, 0, err
			}
		} else {
			table.FoldWhere(keys, vals, stride, n, k.Lo, k.Hi)
		}
		out.Groups = table.Drain(k.Groups[:0])
		g.putGroupTable(table)
		var matched int64
		for _, gr := range out.Groups {
			matched += gr.Count
		}
		g.countKernels(1)
		resultBytes := int64(len(out.Groups)) * groupPartialBytes
		g.countTransfer(resultBytes, false)
		kernelNs = decodeNs + g.prof.GroupKernelNs(int64(n), matched, size, stride, k.Config.Blocks, k.Config.ThreadsPerBlock)
		return out, kernelNs, g.prof.TransferNs(resultBytes), nil
	}

	switch {
	case col != nil:
		if out.Sum, out.Count, err = col.Fold(k.Where, k.Lo, k.Hi, agg.Keys{}, nil); err != nil {
			return Partial{}, 0, 0, err
		}
	case k.Where:
		out.Sum, out.Count = agg.SumWhere(vals, stride, n, k.Lo, k.Hi)
	default:
		out.Sum = agg.SumAll(vals, stride, n)
	}
	if col != nil {
		g.countKernels(3) // decode, grid reduction, final block
	} else {
		g.countKernels(2)
	}
	return out, decodeNs + g.prof.ReduceKernelNs(int64(n), size, stride, k.Config.Blocks, k.Config.ThreadsPerBlock), 0, nil
}
