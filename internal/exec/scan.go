package exec

import (
	"fmt"

	"hybridstore/internal/device"
	"hybridstore/internal/layout"
)

// Place says where a piece's bytes live and so which executor may scan
// it — the paper's "mixed data location" (Section IV-C) as a property
// of the piece. Storage engines set it; the executors never change it.
type Place uint8

// Piece placements.
const (
	// OnHost pieces live in host memory and scan on the host operators.
	OnHost Place = iota
	// Shipped pieces live in host memory but scan on the device: their
	// image crosses the bus through the fragment cache (or a transient
	// upload when the piece is uncacheable).
	Shipped
	// Resident pieces already live in device memory (Vec.Data is device
	// global memory): the kernel launches on the owning card with no
	// transfer, charged per launch.
	Resident
)

// Scan is the aggregate part of a Plan — kind sum, sum_where, group_sum
// or group_sum_where, with a normalized Pred — together with the pieces
// it runs over: Vals is the aggregated float64 column, Keys the
// row-aligned group-key column of the grouped kinds. It is the one
// descriptor every scan executor takes, host or device.
type Scan struct {
	Plan
	Keys, Vals []Piece
}

// Slice returns the scan over pairs [from, to) of its pieces.
func (sc Scan) Slice(from, to int) Scan {
	sc.Vals = sc.Vals[from:to]
	if sc.Keys != nil {
		sc.Keys = sc.Keys[from:to]
	}
	return sc
}

// ScanExecutor runs a Scan. The host Config, the single-card DeviceScan
// and the cross-device MultiDeviceScan satisfy it, so an engine's host
// leg and its device leg enter through the same call.
type ScanExecutor interface {
	Scan(Scan) (Result, error)
}

// Scan runs the scan on the host operators under the configured policy:
// one scalar body, one grouped body, the kind's predicate — or none —
// an argument of each.
func (c Config) Scan(sc Scan) (res Result, err error) {
	if !sc.Op.aggregate() {
		return res, fmt.Errorf("%w: kind %q is not a scan", ErrBadPlan, sc.Op)
	}
	if sc.Op.Grouped() {
		res.Groups, err = groupSum(c, sc.Keys, sc.Vals, sc.Pred, sc.Op.Filtered())
	} else {
		res.Sum, res.Count, err = scanSum(c, sc.Vals, sc.Pred, sc.Op.Filtered())
	}
	return res, err
}

// DeviceOK reports whether a device kernel exists for the plan: none
// does for the unpredicated group-by, and the fused filter kernels
// consume a closed interval, which an empty predicate does not have.
func (p Plan) DeviceOK() bool {
	if p.Op.Filtered() {
		_, _, closed := p.Pred.Closed()
		return closed
	}
	return p.Op == KindSum
}

// deviceForm validates the scan for the device executors and returns
// the closed interval the filter kernels consume. Scans no kernel can
// run fail with ErrBadColumn before any zone decision is accounted, so
// callers fall back to the host without double counting.
func (sc Scan) deviceForm() (lo, hi float64, err error) {
	switch sc.Op {
	case KindSum, KindSumWhere:
		err = checkSize8(sc.Vals, "device float64 sum")
	case KindGroupSumWhere:
		err = checkGroupCols(sc.Keys, sc.Vals)
	default:
		err = fmt.Errorf("%w: no device kernel for %q", ErrBadColumn, sc.Op)
	}
	if err != nil {
		return 0, 0, err
	}
	if sc.Op.Filtered() {
		var ok bool
		if lo, hi, ok = sc.Pred.Closed(); !ok {
			return 0, 0, fmt.Errorf("%w: predicate %v has no closed-interval form for the device kernel", ErrBadColumn, sc.Pred.Op)
		}
	}
	for _, kp := range sc.Keys {
		if kp.Comp != nil {
			return 0, 0, fmt.Errorf("%w: compressed group keys are host-only", ErrBadColumn)
		}
	}
	return lo, hi, nil
}

// zoneBytes is what pruning pair i of the scan saves: the value piece's
// bytes plus, for a grouped scan, the key piece's.
func (sc Scan) zoneBytes(i int) int64 {
	n := int64(sc.Vals[i].Vec.Len * sc.Vals[i].Vec.Size)
	if sc.Op.Grouped() {
		n += int64(sc.Keys[i].Vec.Len * sc.Keys[i].Vec.Size)
	}
	return n
}

// DeviceVec views a column vector that already lives in device memory
// as the device-side vector a kernel or scatter takes.
func DeviceVec(v layout.ColVector) device.Vec {
	return device.Vec{Data: v.Data, Base: v.Base, Stride: v.Stride, Size: v.Size, Len: v.Len}
}
