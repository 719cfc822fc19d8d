package exec

import (
	"fmt"
	"slices"

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
// descriptor every scan executor takes, host or device, and it carries
// a whole cohort: with Preds set, the scan has one result per predicate,
// result k the plan's with Preds[k] in place of Pred; without, it has
// the one result of the plan alone.
type Scan struct {
	Plan
	Preds      []Pred
	Keys, Vals []Piece
}

// pred returns result k's predicate.
func (sc Scan) pred(k int) Pred {
	if sc.Preds == nil {
		return sc.Pred
	}
	return sc.Preds[k]
}

// check validates the kind and that out holds one result per predicate.
func (sc Scan) check(out []Result) error {
	if !sc.Op.aggregate() {
		return fmt.Errorf("%w: kind %q is not a scan", ErrBadPlan, sc.Op)
	}
	if n := len(sc.Preds); len(out) != n && (sc.Preds != nil || len(out) != 1) {
		return fmt.Errorf("%w: %d results for a scan of %d predicates", ErrBadPlan, len(out), max(n, 1))
	}
	return nil
}

// Slice returns the scan over pairs [from, to) of its pieces.
func (sc Scan) Slice(from, to int) Scan {
	sc.Vals = sc.Vals[from:to]
	if sc.Keys != nil {
		sc.Keys = sc.Keys[from:to]
	}
	return sc
}

// ScanExecutor runs a Scan, writing result k to out[k]. The host
// Config and the single-card DeviceScan satisfy it, so an engine's host
// leg and its device leg enter through the same call, once per cohort.
// A grouped result's groups are appended to out[k].Groups[:0]: a caller
// that hands in a buffer gets it back, grown if need be, and one that
// hands in nil gets a fresh slice, its own.
type ScanExecutor interface {
	Scan(sc Scan, out []Result) error
}

// Scan runs the scan on the host operators under the configured policy:
// one scalar body, one grouped body, the kind's predicates — or none —
// an argument of each. A cohort of scalar scans is the shared-scan
// operator behind the serving layer's batching scheduler
// (Crescando/SharedDB-style): K sargable predicates over the same column
// that differ only in their bounds are folded in ONE pass over the data
// instead of K when the policy has one slot, amortizing the memory
// traffic that dominates fused aggregation; with more slots, and for the
// grouped kinds, each predicate folds its pieces on its own. Either way
// result k is exactly what a scan of predicate k alone returns.
func (c Config) Scan(sc Scan, out []Result) error {
	if err := sc.check(out); err != nil {
		return err
	}
	if !sc.Op.Grouped() {
		return scanSum(c, sc, out)
	}
	for k := range out {
		g, err := groupSum(c, sc.Keys, sc.Vals, sc.pred(k), sc.Op.Filtered(), out[k].Groups[:0])
		if err != nil {
			return err
		}
		out[k] = Result{Groups: g}
	}
	return nil
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

// deviceForm validates the scan for DeviceScan. Scans no
// kernel can run — of a kind without one, with a predicate that has no
// closed interval for the filter kernels (Plan.DeviceOK), or over
// compressed group keys — fail with ErrBadColumn before any zone
// decision is accounted, so callers fall back to the host without
// double counting.
func (sc Scan) deviceForm(out []Result) error {
	if err := sc.check(out); err != nil {
		return err
	}
	for k := range out {
		p := sc.Plan
		if p.Pred = sc.pred(k); !p.DeviceOK() {
			return fmt.Errorf("%w: no device kernel for %q over %v", ErrBadColumn, p.Op, p.Pred)
		}
	}
	if !sc.Op.Grouped() {
		return checkSize8(sc.Vals, "device float64 sum")
	}
	if slices.ContainsFunc(sc.Keys, isComp) {
		return fmt.Errorf("%w: compressed group keys are host-only", ErrBadColumn)
	}
	return checkGroupCols(sc.Keys, sc.Vals)
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
