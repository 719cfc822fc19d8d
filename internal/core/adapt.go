package core

import (
	"errors"
	"fmt"

	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// Adaptation observability: counters for every structural decision the
// advisor takes, span families timing the coarse reorganization passes
// (these run under the table's exclusive lock, so their duration is the
// write-stall the adaptivity costs — the trade-off DESIGN.md Section 6
// quantifies), and an event per adaptation recording the monitor
// snapshot that triggered it.
var (
	mAdaptRuns  = obs.NewCounter("core.adapt_runs")
	mFreezes    = obs.NewCounter("core.freezes")
	mPlacements = obs.NewCounter("core.column_placements")

	sfAdapt  = obs.NewSpanFamily("core.adapt")
	sfFreeze = obs.NewSpanFamily("core.freeze")
	sfMerge  = obs.NewSpanFamily("core.merge")
)

// Observe feeds an external workload observation into the advisor (the
// table also observes its own operations; this entry point lets harnesses
// replay traces).
func (t *Table) Observe(op workload.Op) { t.mon.Observe(op) }

// Adapt runs the layout advisor: cold chunks whose column grouping
// disagrees with the current advice are re-fragmented, and (when device
// placement is enabled) scan-dominated float64 columns move their cold
// thin fragments to the GPU — or back to the host when scans stop
// dominating. Returns whether anything changed.
func (t *Table) Adapt() (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mon.Observations() == 0 {
		return false, nil
	}
	mAdaptRuns.Inc()
	sp := sfAdapt.Start()
	// Capture the snapshot driving this decision before Reset discards it;
	// the span detail preserves what the advisor actually saw.
	nObs := t.mon.Observations()
	stats := t.mon.Snapshot()
	changed := false
	advice := t.mon.SuggestGroups(affinity)
	for _, c := range t.chunks {
		if c.state != cold || groupingEqual(c.groups, advice) {
			continue
		}
		if err := t.recast(c, advice); err != nil {
			sp.EndWith(fmt.Sprintf("error: %v", err))
			return changed, err
		}
		changed = true
	}
	if t.eng.opts.DevicePlacement {
		moved, err := t.adaptPlacement()
		if err != nil {
			sp.EndWith(fmt.Sprintf("error: %v", err))
			return changed, err
		}
		changed = changed || moved
	}
	if changed {
		t.adapts++
	}
	// Either way the advice was consumed: start a fresh observation epoch
	// so the next adaptation reflects the workload from now on (and a
	// shift like OLTP→OLAP is not drowned out by history).
	t.mon.Reset()
	detail := fmt.Sprintf("obs=%d attr_ratio=%.2f groups=%v changed=%t",
		nObs, stats.AttrCentricRatio, advice, changed)
	sp.EndWith(detail)
	if changed {
		obs.RecordEvent("core.adapt", detail)
	}
	return changed, nil
}

// adaptPlacement moves scan-dominated float64 columns' cold thin
// fragments onto the device and evicts columns that cooled off. A column
// only moves when the calibrated model says a device scan actually beats
// the host scan — with small chunks the per-chunk kernel launch overhead
// can dominate, and then the advisor declines (the GPU-under-utilization
// effect the paper discusses for small work units).
func (t *Table) adaptPlacement() (bool, error) {
	stats := t.mon.Snapshot()
	changed := false
	for col := 0; col < t.s.Arity(); col++ {
		if t.s.Attr(col).Kind != schema.Float64 {
			continue
		}
		dominated := stats.Scan[col] > 2*stats.Point[col] && stats.Scan[col] > 0 &&
			t.devicePaysOff(col)
		switch {
		case dominated && !t.deviceCols[col]:
			if err := t.placeColumnLocked(col); err != nil {
				if errors.Is(err, mem.ErrOutOfMemory) {
					continue // all-or-nothing fallback: stay on host
				}
				return changed, err
			}
			changed = true
		case !dominated && t.deviceCols[col]:
			if err := t.evictColumnLocked(col); err != nil {
				return changed, err
			}
			changed = true
		}
	}
	return changed, nil
}

// devicePaysOff prices one steady-state scan of col on each platform: the
// device executes one reduction kernel per cold chunk holding a thin
// fragment of the column, the host streams the same bytes through the
// bulk operator.
func (t *Table) devicePaysOff(col int) bool {
	size := t.s.Attr(col).Size
	var deviceNs, hostRows float64
	chunks := 0
	for _, c := range t.chunks {
		if c.state != cold {
			continue
		}
		if _, f := t.thinFragment(c, col); f == nil {
			continue
		}
		n := int64(c.filled())
		deviceNs += t.env.GPU.Profile().ReduceKernelNs(n, size, size, 1024, 512)
		hostRows += float64(n)
		chunks++
	}
	if chunks == 0 {
		return false
	}
	hostNs := t.env.HostProfile.ScanSumNs(int64(hostRows), size, size, 1)
	return deviceNs < hostNs
}

// PlaceColumn MOVES column col's cold thin fragments into device memory
// (delegation, not replication: the host copy is freed). Columns stored
// inside fused fat groups stay on the host — only thin fragments migrate.
// On device exhaustion the column reverts to host residency entirely
// (all-or-nothing) and mem.ErrOutOfMemory is returned.
func (t *Table) PlaceColumn(col int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.placeColumnLocked(col)
}

// placeColumnLocked is PlaceColumn under the held exclusive lock (the
// adaptation path calls it directly).
func (t *Table) placeColumnLocked(col int) error {
	if col < 0 || col >= t.s.Arity() {
		return fmt.Errorf("%w: col %d", layout.ErrOutOfRange, col)
	}
	var moved []*chunk
	for _, c := range t.chunks {
		if c.state != cold {
			continue
		}
		if err := t.placeChunkColumn(c, col); err != nil {
			// Roll back: the column is host-resident or device-resident as
			// a whole, never split.
			for _, mc := range moved {
				if err := t.unplaceChunkColumn(mc, col); err != nil {
					return err
				}
			}
			return err
		}
		moved = append(moved, c)
	}
	t.deviceCols[col] = true
	mPlacements.Inc()
	return nil
}

// EvictColumn moves column col's device-resident fragments back to host
// memory.
func (t *Table) EvictColumn(col int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evictColumnLocked(col)
}

// evictColumnLocked is EvictColumn under the held exclusive lock.
func (t *Table) evictColumnLocked(col int) error {
	for _, c := range t.chunks {
		if c.state != cold {
			continue
		}
		if err := t.unplaceChunkColumn(c, col); err != nil {
			return err
		}
	}
	t.deviceCols[col] = false
	return nil
}

// placeChunkColumn moves one chunk's thin fragment of col to the device.
func (t *Table) placeChunkColumn(c *chunk, col int) error {
	gi, f := t.thinFragment(c, col)
	if f == nil || f.Space() == mem.Device {
		return nil
	}
	df, err := f.CloneTo(t.env.GPU.Allocator())
	if err != nil {
		return fmt.Errorf("core: placing column %d: %w", col, err)
	}
	// CloneTo moves the block directly, bypassing CopyToDevice; charge and
	// count the bus traffic through the device so placement shows up in
	// both the clock and the transfer counters.
	t.env.GPU.ChargeTransfer(int64(df.SizeBytes()), true)
	if err := t.olap.Replace(f, df); err != nil {
		df.Free()
		return err
	}
	t.invalidateFrag(f)
	f.Free()
	c.frags[gi] = df
	return nil
}

// unplaceChunkColumn moves one chunk's thin fragment of col back to host.
func (t *Table) unplaceChunkColumn(c *chunk, col int) error {
	gi, f := t.thinFragment(c, col)
	if f == nil || f.Space() == mem.Host {
		return nil
	}
	hf, err := f.CloneTo(t.env.Host)
	if err != nil {
		return fmt.Errorf("core: evicting column %d: %w", col, err)
	}
	t.env.GPU.ChargeTransfer(int64(hf.SizeBytes()), false)
	if err := t.olap.Replace(f, hf); err != nil {
		hf.Free()
		return err
	}
	t.invalidateFrag(f)
	f.Free()
	c.frags[gi] = hf
	return nil
}

// thinFragment returns the index and fragment of col when col is stored
// alone in chunk c (nil when absent or fused into a fat group).
func (t *Table) thinFragment(c *chunk, col int) (int, *layout.Fragment) {
	for gi, g := range c.groups {
		if len(g) == 1 && g[0] == col {
			return gi, c.frags[gi]
		}
	}
	return -1, nil
}

// groupingEqual compares two column groupings.
func groupingEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
