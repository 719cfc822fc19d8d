package figures

import (
	"fmt"
	"math"

	"hybridstore/internal/exec"
)

// The multidevice panel measures a fleet of cards (onFleet): SELECT
// SUM(val), COUNT(*) WHERE val BETWEEN … over 1/2/4 simulated cards
// beside a host-only reference, swept over physical layout (thin DSM
// column versus an NSM record the column is packed out of) and
// selectivity. Fragments are value-clustered so zone maps prune the
// non-matching tail; the admitted fragments shard across the fleet by
// fragment-ID hash (layout.ShardOf), and the cards run at once, so the
// slowest card sets the time — which is where the device-count scaling
// comes from. The cold pass ships every admitted fragment; the warm
// pass replays the same scan against the per-card fragment caches and
// measures the steady state an HTAP mix would see.

// MultiDevicePoint is one (devices, layout, selectivity) cell.
type MultiDevicePoint struct {
	// Devices is the fleet size; Layout "col" (thin DSM column) or "row"
	// (column packed out of NSM records); Selectivity the achieved
	// matching fraction.
	Devices     int
	Layout      string
	Selectivity float64
	Matched     int64
	// ColdNs prices the first scan (transfers + kernels);
	// WarmNs the replay against populated caches.
	ColdNs, WarmNs float64
	// HostOnlyNs prices the same scan on the host operator alone
	// (single-device comparison baseline, morsel-driven).
	HostOnlyNs float64
	// ColdH2DBytes and WarmH2DBytes meter fleet bus traffic per pass.
	ColdH2DBytes, WarmH2DBytes int64
	// CacheHits and CacheMisses aggregate the per-card caches after the
	// warm pass.
	CacheHits, CacheMisses int64
	// WarmSpeedup is the 1-device warm time of the same (layout,
	// selectivity) cell divided by this cell's warm time.
	WarmSpeedup float64
}

// MultiDeviceSweep is the full panel.
type MultiDeviceSweep struct {
	// Rows is the column size; FragmentRows the rows per fragment.
	Rows, FragmentRows uint64
	// Fragments is the fragment count.
	Fragments int
	// Points holds one entry per (devices, layout, selectivity) cell.
	Points []MultiDevicePoint
}

// multiDeviceRecordWidth is the NSM record width of the "row" layout:
// the scanned column is one of four 8-byte attributes.
const multiDeviceRecordWidth = 32

// MeasureMultiDevice executes the sweep for real. Every leg is
// cross-checked against a host shadow aggregation, and the fleet result
// must be bit-identical to a single-card DeviceScan over the same
// pieces.
func MeasureMultiDevice(rows uint64, fragments int, counts []int, sels []float64) (*MultiDeviceSweep, error) {
	fragRows, err := fragmentRows(rows, fragments)
	if err != nil {
		return nil, err
	}
	sweep := &MultiDeviceSweep{Rows: rows, FragmentRows: fragRows, Fragments: fragments}

	// Values are clustered: fragment i holds values in [i, i+1), so a
	// BETWEEN [0, s*fragments) predicate admits exactly the first
	// s*fragments fragments and the zone maps prune the rest.
	vals := make([]float64, rows)
	for i := uint64(0); i < rows; i++ {
		frag := i / fragRows
		vals[i] = float64(frag) + float64(i%fragRows)/float64(fragRows)
	}

	// Zone-carrying pieces in both physical layouts: "col" is a dense thin
	// column, "row" embeds the column at offset 0 of a 32-byte NSM record
	// (packed dense by the device path before shipping, scanned strided by
	// the host).
	for _, lay := range []struct {
		name   string
		stride int
	}{{"col", 8}, {"row", multiDeviceRecordWidth}} {
		pieces, err := cutPieces(floatColumn(vals, lay.stride), lay.stride, fragments, true)
		if err != nil {
			return nil, err
		}
		warm1 := make(map[float64]float64) // selectivity → 1-device warm ns
		for _, d := range counts {
			for _, s := range sels {
				admitted := int(s*float64(fragments) + 0.5)
				p := exec.Between(0.0, float64(admitted)-0.5/float64(fragRows))
				want := shadowSum(vals, p)
				pt := MultiDevicePoint{Devices: d, Layout: lay.name, Matched: want.Count}
				pt.Selectivity = float64(pt.Matched) / float64(rows)
				sc := exec.Scan{Plan: exec.Plan{Op: exec.KindSumWhere, Pred: p}, Vals: pieces}

				l := legs{what: fmt.Sprintf("multidevice %d-card %s %.2f", d, lay.name, s), want: want}

				// Host-only reference: the morsel-driven fused operator.
				pt.HostOnlyNs = l.on(newRig(false), "host leg", onHost(exec.MorselDriven, sc)).Ns

				// Single-card reference for the bit-identity cross-check.
				ref, err := solo(newRig(true).card("multidev"), sc)
				if err != nil {
					return nil, fmt.Errorf("figures: multidevice reference leg: %w", err)
				}

				// The fleet, cold then warm.
				fleet, scan := newFleetRig(d), onFleet("multidev", sc)
				pass := func(r *rig) (exec.Result, error) {
					got, err := scan(r)
					if err == nil && !sameBits(got, ref) {
						err = fmt.Errorf("got (%v, %d), single-card (%v, %d)", got.Sum, got.Count, ref.Sum, ref.Count)
					}
					return got, err
				}
				cold := l.on(fleet, "cold pass", pass)
				warm := l.on(fleet, "warm pass", pass)
				if l.err != nil {
					return nil, l.err
				}
				pt.ColdNs, pt.ColdH2DBytes = cold.Ns, cold.H2D
				pt.WarmNs, pt.WarmH2DBytes = warm.Ns, warm.H2D
				pt.CacheHits, pt.CacheMisses = cold.Hits+warm.Hits, cold.Misses+warm.Misses
				if d == counts[0] {
					warm1[s] = pt.WarmNs
				}
				if base := warm1[s]; base > 0 && pt.WarmNs > 0 {
					pt.WarmSpeedup = base / pt.WarmNs
				}
				sweep.Points = append(sweep.Points, pt)
			}
		}
	}
	return sweep, nil
}

// WarmScales reports whether, at full selectivity, every fleet size
// warmed up at least minSpeedup× faster than the single-device warm pass
// per additional pair of cards (2 cards ≥ minSpeedup, 4 cards ≥
// minSpeedup², …) in at least one layout.
func (s *MultiDeviceSweep) WarmScales(minSpeedup float64) bool {
	ok := false
	for _, pt := range s.Points {
		if pt.Selectivity < 0.99 || pt.Devices < 2 {
			continue
		}
		want := math.Pow(minSpeedup, math.Log2(float64(pt.Devices)))
		if pt.WarmSpeedup >= want {
			ok = true
		} else if pt.Layout == "col" {
			return false
		}
	}
	return ok
}

// Tables renders the sweep, one row per point.
func (s *MultiDeviceSweep) Tables() []Table {
	t := Table{
		Caption: []string{
			fmt.Sprintf("multidevice panel: SELECT SUM(val), COUNT(*) WHERE … over %d rows in %d fragments (%d rows each), hash-sharded across the fleet",
				s.Rows, s.Fragments, s.FragmentRows),
			"cold = first scan (transfers + kernels); warm = replay against per-card fragment caches; host = morsel-driven host operator",
		},
		Columns: []Column{
			{CSV: "devices", Text: "devices"},
			{CSV: "layout", Text: "layout"},
			{CSV: "selectivity", Text: "sel", TextVerb: "%.2f"},
			{CSV: "matched"},
			{CSV: "cold_ns", Text: "cold ns", TextVerb: "%.0f"},
			{CSV: "warm_ns", Text: "warm ns", TextVerb: "%.0f"},
			{CSV: "host_only_ns", Text: "host ns", TextVerb: "%.0f"},
			{CSV: "cold_h2d_bytes", Text: "cold h2d"},
			{CSV: "warm_h2d_bytes", Text: "warm h2d"},
			{CSV: "cache_hits"}, {CSV: "cache_misses"}, {Text: "hits/misses"},
			{CSV: "warm_speedup", Text: "warm speedup", TextVerb: "%.2f"},
		},
		Footer: []string{fmt.Sprintf("warm throughput scales with device count (≥1.5x per doubling): %v", s.WarmScales(1.5))},
	}
	for _, p := range s.Points {
		t.Rows = append(t.Rows, []any{p.Devices, p.Layout, p.Selectivity, p.Matched,
			p.ColdNs, p.WarmNs, p.HostOnlyNs, p.ColdH2DBytes, p.WarmH2DBytes,
			p.CacheHits, p.CacheMisses, fmt.Sprintf("%d/%d", p.CacheHits, p.CacheMisses), p.WarmSpeedup})
	}
	return []Table{t}
}
