package figures

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"hybridstore/internal/device"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/stats"
)

// The multidevice panel measures the cross-device scheduler: SELECT
// SUM(val), COUNT(*) WHERE val BETWEEN … fanned over a fleet of 1/2/4
// simulated cards plus the host morsel pool, swept over physical layout
// (thin DSM column versus an NSM record the column is packed out of) and
// selectivity. Fragments are value-clustered so zone maps prune the
// non-matching tail; the admitted fragments shard across the fleet by
// fragment-ID hash, every card's lane runs concurrently, and the shared
// clock advances by the slowest lane — which is where the device-count
// scaling comes from. The cold pass ships every admitted fragment; the
// warm pass replays the same scan against the per-card fragment caches
// and measures the steady state an HTAP mix would see.

// MultiDevicePoint is one (devices, layout, selectivity) cell.
type MultiDevicePoint struct {
	// Devices is the fleet size; Layout "col" (thin DSM column) or "row"
	// (column packed out of NSM records); Selectivity the achieved
	// matching fraction.
	Devices     int
	Layout      string
	Selectivity float64
	Matched     int64
	// ColdNs prices the first scan (transfers + kernels + host lane);
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

// DefaultMultiDeviceCounts returns the swept fleet sizes.
func DefaultMultiDeviceCounts() []int { return []int{1, 2, 4} }

// DefaultMultiDeviceSelectivities returns the swept selectivities.
func DefaultMultiDeviceSelectivities() []float64 { return []float64{0.10, 0.50, 1.00} }

// multiDeviceRecordWidth is the NSM record width of the "row" layout:
// the scanned column is one of four 8-byte attributes.
const multiDeviceRecordWidth = 32

// MeasureMultiDevice executes the sweep for real. Every leg is
// cross-checked against a host shadow aggregation, and the fleet result
// must be bit-identical to a single-card DeviceScan over the same
// pieces.
func MeasureMultiDevice(rows uint64, fragments int, counts []int, sels []float64) (*MultiDeviceSweep, error) {
	if fragments < 1 || rows%uint64(fragments) != 0 {
		return nil, fmt.Errorf("figures: rows %d not divisible into %d fragments", rows, fragments)
	}
	fragRows := rows / uint64(fragments)
	sweep := &MultiDeviceSweep{Rows: rows, FragmentRows: fragRows, Fragments: fragments}
	host := perfmodel.DefaultHost()

	// Values are clustered: fragment i holds values in [i, i+1), so a
	// BETWEEN [0, s*fragments) predicate admits exactly the first
	// s*fragments fragments and the zone maps prune the rest.
	vals := make([]float64, rows)
	for i := uint64(0); i < rows; i++ {
		frag := i / fragRows
		vals[i] = float64(frag) + float64(i%fragRows)/float64(fragRows)
	}

	for _, lay := range []string{"col", "row"} {
		pieces := multiDevicePieces(vals, fragments, fragRows, lay)
		warm1 := make(map[float64]float64) // selectivity → 1-device warm ns
		for _, d := range counts {
			for _, s := range sels {
				admitted := int(s*float64(fragments) + 0.5)
				p := exec.Between(0.0, float64(admitted)-0.5/float64(fragRows))
				pt := MultiDevicePoint{Devices: d, Layout: lay}
				var wantSum float64
				for _, v := range vals {
					if p.Match(v) {
						wantSum += v
						pt.Matched++
					}
				}
				pt.Selectivity = float64(pt.Matched) / float64(rows)

				// Host-only reference: the morsel-driven fused operator.
				{
					clock := &perfmodel.Clock{}
					cfg := exec.Config{Policy: exec.MorselDriven, Host: host, Clock: clock}
					sum, n, err := exec.SumFloat64Where(cfg, pieces, p)
					if err != nil {
						return nil, fmt.Errorf("figures: multidevice host leg: %w", err)
					}
					if n != pt.Matched || math.Abs(sum-wantSum) > 1e-6*math.Max(1, math.Abs(wantSum)) {
						return nil, fmt.Errorf("figures: multidevice host leg: got (%v, %d), want (%v, %d)", sum, n, wantSum, pt.Matched)
					}
					pt.HostOnlyNs = clock.ElapsedNs()
				}

				// Single-card reference for the bit-identity cross-check.
				refClock := &perfmodel.Clock{}
				refGPU := device.New(perfmodel.DefaultDevice(), refClock)
				refScan := exec.DeviceScan{GPU: refGPU, Cache: device.NewFragCache(refGPU), Table: "multidev"}
				refSum, refN, err := sumWhereOn(refScan, 0, pieces, p)
				if err != nil {
					return nil, fmt.Errorf("figures: multidevice reference leg: %w", err)
				}

				// The fleet, cold then warm.
				shared := &perfmodel.Clock{}
				env := device.NewEnv(d, perfmodel.DefaultDevice(), shared)
				md := &exec.MultiDeviceScan{
					Env: env, Table: "multidev",
					Shards:   layout.NewShardMap(d, layout.ShardHash),
					Host:     exec.Config{Policy: exec.MorselDriven, Host: host, Clock: shared},
					HostLane: false,
				}
				for pass, target := range []*float64{&pt.ColdNs, &pt.WarmNs} {
					mark := shared.ElapsedNs()
					h2dMark := env.Stats().HostToDeviceBytes
					sum, n, err := sumWhereOn(md, 0, pieces, p)
					if err != nil {
						return nil, fmt.Errorf("figures: multidevice %d-card pass %d: %w", d, pass, err)
					}
					if sum != refSum || n != refN {
						return nil, fmt.Errorf("figures: multidevice %d-card pass %d: got (%v, %d), single-card (%v, %d)",
							d, pass, sum, n, refSum, refN)
					}
					*target = shared.ElapsedNs() - mark
					delta := env.Stats().HostToDeviceBytes - h2dMark
					if pass == 0 {
						pt.ColdH2DBytes = delta
					} else {
						pt.WarmH2DBytes = delta
					}
				}
				cs := env.CacheStats()
				pt.CacheHits, pt.CacheMisses = cs.Hits, cs.Misses
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

// multiDevicePieces builds zone-carrying pieces over the value column in
// the requested physical layout: "col" is a dense thin column, "row"
// embeds the column at offset 0 of a 32-byte NSM record (packed dense by
// the device path before shipping, scanned strided by the host).
func multiDevicePieces(vals []float64, fragments int, fragRows uint64, lay string) []exec.Piece {
	stride := 8
	if lay == "row" {
		stride = multiDeviceRecordWidth
	}
	dense := make([]byte, uint64(len(vals))*uint64(stride))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dense[i*stride:], math.Float64bits(v))
	}
	pieces := make([]exec.Piece, fragments)
	for i := 0; i < fragments; i++ {
		begin := uint64(i) * fragRows
		z := stats.NewZone(stats.Float64)
		for j := begin; j < begin+fragRows; j++ {
			z.ObserveFloat64(vals[j])
		}
		pieces[i] = exec.Piece{
			Rows: layout.RowRange{Begin: begin, End: begin + fragRows},
			Vec: layout.ColVector{
				Data: dense, Base: int(begin) * stride,
				Stride: stride, Size: 8, Len: int(fragRows),
			},
			Zone:   z,
			FragID: uint64(i + 1), FragVersion: 1,
		}
	}
	return pieces
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

// Render formats the sweep as a fixed-width table.
func (s *MultiDeviceSweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "multidevice panel: SELECT SUM(val), COUNT(*) WHERE … over %d rows in %d fragments (%d rows each), hash-sharded across the fleet\n",
		s.Rows, s.Fragments, s.FragmentRows)
	b.WriteString("cold = first scan (transfers + kernels); warm = replay against per-card fragment caches; host = morsel-driven host operator\n")
	rows := [][]string{{"devices", "layout", "sel", "cold ns", "warm ns", "host ns",
		"cold h2d", "warm h2d", "hits/misses", "warm speedup"}}
	for _, p := range s.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Devices),
			p.Layout,
			fmt.Sprintf("%.2f", p.Selectivity),
			fmt.Sprintf("%.0f", p.ColdNs),
			fmt.Sprintf("%.0f", p.WarmNs),
			fmt.Sprintf("%.0f", p.HostOnlyNs),
			fmt.Sprintf("%d", p.ColdH2DBytes),
			fmt.Sprintf("%d", p.WarmH2DBytes),
			fmt.Sprintf("%d/%d", p.CacheHits, p.CacheMisses),
			fmt.Sprintf("%.2f", p.WarmSpeedup),
		})
	}
	renderTable(&b, rows)
	fmt.Fprintf(&b, "warm throughput scales with device count (≥1.5x per doubling): %v\n", s.WarmScales(1.5))
	return b.String()
}

// CSV renders the sweep as comma-separated values, one row per point.
func (s *MultiDeviceSweep) CSV() string {
	var b strings.Builder
	b.WriteString("devices,layout,selectivity,matched,cold_ns,warm_ns,host_only_ns," +
		"cold_h2d_bytes,warm_h2d_bytes,cache_hits,cache_misses,warm_speedup\n")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%d,%s,%g,%d,%g,%g,%g,%d,%d,%d,%d,%g\n",
			p.Devices, p.Layout, p.Selectivity, p.Matched,
			p.ColdNs, p.WarmNs, p.HostOnlyNs,
			p.ColdH2DBytes, p.WarmH2DBytes, p.CacheHits, p.CacheMisses, p.WarmSpeedup)
	}
	return b.String()
}
