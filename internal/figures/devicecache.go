package figures

import (
	"fmt"
	"math"
	"strings"

	"hybridstore/internal/device"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// The devicecache panel demonstrates the device-resident fragment cache
// (paper Section IV-C, "mixed data location"): a repeated device scan
// over unchanged fragments costs zero bus bytes because the column
// images stay resident, while an interleaved write bumps one fragment's
// version and the next scan re-ships exactly that fragment. Every round
// is also priced against an uncached baseline device that re-ships the
// whole column each scan, so the panel reports the bus traffic and
// simulated time the cache saves.

// DeviceCacheRound is one scan of the sweep.
type DeviceCacheRound struct {
	// Round numbers the scans; Kind is "cold", "warm" or "write+rescan".
	Round int
	Kind  string
	// H2DBytes is what the cached scan moved over the bus this round;
	// BaselineH2DBytes what the uncached device moved for the same scan.
	H2DBytes, BaselineH2DBytes int64
	// Hits and Misses are the cache lookups this round.
	Hits, Misses int64
	// CachedNs and BaselineNs are the simulated device times.
	CachedNs, BaselineNs float64
}

// DeviceCacheSweep is the full panel.
type DeviceCacheSweep struct {
	// Rows is the table size; FragmentRows the rows per fragment.
	Rows, FragmentRows uint64
	// Fragments is the fragment count.
	Fragments int
	// Rounds holds every scan in order.
	Rounds []DeviceCacheRound
	// TotalH2DBytes and TotalBaselineH2DBytes sum the bus traffic of the
	// cached and uncached executions over the whole sweep.
	TotalH2DBytes, TotalBaselineH2DBytes int64
}

// MeasureDeviceCache executes the sweep for real: one cold scan,
// warmRounds warm scans, then writes rounds of write-one-row-and-rescan.
// Every scan's answer is cross-checked against a host-side shadow of the
// column on both devices.
func MeasureDeviceCache(rows uint64, fragments, warmRounds, writes int) (*DeviceCacheSweep, error) {
	if fragments < 1 || rows%uint64(fragments) != 0 {
		return nil, fmt.Errorf("figures: rows %d not divisible into %d fragments", rows, fragments)
	}
	if warmRounds < 1 {
		warmRounds = 2
	}
	if writes < 1 {
		writes = 2
	}
	chunk := rows / uint64(fragments)
	host := mem.NewAllocator(mem.Host, 0)
	items := workload.ItemSchema()
	col := layout.NewLayout("devcache", items)
	defer col.Free()
	for begin := uint64(0); begin < rows; begin += chunk {
		f, err := layout.NewFragment(host, items, []int{workload.ItemPriceCol},
			layout.RowRange{Begin: begin, End: begin + chunk}, layout.Direct)
		if err == nil {
			err = col.Add(f)
		}
		if err != nil {
			return nil, err
		}
	}
	shadow := make([]float64, rows)
	frags := col.Fragments()
	for i := uint64(0); i < rows; i++ {
		price := selPrice(i)
		shadow[i] = price
		if err := frags[i/chunk].AppendTuplet([]schema.Value{schema.FloatValue(price)}); err != nil {
			return nil, err
		}
	}
	for _, f := range frags {
		f.SealStats()
	}

	cachedClock, baseClock := &perfmodel.Clock{}, &perfmodel.Clock{}
	cachedGPU := device.New(perfmodel.DefaultDevice(), cachedClock)
	baseGPU := device.New(perfmodel.DefaultDevice(), baseClock)
	cache := device.NewFragCache(cachedGPU)
	p := exec.Between(0, float64(rows)) // closed, admits every sealed zone

	sweep := &DeviceCacheSweep{Rows: rows, FragmentRows: chunk, Fragments: fragments}
	scan := func(kind string) error {
		// Re-view each round: writes bump fragment versions and the scan
		// must carry the current ones.
		pieces, err := exec.ColumnView(col, workload.ItemPriceCol, rows)
		if err != nil {
			return err
		}
		var wantSum float64
		var wantN int64
		for _, x := range shadow {
			if p.Match(x) {
				wantSum += x
				wantN++
			}
		}
		round := DeviceCacheRound{Round: len(sweep.Rounds) + 1, Kind: kind}
		cb, bb := cachedGPU.Stats(), baseGPU.Stats()
		cst := cache.Stats()
		cNs, bNs := cachedClock.ElapsedNs(), baseClock.ElapsedNs()

		ds := exec.DeviceScan{GPU: cachedGPU, Cache: cache, Table: "devcache"}
		sum, n, err := sumWhereOn(ds, workload.ItemPriceCol, pieces, p)
		if err != nil {
			return err
		}
		base := exec.DeviceScan{GPU: baseGPU, Table: "devcache"}
		bSum, bN, err := sumWhereOn(base, workload.ItemPriceCol, pieces, p)
		if err != nil {
			return err
		}
		for _, got := range []struct {
			sum float64
			n   int64
		}{{sum, n}, {bSum, bN}} {
			if got.n != wantN || math.Abs(got.sum-wantSum) > 1e-6*math.Max(1, wantSum) {
				return fmt.Errorf("figures: devicecache round %d (%s): got (%v, %d), want (%v, %d)",
					round.Round, kind, got.sum, got.n, wantSum, wantN)
			}
		}

		ca, ba := cachedGPU.Stats(), baseGPU.Stats()
		csa := cache.Stats()
		round.H2DBytes = ca.HostToDeviceBytes - cb.HostToDeviceBytes
		round.BaselineH2DBytes = ba.HostToDeviceBytes - bb.HostToDeviceBytes
		round.Hits = csa.Hits - cst.Hits
		round.Misses = csa.Misses - cst.Misses
		round.CachedNs = cachedClock.ElapsedNs() - cNs
		round.BaselineNs = baseClock.ElapsedNs() - bNs
		sweep.Rounds = append(sweep.Rounds, round)
		sweep.TotalH2DBytes += round.H2DBytes
		sweep.TotalBaselineH2DBytes += round.BaselineH2DBytes
		return nil
	}

	if err := scan("cold"); err != nil {
		return nil, err
	}
	for i := 0; i < warmRounds; i++ {
		if err := scan("warm"); err != nil {
			return nil, err
		}
	}
	for w := 0; w < writes; w++ {
		// Write one row of one fragment, keeping the value inside the
		// sealed zone so pruning stays exact; the Set bumps the fragment
		// version and only this fragment's image goes stale.
		fi := w % fragments
		local := 3 + w
		row := uint64(fi)*chunk + uint64(local)
		val := selPrice(uint64(fi) * chunk) // fragment minimum: within bounds
		if err := frags[fi].Set(local, workload.ItemPriceCol, schema.FloatValue(val)); err != nil {
			return nil, err
		}
		shadow[row] = val
		if err := scan("write+rescan"); err != nil {
			return nil, err
		}
	}
	return sweep, nil
}

// Render formats the sweep as a fixed-width table.
func (s *DeviceCacheSweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "devicecache panel: repeated SUM(price) WHERE on the device, %d rows in %d fragments (%d rows each)\n",
		s.Rows, s.Fragments, s.FragmentRows)
	b.WriteString("cached = fragment-cache device; baseline = uncached device re-shipping every scan\n")
	rows := [][]string{{"round", "kind", "h2d bytes", "baseline h2d", "hits", "misses", "sim speedup"}}
	for _, r := range s.Rounds {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Round),
			r.Kind,
			fmt.Sprintf("%d", r.H2DBytes),
			fmt.Sprintf("%d", r.BaselineH2DBytes),
			fmt.Sprintf("%d", r.Hits),
			fmt.Sprintf("%d", r.Misses),
			fmt.Sprintf("%.1fx", r.BaselineNs/math.Max(r.CachedNs, 1)),
		})
	}
	renderTable(&b, rows)
	fmt.Fprintf(&b, "total bus traffic: %d bytes cached vs %d bytes uncached (%.1fx less)\n",
		s.TotalH2DBytes, s.TotalBaselineH2DBytes,
		float64(s.TotalBaselineH2DBytes)/math.Max(float64(s.TotalH2DBytes), 1))
	return b.String()
}

// CSV renders the sweep as comma-separated values, one row per round.
func (s *DeviceCacheSweep) CSV() string {
	var b strings.Builder
	b.WriteString("round,kind,h2d_bytes,baseline_h2d_bytes,hits,misses,cached_ns,baseline_ns\n")
	for _, r := range s.Rounds {
		fmt.Fprintf(&b, "%d,%s,%d,%d,%d,%d,%g,%g\n",
			r.Round, r.Kind, r.H2DBytes, r.BaselineH2DBytes, r.Hits, r.Misses, r.CachedNs, r.BaselineNs)
	}
	return b.String()
}
