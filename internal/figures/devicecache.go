package figures

import (
	"fmt"
	"math"

	"hybridstore/internal/exec"
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
	col, err := priceLayout("devcache", rows, fragments)
	if err != nil {
		return nil, err
	}
	defer col.Free()
	frags := col.Fragments()
	chunk := rows / uint64(fragments)
	shadow := make([]float64, rows)
	for i := range shadow {
		shadow[i] = monotonePrice(uint64(i))
	}

	cached, base := newRig(true), newRig(false)
	p := exec.Between(0, float64(rows)) // closed, admits every sealed zone

	sweep := &DeviceCacheSweep{Rows: rows, FragmentRows: chunk, Fragments: fragments}
	scan := func(kind string) error {
		// Re-view each round: writes bump fragment versions and the scan
		// must carry the current ones.
		pieces, err := exec.ColumnView(col, workload.ItemPriceCol, rows)
		if err != nil {
			return err
		}
		sc := exec.Scan{Plan: exec.Plan{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: p}, Vals: pieces}
		round := DeviceCacheRound{Round: len(sweep.Rounds) + 1, Kind: kind}
		l := legs{what: fmt.Sprintf("devicecache round %d (%s)", round.Round, kind), want: shadowSum(shadow, p)}
		c := l.on(cached, "cached", onCard("devcache", sc))
		b := l.on(base, "baseline", onCard("devcache", sc))
		if l.err != nil {
			return l.err
		}
		round.H2DBytes, round.Hits, round.Misses, round.CachedNs = c.H2D, c.Hits, c.Misses, c.Ns
		round.BaselineH2DBytes, round.BaselineNs = b.H2D, b.Ns
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
		val := monotonePrice(uint64(fi) * chunk) // fragment minimum: within bounds
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

// Tables renders the sweep, one row per round.
func (s *DeviceCacheSweep) Tables() []Table {
	t := Table{
		Caption: []string{
			fmt.Sprintf("devicecache panel: repeated SUM(price) WHERE on the device, %d rows in %d fragments (%d rows each)",
				s.Rows, s.Fragments, s.FragmentRows),
			"cached = fragment-cache device; baseline = uncached device re-shipping every scan",
		},
		Columns: []Column{
			{CSV: "round", Text: "round"},
			{CSV: "kind", Text: "kind"},
			{CSV: "h2d_bytes", Text: "h2d bytes"},
			{CSV: "baseline_h2d_bytes", Text: "baseline h2d"},
			{CSV: "hits", Text: "hits"},
			{CSV: "misses", Text: "misses"},
			{CSV: "cached_ns"},
			{CSV: "baseline_ns"},
			{Text: "sim speedup", TextVerb: "%.1fx"},
		},
		Footer: []string{fmt.Sprintf("total bus traffic: %d bytes cached vs %d bytes uncached (%.1fx less)",
			s.TotalH2DBytes, s.TotalBaselineH2DBytes,
			float64(s.TotalBaselineH2DBytes)/math.Max(float64(s.TotalH2DBytes), 1))},
	}
	for _, r := range s.Rounds {
		t.Rows = append(t.Rows, []any{r.Round, r.Kind, r.H2DBytes, r.BaselineH2DBytes, r.Hits, r.Misses,
			r.CachedNs, r.BaselineNs, r.BaselineNs / math.Max(r.CachedNs, 1)})
	}
	return []Table{t}
}
