// Cross-device scheduling: MultiDeviceScan fans one logical column scan
// out across every card of a device.Env, all running concurrently. A
// piece's card is a hash of its fragment ID (layout.ShardOf), so an image
// warmed by one scan is found by the next; partial results fold back in
// original piece order, which keeps the fleet's answers bit-identical to
// the single-card DeviceScan over the same pieces.
//
// Simulated-time accounting: every card charges its own lane clock while
// the fan-out runs, and Env.SettleMax folds the longest lane into the
// shared platform clock — concurrent lanes cost their maximum, which is
// exactly where multi-device throughput scaling comes from.
package exec

import (
	"fmt"
	"sync"

	"hybridstore/internal/device"
	"hybridstore/internal/layout"
)

// MultiDeviceScan schedules device-routed scans across a card fleet.
type MultiDeviceScan struct {
	// Env is the card fleet. Required.
	Env *device.Env
	// Table namespaces cache keys (the owning relation's name).
	Table string
}

// Scan runs the scan across the fleet: one goroutine per card works
// through its pieces in order on that card's DeviceScan (which prunes by
// zone, caches and streams exactly as a lone card does), and
// Env.SettleMax folds the longest lane into the shared clock. Per-piece
// results land indexed by original position and fold in piece order —
// sums left to right, group tables through MergeGroupResults. Scans no
// kernel can run fail with ErrBadColumn exactly like DeviceScan, before
// anything is placed; so does a scan carrying Resident pieces, which
// live on a card outside the fleet.
func (m *MultiDeviceScan) Scan(sc Scan) (Result, error) {
	if _, _, err := sc.deviceForm(); err != nil {
		return Result{}, err
	}
	n := m.Env.N()
	perCard := make([][]int, n)
	for j, p := range sc.Vals {
		if p.Place == Resident {
			return Result{}, fmt.Errorf("%w: resident pieces on a fleet scan", ErrBadColumn)
		}
		home := layout.ShardOf(p.FragID, n)
		perCard[home] = append(perCard[home], j)
	}
	parts := make([]Result, len(sc.Vals))
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, idxs := range perCard {
		if len(idxs) == 0 {
			continue
		}
		c := m.Env.Card(i)
		card := DeviceScan{GPU: c.GPU(), Cache: c.Cache(), Table: m.Table}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range idxs {
				if parts[j], errs[i] = card.Scan(sc.Slice(j, j+1)); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	m.Env.SettleMax()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	var res Result
	var tables [][]GroupResult
	for _, part := range parts {
		res.Sum += part.Sum
		res.Count += part.Count
		if sc.Op.Grouped() {
			tables = append(tables, part.Groups)
		}
	}
	res.Groups = MergeGroupResults(tables...)
	return res, nil
}
