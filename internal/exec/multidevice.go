// Cross-device scheduling: MultiDeviceScan fans one logical column scan
// out across every card of a device.Env and, optionally, the host morsel
// pool — all running concurrently. Fragment homes come from the layout
// shard map; per-fragment placement then refines against warmth (a
// cache-resident image at the current version always stays on its card)
// and the perfmodel cost of shipping versus scanning in place, so a cold
// fragment the host can scan faster than the bus can carry it never
// crosses the bus. Partial results fold back in original piece order,
// which keeps the fleet's answers bit-identical to the single-card
// DeviceScan over the same pieces. Pieces an engine placed in device
// memory itself (Resident) are not scheduled at all: they scan on the
// card that holds them.
//
// Simulated-time accounting: every card charges its own lane clock while
// the fan-out runs, and Env.SettleMax folds the longest lane (or the host
// lane, if it ran longest) into the shared platform clock — concurrent
// lanes cost their maximum, which is exactly where multi-device throughput
// scaling comes from.
package exec

import (
	"fmt"
	"sync"

	"hybridstore/internal/device"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
	"hybridstore/internal/perfmodel"
)

var (
	obsMultiScan     = obs.NewSpanFamily("exec.multidevice_scan")
	mMultiHostPieces = obs.NewCounter("exec.multidevice.host_pieces")
	mMultiDevPieces  = obs.NewCounter("exec.multidevice.device_pieces")
)

// MultiDeviceScan schedules device-routed scans across a card fleet plus
// the host morsel pool.
type MultiDeviceScan struct {
	// Env is the card fleet. Required.
	Env *device.Env
	// Table namespaces cache keys (the owning relation's name).
	Table string
	// Shards maps fragment IDs to cards; nil falls back to hashing the
	// fragment ID over the fleet.
	Shards *layout.ShardMap
	// Host configures the host lane (policy, profile). When HostLane is
	// set and the profile is usable, cold fragments that are cheaper to
	// scan in place run here, concurrently with the cards.
	Host Config
	// HostLane enables the host leg of the fan-out.
	HostLane bool
	// Home is the card engines place fragments on themselves: Resident
	// pieces scan there, as one more lane of the fan-out. Wiring set with
	// the fleet (engine.Env.DeviceExec); a scan carrying resident pieces
	// without it fails.
	Home DeviceScan
}

// cardScan builds the single-card DeviceScan for card i; lane N is the
// home card.
func (m *MultiDeviceScan) cardScan(i int) DeviceScan {
	if i == m.Env.N() {
		return m.Home
	}
	c := m.Env.Card(i)
	return DeviceScan{GPU: c.GPU(), Cache: c.Cache(), Table: m.Table}
}

// homeCard returns the shard-map home of a piece.
func (m *MultiDeviceScan) homeCard(p Piece) int {
	if m.Shards != nil {
		h := m.Shards.DeviceFor(p.FragID)
		if h >= 0 && h < m.Env.N() {
			return h
		}
	}
	return int(p.FragID % uint64(m.Env.N()))
}

// deviceCostNs prices a cold scan of one piece on a card: ship the image
// (compressed pieces ship their marshaled bytes) and run the reduction.
func (m *MultiDeviceScan) deviceCostNs(p Piece) float64 {
	prof := m.Env.Profile()
	bytes := int64(p.Vec.Len * p.Vec.Size)
	if p.Comp != nil {
		bytes = int64(p.Comp.MarshaledBytes())
	}
	cfg := device.ReduceConfigFor(p.Vec.Len)
	return prof.TransferNs(bytes) + prof.ReduceKernelNs(int64(p.Vec.Len), p.Vec.Size, p.Vec.Size, cfg.Blocks, cfg.ThreadsPerBlock)
}

// place assigns each pair index of the scan to a card (by the value
// piece's shard home; resident pieces, which nothing may move, to the
// home card, lane N) or to the host lane. Pieces the predicate's zone
// test excludes stay on their home card, whose DeviceScan prunes them
// for free — routing them anywhere else would double-count the zone
// decision. Admissible pieces go to the host lane when it is enabled and
// can price work (a zero profile would divide by zero bandwidth), the
// image is not warm on its home card at the piece's version, and the
// in-place scan is cheaper than bus plus kernel.
func (m *MultiDeviceScan) place(sc Scan) (perCard [][]int, host []int) {
	perCard = make([][]int, m.Env.N()+1)
	hostOK := m.HostLane && m.Host.Host.SeqBandwidth > 0
	for j, p := range sc.Vals {
		if p.Place == Resident {
			perCard[m.Env.N()] = append(perCard[m.Env.N()], j)
			continue
		}
		home := m.homeCard(p)
		if hostOK && (!sc.Op.Filtered() || ZoneAdmits(p.Zone, sc.Pred)) &&
			!m.Env.Card(home).Cache().Resident(fragKey(m.Table, sc.Col, p), p.FragVersion) &&
			scanPieceNs(m.Host.Host, p, 1) < m.deviceCostNs(p) {
			host = append(host, j)
			continue
		}
		perCard[home] = append(perCard[home], j)
	}
	return perCard, host
}

// Scan runs the scan across the fleet and the host lane: one goroutine
// per card works through its pieces in order on that card's stream, the
// host lane works through its pieces on the morsel pool under a private
// scratch clock, and Env.SettleMax folds the longest lane into the
// shared clock. Per-piece results land indexed by original position and
// fold in piece order — sums left to right, group tables through
// MergeGroupResults — which keeps the fleet bit-identical to the
// single-card DeviceScan. Scans no kernel can run fail with
// ErrBadColumn exactly like DeviceScan, before anything is placed.
func (m *MultiDeviceScan) Scan(sc Scan) (Result, error) {
	if _, _, err := sc.deviceForm(); err != nil {
		return Result{}, err
	}
	sp := obsMultiScan.Start()
	defer sp.End()
	perCard, host := m.place(sc)
	if len(perCard[m.Env.N()]) > 0 && m.Home.GPU == nil {
		return Result{}, fmt.Errorf("%w: resident pieces without a home card", ErrBadColumn)
	}

	parts := make([]Result, len(sc.Vals))
	errs := make([]error, m.Env.N()+2)
	var wg sync.WaitGroup
	lane := func(slot int, ex ScanExecutor, idxs []int) {
		defer wg.Done()
		for _, j := range idxs {
			if parts[j], errs[slot] = ex.Scan(sc.Slice(j, j+1)); errs[slot] != nil {
				return
			}
		}
	}
	for i, idxs := range perCard {
		if len(idxs) == 0 {
			continue
		}
		mMultiDevPieces.Add(int64(len(idxs)))
		wg.Add(1)
		go lane(i, m.cardScan(i), idxs)
	}
	var hostClock *perfmodel.Clock
	if len(host) > 0 {
		mMultiHostPieces.Add(int64(len(host)))
		cfg := m.Host
		if cfg.Clock != nil {
			hostClock = &perfmodel.Clock{}
			cfg.Clock = hostClock
		}
		wg.Add(1)
		go lane(m.Env.N()+1, cfg, host)
	}
	wg.Wait()
	var hostNs float64
	if hostClock != nil {
		hostNs = hostClock.ElapsedNs()
	}
	m.Env.SettleMax(hostNs)
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
