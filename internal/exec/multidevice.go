// Cross-device scheduling: MultiDeviceScan fans one logical column scan
// out across every card of a device.Env and, optionally, the host morsel
// pool — all running concurrently. Fragment homes come from the layout
// shard map; per-fragment placement then refines against warmth (a
// cache-resident image at the current version always stays on its card)
// and the perfmodel cost of shipping versus scanning in place, so a cold
// fragment the host can scan faster than the bus can carry it never
// crosses the bus. Partial results fold back in original piece order,
// which keeps the fleet's answers bit-identical to the single-card
// DeviceScan over the same pieces.
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
	// Launch overrides the per-card reduction geometry (zero = default).
	Launch device.LaunchConfig
	// Stages overrides the per-card stream depth (0 = double buffering).
	Stages int
}

// cardScan builds the single-card DeviceScan for card i.
func (m *MultiDeviceScan) cardScan(i int) DeviceScan {
	c := m.Env.Card(i)
	return DeviceScan{GPU: c.GPU(), Cache: c.Cache(), Table: m.Table, Launch: m.Launch, Stages: m.Stages}
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

// resident reports whether the piece's image is warm on its home card at
// the piece's version.
func (m *MultiDeviceScan) resident(card, col int, p Piece) bool {
	key := device.FragKey{Table: m.Table, Frag: p.FragID, Col: col, Row0: int(p.Rows.Begin), Rows: p.Vec.Len}
	if p.Comp != nil {
		key.Rows = p.Comp.Len()
		key.Comp = true
	}
	return m.Env.Card(card).Cache().Resident(key, p.FragVersion)
}

// deviceCostNs prices a cold scan of one piece on a card: ship the image
// (compressed pieces ship their marshaled bytes) and run the reduction.
func (m *MultiDeviceScan) deviceCostNs(p Piece) float64 {
	prof := m.Env.Profile()
	n := p.Vec.Len
	bytes := int64(n * p.Vec.Size)
	if p.Comp != nil {
		n = p.Comp.Len()
		bytes = int64(p.Comp.MarshaledBytes())
	}
	cfg := m.Launch
	if cfg.Blocks <= 0 {
		cfg = device.DefaultReduceConfig()
		if n < cfg.Blocks*2 {
			cfg = device.LaunchConfig{Blocks: 8, ThreadsPerBlock: 64}
		}
	}
	return prof.TransferNs(bytes) + prof.ReduceKernelNs(int64(n), p.Vec.Size, p.Vec.Size, cfg.Blocks, cfg.ThreadsPerBlock)
}

// hostUsable reports whether the host lane can actually price and run
// work (a zero profile would divide by zero bandwidth).
func (m *MultiDeviceScan) hostUsable() bool {
	return m.HostLane && m.Host.Host.SeqBandwidth > 0
}

// place assigns each piece index to a card (by shard home) or to the host
// lane. admit carries the piece's zone verdict: inadmissible pieces stay
// on their home card, whose DeviceScan prunes them for free — routing
// them anywhere else would double-count the zone decision. Admissible
// cold pieces go to the host lane when it is enabled and the in-place
// scan is cheaper than bus plus kernel.
func (m *MultiDeviceScan) place(col int, pieces []Piece, admit func(Piece) bool) (perCard [][]int, host []int) {
	perCard = make([][]int, m.Env.N())
	hostOK := m.hostUsable()
	for j, p := range pieces {
		home := m.homeCard(p)
		if admit != nil && !admit(p) {
			perCard[home] = append(perCard[home], j)
			continue
		}
		if hostOK && !m.resident(home, col, p) &&
			scanPieceNs(m.Host.Host, p, 1) < m.deviceCostNs(p) {
			host = append(host, j)
			continue
		}
		perCard[home] = append(perCard[home], j)
	}
	return perCard, host
}

// hostLaneConfig returns the host-leg execution config charging a private
// scratch clock, so the scheduler can fold the host lane's simulated time
// into the concurrent-phase maximum instead of serializing it.
func (m *MultiDeviceScan) hostLaneConfig() (Config, *perfmodel.Clock) {
	cfg := m.Host
	if cfg.Clock == nil {
		return cfg, nil
	}
	lane := &perfmodel.Clock{}
	cfg.Clock = lane
	return cfg, lane
}

// scanPartial is one piece's contribution to a scalar scan.
type scanPartial struct {
	sum   float64
	count int64
}

// runScalar executes the placed fan-out for a scalar (sum/count) scan:
// one goroutine per card works through its pieces in order on that card's
// stream, the host lane works through its pieces on the morsel pool, and
// the per-piece partials land indexed by original position.
func (m *MultiDeviceScan) runScalar(
	perCard [][]int, host []int, pieces []Piece,
	onCard func(d DeviceScan, p Piece) (scanPartial, error),
	onHost func(cfg Config, p Piece) (scanPartial, error),
) ([]scanPartial, error) {
	partials := make([]scanPartial, len(pieces))
	errs := make([]error, m.Env.N()+1)
	var wg sync.WaitGroup
	for i, idxs := range perCard {
		if len(idxs) == 0 {
			continue
		}
		mMultiDevPieces.Add(int64(len(idxs)))
		wg.Add(1)
		go func(i int, idxs []int) {
			defer wg.Done()
			d := m.cardScan(i)
			for _, j := range idxs {
				part, err := onCard(d, pieces[j])
				if err != nil {
					errs[i] = err
					return
				}
				partials[j] = part
			}
		}(i, idxs)
	}
	var lane *perfmodel.Clock
	if len(host) > 0 {
		mMultiHostPieces.Add(int64(len(host)))
		var cfg Config
		cfg, lane = m.hostLaneConfig()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range host {
				part, err := onHost(cfg, pieces[j])
				if err != nil {
					errs[m.Env.N()] = err
					return
				}
				partials[j] = part
			}
		}()
	}
	wg.Wait()
	var hostNs float64
	if lane != nil {
		hostNs = lane.ElapsedNs()
	}
	m.Env.SettleMax(hostNs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return partials, nil
}

// SumFloat64Where computes SUM(col), COUNT(*) WHERE p across the fleet
// and the host lane, folding per-piece partials in piece order (bit-
// identical to the single-card DeviceScan). Predicates without a closed-
// interval form fail with ErrBadColumn exactly like DeviceScan, so
// callers keep their host-fallback logic.
func (m *MultiDeviceScan) SumFloat64Where(col int, pieces []Piece, p Pred[float64]) (float64, int64, error) {
	if err := checkSize8(pieces, "device fused float64 sum"); err != nil {
		return 0, 0, err
	}
	if _, _, ok := ClosedFloat64(p); !ok {
		return 0, 0, fmt.Errorf("%w: predicate %v has no closed-interval form for the device kernel", ErrBadColumn, p.Op)
	}
	sp := obsMultiScan.Start()
	defer sp.End()
	perCard, host := m.place(col, pieces, func(pc Piece) bool { return ZoneAdmits(pc.Zone, p) })
	partials, err := m.runScalar(perCard, host, pieces,
		func(d DeviceScan, pc Piece) (scanPartial, error) {
			s, n, err := d.SumFloat64Where(col, []Piece{pc}, p)
			return scanPartial{s, n}, err
		},
		func(cfg Config, pc Piece) (scanPartial, error) {
			admit := ZoneAdmits(pc.Zone, p)
			NoteZoneDecision(admit, int64(pc.Vec.Len*pc.Vec.Size))
			if !admit {
				return scanPartial{}, nil
			}
			s, n, err := SumFloat64Where(cfg, []Piece{pc}, p)
			return scanPartial{s, n}, err
		})
	if err != nil {
		return 0, 0, err
	}
	var sum float64
	var count int64
	for _, part := range partials {
		sum += part.sum
		count += part.count
	}
	return sum, count, nil
}

// SumFloat64 is the unfiltered fleet reduction.
func (m *MultiDeviceScan) SumFloat64(col int, pieces []Piece) (float64, error) {
	if err := checkSize8(pieces, "device float64 sum"); err != nil {
		return 0, err
	}
	sp := obsMultiScan.Start()
	defer sp.End()
	perCard, host := m.place(col, pieces, nil)
	partials, err := m.runScalar(perCard, host, pieces,
		func(d DeviceScan, pc Piece) (scanPartial, error) {
			s, err := d.SumFloat64(col, []Piece{pc})
			return scanPartial{sum: s}, err
		},
		func(cfg Config, pc Piece) (scanPartial, error) {
			s, err := SumFloat64(cfg, []Piece{pc})
			return scanPartial{sum: s}, err
		})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, part := range partials {
		sum += part.sum
	}
	return sum, nil
}

// GroupSumFloat64Where computes SUM(val), COUNT(*) WHERE p GROUP BY key
// across the fleet and the host lane. Key/value pairs are placed by the
// VALUE piece's fragment home; per-piece group tables merge in piece
// order through the shared MergeGroupResults machinery. Compressed group
// keys are host-only, exactly like DeviceScan.
func (m *MultiDeviceScan) GroupSumFloat64Where(keyCol, valCol int, keys, vals []Piece, p Pred[float64]) ([]GroupResult, error) {
	if err := checkGroupCols(keys, vals); err != nil {
		return nil, err
	}
	if _, _, ok := ClosedFloat64(p); !ok {
		return nil, fmt.Errorf("%w: predicate %v has no closed-interval form for the device kernel", ErrBadColumn, p.Op)
	}
	for _, kp := range keys {
		if kp.Comp != nil {
			return nil, fmt.Errorf("%w: compressed group keys are host-only", ErrBadColumn)
		}
	}
	sp := obsMultiScan.Start()
	defer sp.End()
	perCard, host := m.place(valCol, vals, func(pc Piece) bool { return ZoneAdmits(pc.Zone, p) })

	tables := make([][]GroupResult, len(vals))
	errs := make([]error, m.Env.N()+1)
	var wg sync.WaitGroup
	for i, idxs := range perCard {
		if len(idxs) == 0 {
			continue
		}
		mMultiDevPieces.Add(int64(len(idxs)))
		wg.Add(1)
		go func(i int, idxs []int) {
			defer wg.Done()
			d := m.cardScan(i)
			for _, j := range idxs {
				t, err := d.GroupSumFloat64Where(keyCol, valCol, []Piece{keys[j]}, []Piece{vals[j]}, p)
				if err != nil {
					errs[i] = err
					return
				}
				tables[j] = t
			}
		}(i, idxs)
	}
	var lane *perfmodel.Clock
	if len(host) > 0 {
		var cfg Config
		cfg, lane = m.hostLaneConfig()
		mMultiHostPieces.Add(int64(len(host)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range host {
				t, err := GroupSumFloat64Where(cfg, []Piece{keys[j]}, []Piece{vals[j]}, p)
				if err != nil {
					errs[m.Env.N()] = err
					return
				}
				tables[j] = t
			}
		}()
	}
	wg.Wait()
	var hostNs float64
	if lane != nil {
		hostNs = lane.ElapsedNs()
	}
	m.Env.SettleMax(hostNs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return MergeGroupResults(tables...), nil
}
