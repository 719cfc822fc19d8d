// Package cogadb implements the CoGaDB storage engine (Breß, 2014; paper
// Section IV-B.3): a cross-device CPU/GPU column store for analytic
// processing. Relations are thin directly-linearized sub-relation columns
// in host memory; individual columns may additionally be replicated into
// device memory under an "all or nothing" policy — either the whole
// column fits in device global memory, or the placement falls back to the
// host. Operator placement is decided by the self-learning HyPE scheduler
// (hype.go), which balances work between the devices from observed
// execution times.
package cogadb

import (
	"errors"
	"fmt"

	"hybridstore/internal/engine"
	"hybridstore/internal/engines/common"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
)

// Placements used by the HyPE scheduler.
const (
	placeCPU = "cpu"
	placeGPU = "gpu"
)

// Engine is the CoGaDB storage engine.
type Engine struct {
	env     *engine.Env
	epsilon float64
}

// New creates the engine; epsilon is the HyPE exploration rate (0 uses
// the default).
func New(env *engine.Env, epsilon float64) *Engine {
	return &Engine{env: env, epsilon: epsilon}
}

// Name returns the survey name.
func (e *Engine) Name() string { return "CoGaDB" }

// Capabilities declares the paper's Table-1 row.
func (e *Engine) Capabilities() taxonomy.Capabilities {
	return taxonomy.Capabilities{
		BuiltInMultiLayout: true,
		Scheme:             taxonomy.SchemeReplication,
		Processors:         taxonomy.CPUAndGPU,
		Workloads:          taxonomy.OLAP,
		Year:               2016,
	}
}

// Table is a CoGaDB relation.
type Table struct {
	*common.Table
	hostCols []*layout.Fragment
	// replicas maps attribute index → device-resident copy.
	replicas map[int]*layout.Fragment
	devLay   *layout.Layout
	hype     *hype
	// gpuRuns / cpuRuns count scheduler decisions (for tests/examples).
	gpuRuns, cpuRuns int
}

// Create makes an empty relation with host-resident columns.
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rel := layout.NewRelation(name, s)
	hostLay := layout.NewLayout("host-columns", s)
	const initialCap = 64
	t := &Table{
		replicas: make(map[int]*layout.Fragment),
		hype:     newHype(e.epsilon),
	}
	for c := 0; c < s.Arity(); c++ {
		f, err := layout.NewFragment(e.env.Host, s, []int{c}, layout.RowRange{Begin: 0, End: initialCap}, layout.Direct)
		if err != nil {
			hostLay.Free()
			return nil, fmt.Errorf("cogadb: %w", err)
		}
		hostLay.Add(f)
		t.hostCols = append(t.hostCols, f)
	}
	rel.AddLayout(hostLay)
	t.devLay = layout.NewLayout("device-columns", s)
	rel.AddLayout(t.devLay)
	t.Table = common.NewTable(e.env, rel)
	t.Append = t.appendRecord
	t.Run = t.scan
	return t, nil
}

// appendRecord appends to the host columns and writes through to any
// device replicas (replication-based scheme), charging bus time.
func (t *Table) appendRecord(row uint64, rec schema.Record) error {
	hostLay := t.Rel.Layouts()[0]
	for c, f := range t.hostCols {
		if f.Len() == f.Cap() {
			grown, err := f.Grow(t.Env.Host, f.Cap()*2)
			if err != nil {
				return fmt.Errorf("cogadb: growing column: %w", err)
			}
			if err := hostLay.Replace(f, grown); err != nil {
				return err
			}
			t.hostCols[c] = grown
			f = grown
		}
		if err := f.AppendTuplet([]schema.Value{rec[c]}); err != nil {
			return err
		}
	}
	for c, r := range t.replicas {
		if r.Len() == r.Cap() {
			grown, err := r.Grow(t.Env.GPU.Allocator(), r.Cap()*2)
			if err != nil {
				// All-or-nothing: a replica that no longer fits is evicted.
				if errors.Is(err, mem.ErrOutOfMemory) {
					t.evictLocked(c)
					continue
				}
				return err
			}
			if err := t.devLay.Replace(r, grown); err != nil {
				return err
			}
			t.replicas[c] = grown
			r = grown
		}
		if err := r.AppendTuplet([]schema.Value{rec[c]}); err != nil {
			return err
		}
		if t.Env.Clock != nil {
			t.Env.Clock.Advance(t.Env.GPU.Profile().TransferNs(int64(t.Rel.Schema().Attr(c).Size)))
		}
	}
	return nil
}

// Place replicates column c into device memory following the
// all-or-nothing policy: on mem.ErrOutOfMemory the column stays on the
// host and the error is returned for the caller's fallback scheduling.
func (t *Table) Place(c int) error {
	if c < 0 || c >= len(t.hostCols) {
		return fmt.Errorf("%w: col %d", layout.ErrOutOfRange, c)
	}
	if _, ok := t.replicas[c]; ok {
		return nil
	}
	src := t.hostCols[c]
	replica, err := src.CloneTo(t.Env.GPU.Allocator())
	if err != nil {
		return fmt.Errorf("cogadb: placing column %d on device: %w", c, err)
	}
	if t.Env.Clock != nil {
		t.Env.Clock.Advance(t.Env.GPU.Profile().TransferNs(int64(replica.SizeBytes())))
	}
	t.replicas[c] = replica
	return t.devLay.Add(replica)
}

// Evict removes column c's device replica.
func (t *Table) Evict(c int) { t.evictLocked(c) }

func (t *Table) evictLocked(c int) {
	if r, ok := t.replicas[c]; ok {
		t.devLay.Remove(r)
		r.Free()
		delete(t.replicas, c)
	}
}

// Placed reports whether column c has a device replica.
func (t *Table) Placed(c int) bool { _, ok := t.replicas[c]; return ok }

// Runs returns the (cpu, gpu) scheduler decision counts.
func (t *Table) Runs() (cpu, gpu int) { return t.cpuRuns, t.gpuRuns }

// Update writes through host column and device replica.
func (t *Table) Update(row uint64, col int, v schema.Value) error {
	if err := t.Table.Update(row, col, v); err != nil {
		return err
	}
	if _, ok := t.replicas[col]; ok && t.Env.Clock != nil {
		t.Env.Clock.Advance(t.Env.GPU.Profile().TransferNs(int64(t.Rel.Schema().Attr(col).Size)))
	}
	return nil
}

// hypeOps names the scan kinds HyPE schedules; the names key its learned
// cost models.
var hypeOps = map[exec.Kind]string{
	exec.KindSum:           "sum",
	exec.KindSumWhere:      "sumwhere",
	exec.KindGroupSumWhere: "groupsumwhere",
}

// scan lets HyPE place the plan: the host operators over the host
// columns, the device kernels over standing replicas (a grouped plan
// needs BOTH columns replicated — the fused kernel sweeps them
// together). Only plans a device kernel can run are offered the device
// placement; the rest, and plans with no alternative, run on the host
// unscheduled — except the unfiltered sum, which has always consulted
// HyPE, so its model learns the host cost before a replica exists. The
// measured (simulated) execution time of a scheduled run feeds the
// scheduler's cost models.
func (t *Table) scan(p exec.Plan) (exec.Result, error) {
	p = p.Normalize()
	if err := p.Check(t.Schema()); err != nil {
		return exec.Result{}, err
	}
	placements := []string{placeCPU}
	if _, scheduled := hypeOps[p.Op]; scheduled && p.DeviceOK() {
		_, replicated := t.replicas[p.Col]
		if p.Op.Grouped() && replicated {
			_, replicated = t.replicas[p.KeyCol]
		}
		if replicated {
			placements = append(placements, placeGPU)
		}
	}
	if len(placements) == 1 && p.Op != exec.KindSum {
		return engine.Scan(placed{t, placeCPU}, t.Cfg, nil, p)
	}
	n := int64(t.Rel.Rows())
	choice := t.hype.Choose(hypeOps[p.Op], n, placements)
	var before float64
	if t.Env.Clock != nil {
		before = t.Env.Clock.ElapsedNs()
	}
	var dev exec.ScanExecutor
	if choice == placeGPU {
		t.gpuRuns++
		dev = exec.DeviceScan{GPU: t.Env.GPU}
	} else {
		t.cpuRuns++
	}
	res, err := engine.Scan(placed{t, choice}, t.Cfg, dev, p)
	if err == nil && t.Env.Clock != nil {
		t.hype.Observe(hypeOps[p.Op], choice, n, t.Env.Clock.ElapsedNs()-before)
	}
	return res, err
}

// placed is the table as a scan source under one HyPE placement.
type placed struct {
	*Table
	placement string
}

// Pieces returns each plan column as one piece: the device replica,
// resident, under the GPU placement; else the host column with its zone.
func (s placed) Pieces(p exec.Plan) (keys, vals []exec.Piece, err error) {
	return engine.ColumnPieces(p, func(col int) ([]exec.Piece, error) {
		f, place := s.hostCols[col], exec.OnHost
		if s.placement == placeGPU {
			f, place = s.replicas[col], exec.Resident
		}
		v, err := f.ColVector(col)
		if err != nil {
			return nil, err
		}
		pc := exec.Piece{Rows: layout.RowRange{Begin: 0, End: uint64(v.Len)}, Vec: v, Place: place}
		if place == exec.OnHost {
			pc.Zone = f.Stats(col)
		}
		return []exec.Piece{pc}, nil
	})
}

// Free releases host columns and device replicas.
func (t *Table) Free() {
	t.Table.Free()
	t.replicas = nil
	t.hostCols = nil
}
