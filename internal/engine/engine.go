// Package engine defines the common contract every surveyed storage
// engine in internal/engines (and the reference engine in internal/core)
// implements, plus the shared environment (memory spaces, the simulated
// device, the simulated clock) engines are constructed against.
//
// The contract deliberately mirrors the two access patterns of the
// paper's experiment: Materialize is the record-centric query Q1
// generalized to a position list, SumFloat64 is the attribute-centric
// query Q2. Snapshot exposes the live layout structure so that
// taxonomy.Classify can derive each engine's Table-1 row from what the
// engine actually built rather than from hand-written claims.
package engine

import (
	"errors"

	"hybridstore/internal/device"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
	"hybridstore/internal/workload"
)

// Shared engine errors. Individual engines may add their own.
var (
	// ErrNoSuchRow is returned for reads/updates of rows that do not exist.
	ErrNoSuchRow = errors.New("engine: no such row")
	// ErrReadOnly is returned by engines (or engine regions) that reject
	// writes, e.g. compressed base pages.
	ErrReadOnly = errors.New("engine: read-only")
	// ErrUnsupported is returned for operations outside an engine's
	// designed workload (e.g. updates on the OLAP-only CoGaDB port).
	ErrUnsupported = errors.New("engine: operation unsupported by this engine")
)

// Env is the platform an engine runs on: allocators for each memory
// space, the simulated device, the host profile, and the simulated clock
// shared by all cost accounting.
type Env struct {
	// Host allocates main memory (unlimited).
	Host *mem.Allocator
	// Disk allocates secondary storage (unlimited).
	Disk *mem.Allocator
	// GPU is the simulated device; engines without device support ignore it.
	GPU *device.GPU
	// HostProfile prices host-side work.
	HostProfile perfmodel.HostProfile
	// Clock accumulates simulated time across the platform. May be nil.
	Clock *perfmodel.Clock
	// ExecPolicy is the host threading policy engines configure their
	// bulk operators with: SingleThreaded (the zero value), blockwise
	// MultiThreaded, or MorselDriven on the shared resident pool.
	ExecPolicy exec.Policy
	// Cache keeps device-resident fragment images so repeated device
	// scans over unchanged data skip the bus (paper Section IV-C, "mixed
	// data location"). Engines treat a nil cache as "re-ship every scan".
	Cache *device.FragCache
}

// NewEnv builds a default environment: unlimited host and disk, a device
// with the paper's profile, one shared clock.
func NewEnv() *Env {
	clk := &perfmodel.Clock{}
	gpu := device.New(perfmodel.DefaultDevice(), clk)
	return &Env{
		Host:        mem.NewAllocator(mem.Host, 0),
		Disk:        mem.NewAllocator(mem.Secondary, 0),
		GPU:         gpu,
		HostProfile: perfmodel.DefaultHost(),
		Clock:       clk,
		Cache:       device.NewFragCache(gpu),
	}
}

// DeviceExec returns the device-routed scan executor for one table: the
// card's DeviceScan over the environment's fragment cache.
func (e *Env) DeviceExec(table string) exec.DeviceScan {
	return exec.DeviceScan{GPU: e.GPU, Cache: e.Cache, Table: table}
}

// InvalidateFrag retires cached device images of one fragment. Engines
// call this when a fragment's backing store is replaced or freed
// outright.
func (e *Env) InvalidateFrag(table string, frag uint64) {
	if e.Cache != nil {
		e.Cache.InvalidateFrag(table, frag)
	}
}

// InvalidateTable retires cached device images of one table.
func (e *Env) InvalidateTable(table string) {
	if e.Cache != nil {
		e.Cache.InvalidateTable(table)
	}
}

// Table is one relation managed by a storage engine.
type Table interface {
	// Schema returns the relation schema.
	Schema() *schema.Schema
	// Rows returns the visible row count.
	Rows() uint64
	// Insert appends a record and returns its position.
	Insert(rec schema.Record) (uint64, error)
	// Get materializes the full record at the given position.
	Get(row uint64) (schema.Record, error)
	// Update overwrites one field of one record.
	Update(row uint64, col int, v schema.Value) error
	// Scan answers one aggregate plan — kind sum, sum_where, group_sum or
	// group_sum_where — over all records: the one attribute-centric
	// entry. Plans reading a column outside the schema or of the wrong
	// kind fail with layout.ErrOutOfRange / exec.ErrBadColumn.
	Scan(p exec.Plan) (exec.Result, error)
	// SumFloat64 aggregates a float64 attribute over all records (the
	// paper's attribute-centric query Q2): sugar for a sum plan.
	SumFloat64(col int) (float64, error)
	// Materialize resolves a sorted position list to full records (the
	// paper's record-centric access pattern).
	Materialize(positions []uint64) ([]schema.Record, error)
	// Snapshot digests the live physical structure for classification.
	Snapshot() layout.Snapshot
	// Free releases all storage held by the table.
	Free()
}

// Engine creates tables and declares its behavioural capabilities.
type Engine interface {
	// Name is the engine name as printed in the survey table.
	Name() string
	// Capabilities declares the behavioural facts the classifier cannot
	// derive structurally.
	Capabilities() taxonomy.Capabilities
	// Create makes a new empty table.
	Create(name string, s *schema.Schema) (Table, error)
}

// Adaptive is implemented by tables whose layouts respond to workload
// changes (the paper's "responsive" adaptability).
type Adaptive interface {
	// Observe feeds one workload operation into the table's monitor.
	Observe(op workload.Op)
	// Adapt re-organizes the table's layout if the observed pattern asks
	// for it, returning whether anything changed.
	Adapt() (bool, error)
}

// Classify derives the engine's survey row from a representative table.
func Classify(e Engine, t Table) (taxonomy.Classification, error) {
	return taxonomy.Classify(e.Name(), t.Snapshot(), e.Capabilities())
}

// Audit classifies the table and validates the result against the
// taxonomy's consistency rules, returning the classification and any
// violations.
func Audit(e Engine, t Table) (taxonomy.Classification, []taxonomy.Violation, error) {
	c, err := Classify(e, t)
	if err != nil {
		return taxonomy.Classification{}, nil, err
	}
	return c, taxonomy.Validate(c, t.Snapshot(), e.Capabilities()), nil
}
