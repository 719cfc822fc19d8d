// Package hybridstore is the public face of this repository: a storage
// engine library for hybrid transactional/analytical processing (HTAP)
// on cooperating CPUs and GPUs, reproducing and operationalizing
//
//	Pinnecke, Broneske, Campero Durand, Saake. "Are Databases Fit for
//	Hybrid Workloads on GPUs? A Storage Engine's Perspective." ICDE 2017.
//
// The package exposes the paper's proposed reference engine design
// (internal/core) behind a small API: open a DB, create tables, run
// transactional point operations and analytic scans, let the engine
// adapt its physical layouts — column grouping, NSM/DSM linearization,
// and host/device placement — to the observed workload.
//
// The ten surveyed engines, the taxonomy and classifier, the software
// GPU, and the Figure-2 experiment harness live in internal packages and
// are exercised by the cmd/ tools, the examples/ programs and the
// benchmark suite.
package hybridstore

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"hybridstore/internal/core"
	"hybridstore/internal/device"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
	"hybridstore/internal/rescache"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

// Re-exported schema vocabulary, so downstream users never import
// internal packages directly.
type (
	// Schema describes a relation's attributes.
	Schema = schema.Schema
	// Attribute describes one column.
	Attribute = schema.Attribute
	// Value is a dynamically-typed field value.
	Value = schema.Value
	// Record is one tuple's values.
	Record = schema.Record
	// Classification is a storage-engine survey row under the paper's
	// taxonomy.
	Classification = taxonomy.Classification
)

// Schema and value constructors, re-exported.
var (
	// NewSchema validates attributes and builds a schema.
	NewSchema = schema.New
	// Int32Attr, Int64Attr, Float64Attr and CharAttr build attributes.
	Int32Attr   = schema.Int32Attr
	Int64Attr   = schema.Int64Attr
	Float64Attr = schema.Float64Attr
	CharAttr    = schema.CharAttr
	// IntValue, Int32Value, FloatValue and CharValue build values.
	IntValue   = schema.IntValue
	Int32Value = schema.Int32Value
	FloatValue = schema.FloatValue
	CharValue  = schema.CharValue
)

// ExecPolicy selects the host threading policy for analytic operators.
type ExecPolicy = exec.Policy

// Execution policies, re-exported from internal/exec.
const (
	// SingleThreaded runs operators sequentially on the calling
	// goroutine (the default).
	SingleThreaded = exec.SingleThreaded
	// MultiThreaded partitions operators blockwise over
	// runtime.GOMAXPROCS(0) fresh goroutines per call.
	MultiThreaded = exec.MultiThreaded
	// MorselDriven executes operators in fixed-size morsels: one morsel
	// runs inline, more run on the caller and helper goroutines of the
	// call, and result buffers are recycled across queries.
	MorselDriven = exec.MorselDriven
)

// Options tunes a DB.
type Options struct {
	// ChunkRows is the horizontal chunk capacity (default 1024).
	ChunkRows uint64
	// HotChunks is the number of newest chunks kept in the OLTP region
	// (default 2).
	HotChunks int
	// DevicePlacement enables moving scan-hot columns to the simulated
	// GPU.
	DevicePlacement bool
	// DeviceCache routes cold-region analytic scans through the device
	// fragment cache: column images are shipped once, kept resident, and
	// reused until a write invalidates them, so repeated scans over
	// unchanged data cost zero bus bytes. Independent of DevicePlacement,
	// which moves fragments instead of caching images.
	DeviceCache bool
	// Compress seals side-car compressed images (RLE, dictionary, or
	// frame-of-reference — whichever is smallest) of cold numeric columns
	// at the freeze point, and only where that image is smaller than the
	// column: a column no encoding shrinks keeps no copy and scans its
	// own bytes. Analytic scans over an image evaluate predicates in the
	// compressed domain, and — combined with DeviceCache — ship it over
	// the bus, so transfer cost and cache footprint shrink by the
	// compression ratio.
	Compress bool
	// Policy is the host execution policy for analytic operators
	// (default SingleThreaded).
	Policy ExecPolicy
	// Durability tunes write-ahead logging and checkpointing. Consulted
	// only by OpenDir; Open builds a memory-only DB regardless.
	Durability Durability
	// ResultCache enables the cross-request query-result cache: answers
	// to point reads and analytic aggregates are kept stamped with the
	// epoch of the base state they were computed over, and a repeat of
	// the same query over unchanged data is served with one epoch
	// compare instead of a scan. Invalidation is purely passive — every
	// write to the base moves the epoch, the stamp stops matching, and
	// the entry dies on its next probe. Zero Cap leaves caching off.
	ResultCache ResultCacheOptions
}

// ResultCacheOptions tunes the cross-request result cache.
type ResultCacheOptions struct {
	// Cap bounds resident entry bytes; the cache evicts LRU-first above
	// it. Cap <= 0 disables the cache entirely.
	Cap int64
}

// DB is an open hybridstore instance: one simulated platform (host
// memory, device memory, calibrated clock) plus the reference engine.
type DB struct {
	env *engine.Env
	eng *core.Engine

	// dir, wal and dur are set only on a DB opened with OpenDir: the
	// durable directory, the shared write-ahead log, and the durability
	// options (for the per-table opt-in list).
	dir string
	wal *wal.Log
	dur Durability

	mu     sync.RWMutex
	tables map[string]*Table
}

// Open creates a DB.
func Open(opts Options) *DB {
	env := engine.NewEnv()
	env.ExecPolicy = opts.Policy
	return &DB{
		env: env,
		dur: opts.Durability,
		eng: core.New(env, core.Options{
			ChunkRows:        opts.ChunkRows,
			HotChunks:        opts.HotChunks,
			DevicePlacement:  opts.DevicePlacement,
			DeviceCache:      opts.DeviceCache,
			Compress:         opts.Compress,
			ResultCacheBytes: opts.ResultCache.Cap,
		}),
		tables: make(map[string]*Table),
	}
}

// DeviceCacheStats is a snapshot of the device fragment cache's meters:
// hits, misses, evictions, resident and pinned bytes, live entries.
type DeviceCacheStats = device.FragCacheStats

// DeviceCacheStats returns the device fragment cache's meters. The cache
// populates only when Options.DeviceCache is on; with it off the counts
// stay zero.
func (db *DB) DeviceCacheStats() DeviceCacheStats { return db.env.Cache.Stats() }

// ResultCacheStats is a snapshot of the result cache's meters: lookups,
// hits, misses (stale a subset of misses), evictions, puts, resident
// bytes and entries. Hits + misses always equals lookups.
type ResultCacheStats = rescache.Stats

// ResultCacheStats returns the result cache's meters; all-zero when
// Options.ResultCache left caching off.
func (db *DB) ResultCacheStats() ResultCacheStats {
	if c := db.eng.ResultCache(); c != nil {
		return c.Stats()
	}
	return ResultCacheStats{}
}

// SimulatedSeconds returns the simulated platform time consumed so far
// (the calibrated model's pricing of all executed work).
func (db *DB) SimulatedSeconds() float64 {
	return db.env.Clock.ElapsedNs() / 1e9
}

// Table is one hybridstore relation.
type Table struct {
	db  *DB
	t   *core.Table
	e   *core.Engine
	nam string
	// durable marks a table that logs to the DB's write-ahead log and
	// participates in checkpoints.
	durable bool
}

// ErrTableExists is returned by CreateTable for a name already in use.
var ErrTableExists = errors.New("hybridstore: table exists")

// CreateTable makes an empty table. On a DB opened with OpenDir, a
// table covered by the durability opt-in list logs its creation (and
// from then on every write) before this call acknowledges. A name
// already in use fails with ErrTableExists before anything is created
// or logged: a second create record would replay both handles' writes
// into one table.
func (db *DB) CreateTable(name string, s *Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	t, err := db.eng.Create(name, s)
	if err != nil {
		return nil, fmt.Errorf("hybridstore: creating table %q: %w", name, err)
	}
	tbl := &Table{db: db, t: t.(*core.Table), e: db.eng, nam: name}
	if db.wal != nil && db.durableName(name) {
		lsn, err := db.wal.Append(&wal.Record{Kind: wal.KindCreate, Table: name, Engine: "core", Schema: s})
		if err == nil {
			err = db.wal.Sync(lsn)
		}
		if err != nil {
			tbl.t.Free()
			return nil, fmt.Errorf("hybridstore: logging create of %q: %w", name, err)
		}
		tbl.t.EnableWAL(db.wal)
		tbl.durable = true
	}
	db.tables[name] = tbl
	return tbl, nil
}

// Table resolves a table by name, or nil when no such table exists. The
// serving layer uses this registry to bind prepared statements.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// Name returns the table name.
func (t *Table) Name() string { return t.nam }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.t.Schema() }

// Rows returns the row count.
func (t *Table) Rows() uint64 { return t.t.Rows() }

// Insert appends a record and returns its position.
func (t *Table) Insert(rec Record) (uint64, error) { return t.t.Insert(rec) }

// Update overwrites one field through a single-operation transaction.
func (t *Table) Update(row uint64, col int, v Value) error { return t.t.Update(row, col, v) }

// Plan describes one read — Op is "get", "sum", "sum_where",
// "group_sum" or "group_sum_where"; Col the aggregated float64 column;
// KeyCol the integer grouping column of the group kinds; Pred the
// predicate of the *_where kinds; Row the position of a get — and
// Result is its answer (Sum and Count, Groups, or Rec, by kind). The
// same value travels from the serving layer's wire parser to the
// engine unchanged; normalized, it is also the result-cache key.
type (
	Plan   = exec.Plan
	Result = exec.Result
)

// Execute is the table's one read entry: it answers any number of plans
// of one shape (same Op, Col and KeyCol — only predicates or rows
// differ) from a single pass over the storage — one lock acquisition,
// one MVCC snapshot, host fragments streamed once for all predicates,
// device images acquired once for all of them, device gathers charged
// per chunk instead of per row. Result k is exactly what executing
// plans[k] alone would return against that snapshot, under every
// policy; the serving layer's batching scheduler collapses concurrent
// compatible requests into this call. SumFloat64Where and
// GroupBySumWhere below each build the one plan their name describes
// and run it alone. A result is read-only: a get's record may be the
// result cache's own (Get returns a private copy).
func (t *Table) Execute(plans []Plan) ([]Result, error) { return t.t.Execute(plans) }

// Peek consults the result cache WITHOUT executing anything: ok=false
// means disabled, unanswerable from the cache, or simply absent — run
// Execute. It is the serving layer's pre-admission fast path and a
// valid linearization: a hit's version stamp matches the live fragment
// state at probe time. A hit is the cache entry itself, read-only.
func (t *Table) Peek(p Plan) (Result, bool) { return t.t.Peek(p) }

// Get materializes the record at the given position.
func (t *Table) Get(row uint64) (Record, error) { return t.t.Get(row) }

// GetByPK answers the paper's query Q1 — SELECT * FROM R WHERE pk = c —
// through the primary-key hash index over attribute 0 (which must be an
// int64; primary keys are immutable once indexed).
func (t *Table) GetByPK(pk int64) (Record, error) { return t.t.GetByPK(pk) }

// LookupPK resolves a primary key to its row position.
func (t *Table) LookupPK(pk int64) (uint64, bool) { return t.t.LookupPK(pk) }

// FloatPred is a sargable predicate over a float64 attribute: equality,
// open ranges and closed intervals. The engine evaluates it with
// specialized fused scan kernels and uses per-fragment zone maps to
// skip fragments whose value envelope cannot match.
type FloatPred = exec.Pred

// Predicate constructors: the exec ones under the facade's names, so
// callers never import an internal package.

// EqFloat matches x == v.
func EqFloat(v float64) FloatPred { return exec.Eq(v) }

// LtFloat matches x < v.
func LtFloat(v float64) FloatPred { return exec.Lt(v) }

// GtFloat matches x > v.
func GtFloat(v float64) FloatPred { return exec.Gt(v) }

// BetweenFloat matches lo <= x <= hi.
func BetweenFloat(lo, hi float64) FloatPred { return exec.Between(lo, hi) }

// SumFloat64Where computes SELECT SUM(col), COUNT(*) WHERE p over an
// MVCC snapshot with one fused filter+aggregate pass, skipping fragments
// whose zone maps rule the predicate out (device-resident fragments are
// neither transferred nor reduced when pruned).
func (t *Table) SumFloat64Where(col int, p FloatPred) (float64, int64, error) {
	r, err := t.t.Scan(Plan{Op: exec.KindSumWhere, Col: col, Pred: p})
	return r.Sum, r.Count, err
}

// GroupResult is one group of a grouped aggregation.
type GroupResult = exec.GroupResult

// GroupBySumWhere computes SELECT keyCol, SUM(valCol), COUNT(*) WHERE p
// GROUP BY keyCol over an MVCC snapshot in ONE fused pass: each element
// is filtered and folded straight into per-worker group tables — no
// intermediate selection vector — with zone-pruned fragments never
// touched and compressed cold chunks aggregated in the compressed
// domain. keyCol must be an integer attribute, valCol a float64 one;
// results come back sorted by key.
func (t *Table) GroupBySumWhere(keyCol, valCol int, p FloatPred) ([]GroupResult, error) {
	r, err := t.t.Scan(Plan{Op: exec.KindGroupSumWhere, KeyCol: keyCol, Col: valCol, Pred: p})
	return r.Groups, err
}

// Begin opens a snapshot-isolated multi-operation transaction.
func (t *Table) Begin() *Txn { return t.t.Begin() }

// Adapt runs the layout advisor once; most applications call it
// periodically or after workload shifts.
func (t *Table) Adapt() (bool, error) { return t.t.Adapt() }

// Merge folds settled MVCC versions back into the base fragments now.
// The table also does so by itself: the update or commit that brings
// its live versions to a budget of rows/12 settles them.
func (t *Table) Merge() error { return t.t.Merge() }

// PlaceColumn moves a column's cold fragments to the device explicitly
// (Adapt does this automatically when DevicePlacement is on).
func (t *Table) PlaceColumn(col int) error { return t.t.PlaceColumn(col) }

// Stats summarizes the table's physical state.
type Stats struct {
	// Rows is the row count.
	Rows uint64
	// HotChunks and ColdChunks count the OLTP and OLAP regions.
	HotChunks, ColdChunks int
	// Freezes and Adapts count hot→cold moves and advisor runs.
	Freezes, Adapts int
	// PendingVersions counts unmerged MVCC versions.
	PendingVersions int
	// DeviceColumns lists device-resident columns.
	DeviceColumns []int
}

// Stats returns the table's physical state.
func (t *Table) Stats() Stats {
	return Stats{
		Rows:            t.t.Rows(),
		HotChunks:       t.t.HotChunks(),
		ColdChunks:      t.t.ColdChunks(),
		Freezes:         t.t.Freezes(),
		Adapts:          t.t.Adapts(),
		PendingVersions: t.t.PendingVersions(),
		DeviceColumns:   t.t.DeviceColumns(),
	}
}

// Classify derives the table's survey row under the paper's taxonomy
// from its live physical structure.
func (t *Table) Classify() (Classification, error) {
	return engine.Classify(t.e, t.t)
}

// Free releases the table's storage.
func (t *Table) Free() { t.t.Free() }

// Txn is a snapshot-isolated transaction: Read sees the snapshot Begin
// took plus the transaction's own writes, Update buffers a field update,
// Commit installs the buffered writes — failing with a conflict error if
// another transaction committed one of the rows first (first committer
// wins) — and Abort discards them. A read by primary key is LookupPK
// then Read: primary keys are immutable once indexed.
type Txn = core.Txn

// MetricsSnapshot is a point-in-time copy of the process-wide
// observability registry: every counter and latency histogram the
// library maintains (pool scheduling, operator invocations, device bus
// traffic, transaction outcomes, adaptation decisions), plus the most
// recent structural spans and events.
type MetricsSnapshot = obs.Snapshot

// HistogramStats summarizes one latency histogram inside a
// MetricsSnapshot.
type HistogramStats = obs.HistogramSnapshot

// Metrics returns a consistent snapshot of the process-wide metrics
// registry. Counters are cumulative since process start; taking a
// snapshot is cheap and safe to do concurrently with running queries.
func Metrics() MetricsSnapshot { return obs.TakeSnapshot() }

// WriteMetricsJSON writes the current metrics snapshot to w as one JSON
// object (an expvar-style dump, convenient for scraping or diffing).
func WriteMetricsJSON(w io.Writer) error { return obs.Default.WriteJSON(w) }

// TPC-C-style demo workload, re-exported for examples and quickstarts.
var (
	// ItemSchema and CustomerSchema are the paper's experiment tables.
	ItemSchema = workload.ItemSchema
	// CustomerSchema is the 21-field, 96-byte customer relation.
	CustomerSchema = workload.CustomerSchema
	// Item and Customer generate deterministic records.
	Item = workload.Item
	// Customer generates deterministic customer records.
	Customer = workload.Customer
)

// ItemPriceColumn is the price attribute index of ItemSchema.
const ItemPriceColumn = workload.ItemPriceCol
