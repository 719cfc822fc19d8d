// Package core implements the paper's proposal: the reference storage
// engine design for HTAP workloads on cooperating CPUs and GPUs
// (Section IV-C). The paper concludes that no surveyed engine satisfies
// all six required capabilities at once; this package is the constructive
// answer — an engine that does, built from the same layout/fragment
// algebra the survey is classified with:
//
//  1. Constrained strong flexible layouts: relations combine vertical
//     column grouping with horizontal chunking.
//  2. Responsive layout adaptability: a workload monitor drives column
//     re-grouping, relinearization and device placement at runtime.
//  3. Mixed data location, distributed locality: individual cold-region
//     fragments move between host and device memory.
//  4. Fragment linearization covering NSM and DSM: the hot region is
//     NSM-linearized for transactional access, the cold region DSM/thin
//     for analytics, and both orders are available per fragment.
//  5. Built-in multi-layout handling: an OLTP layout (hot chunks) and an
//     OLAP layout (cold chunks) coexist under one relation.
//  6. Delegation-based fragment scheme: every chunk lives in exactly one
//     of the two layouts — freezing *moves* it from the hot to the cold
//     region; queries stitch both regions with no data redundancy.
//
// The paper's challenge (b.iii) — analytics must not interfere with
// mission-critical transactions — is addressed with the MVCC substrate
// of internal/tx: updates never touch base fragments; they create
// versions in a delta store, analytic queries pin a snapshot and patch
// visible versions over the base scan, and a merge pass folds settled
// versions back into the fragments.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hybridstore/internal/compress"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/index"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/rescache"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
	"hybridstore/internal/tx"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

// Options tunes the reference engine.
type Options struct {
	// ChunkRows is the horizontal chunk capacity (default 1024).
	ChunkRows uint64
	// HotChunks is how many newest chunks stay in the OLTP (NSM) region
	// before freezing moves them to the OLAP region (default 2).
	HotChunks int
	// DeviceCache routes cold-region analytic scans through the device
	// fragment cache (engine.Env.Cache): host-resident cold fragments are
	// shipped once, kept device-resident, and reused by later scans until
	// a write bumps the fragment version — so a repeated scan over
	// unchanged data costs zero bus bytes. Independent of column
	// placement (PlaceColumn, Adapt), which *moves* fragments instead of
	// caching images.
	DeviceCache bool
	// ResultCacheBytes bounds the cross-request result cache: query
	// answers (predicate aggregates, fused group-bys, point reads) are
	// memoized under the epoch of the base state their snapshot saw —
	// the table's for an aggregate, the chunk's for a point read — so a
	// repeat query over unchanged data costs a map probe plus one epoch
	// compare instead of a scan. Invalidation is purely passive — every
	// base mutation moves the epoch, and the next lookup misses. 0
	// disables the cache.
	ResultCacheBytes int64
	// Compress seals side-car compressed images of the cold region's
	// singleton 8-byte numeric columns at the freeze point (the same point
	// that seals zone maps), re-sealing a column whenever its cold bytes
	// are rewritten (a settlement that changed it, regrouping). Only an encoding smaller than
	// the column (RLE, Dict, FOR) is kept: where none is, the column keeps
	// no copy and scans its fragment bytes. Analytic scans over an image
	// execute in the compressed domain on the host, and — combined with
	// DeviceCache — ship the image over the bus instead of the dense
	// bytes. The raw fragments stay authoritative for point reads and
	// MVCC patching. Off by default.
	Compress bool
}

// affinity is the co-access threshold for cold-region column grouping.
const affinity = 0.5

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.ChunkRows == 0 {
		o.ChunkRows = 1024
	}
	if o.HotChunks <= 0 {
		o.HotChunks = 2
	}
	return o
}

// Engine is the reference HTAP CPU/GPU storage engine.
type Engine struct {
	env  *engine.Env
	opts Options
	// rescache is the engine-wide cross-request result cache
	// (Options.ResultCacheBytes); nil when disabled.
	rescache *rescache.Cache
}

// New creates the engine.
func New(env *engine.Env, opts Options) *Engine {
	e := &Engine{env: env, opts: opts.withDefaults()}
	if e.opts.ResultCacheBytes > 0 {
		e.rescache = rescache.New(e.opts.ResultCacheBytes, 0)
	}
	return e
}

// ResultCache exposes the engine's result cache (nil when disabled) —
// the facade surfaces its Stats.
func (e *Engine) ResultCache() *rescache.Cache { return e.rescache }

// Name returns the engine name.
func (e *Engine) Name() string { return "HybridStore" }

// Capabilities declares the reference design's properties — exactly the
// six-point checklist of Section IV-C.
func (e *Engine) Capabilities() taxonomy.Capabilities {
	return taxonomy.Capabilities{
		BuiltInMultiLayout:    true,
		Responsive:            true,
		VariableLinearization: true,
		Scheme:                taxonomy.SchemeDelegation,
		Processors:            taxonomy.CPUAndGPU,
		Workloads:             taxonomy.HTAP,
		Year:                  2017,
	}
}

// chunkState tags where a chunk lives.
type chunkState uint8

const (
	// hot chunks live in the OLTP layout as one NSM fragment.
	hot chunkState = iota
	// cold chunks live in the OLAP layout as per-group fragments.
	cold
)

// chunk is one horizontal slice of the relation.
type chunk struct {
	rows  layout.RowRange
	state chunkState
	// nsm is the hot region's fragment (hot chunks only).
	nsm *layout.Fragment
	// groups/frags are the cold region's column grouping and fragments
	// (cold chunks only); frags[i] stores groups[i].
	groups [][]int
	frags  []*layout.Fragment
	// comp holds per-attribute side-car compressed images of the cold
	// bytes (Options.Compress), indexed by column; a nil entry — or a nil
	// comp — marks a column no encoding shrinks, or one that is not
	// compressible, which scans from its fragment. Re-sealed wherever the
	// cold bytes are rewritten so the images always reflect the fragments.
	comp []*compress.Column
	// epoch is the result-cache stamp of a point read in this chunk,
	// moved by every write to its fragments (touch) but a settlement's,
	// which forgets the point entries of the rows it settled instead.
	epoch rescache.Stamp
}

// filled returns the stored tuplets.
func (c *chunk) filled() int {
	if c.state == hot {
		return c.nsm.Len()
	}
	if len(c.frags) == 0 {
		return 0
	}
	return c.frags[0].Len()
}

// Table is a reference-engine relation. Concurrency contract: queries
// and point updates may run concurrently from any number of goroutines;
// structural operations (Insert, Adapt, Merge, PlaceColumn, Free) take
// the exclusive lock internally and may also be called from any
// goroutine.
type Table struct {
	mu   sync.RWMutex
	env  *engine.Env
	eng  *Engine
	rel  *layout.Relation
	cfg  exec.Config
	s    *schema.Schema
	oltp *layout.Layout
	olap *layout.Layout

	chunks []*chunk
	mon    *workload.Monitor
	// allCols is every column in order: what a point read touches, as
	// the monitor is told.
	allCols []int

	// MVCC: updates become versions here; base fragments stay immutable
	// under updates. The store is also the table's clock: every read
	// begins its snapshot on it.
	deltas *tx.Store
	// proj is the MVCC patch as a scan folds it, advanced by each scan
	// (projection.go). Lock order: mu (read), proj.mu, the store's.
	proj projection
	// older recycles the projections of scans at snapshots older than
	// proj's, which each fold one of their own.
	older sync.Pool
	// settler admits one commit-path settlement at a time (settle.go);
	// pinned is what the last settlement had to leave behind, under mu.
	settler sync.Mutex
	pinned  int

	// deviceCols marks columns whose cold fragments live on the GPU.
	deviceCols map[int]bool

	// epoch is the result-cache stamp of an aggregate, moved by every
	// base mutation of any chunk (touch).
	epoch rescache.Stamp
	// lists are the piece lists scans last built, ungrouped and grouped
	// (scanSource.Pieces); touch drops them.
	lists [2]atomic.Pointer[pieceList]

	// pk is the primary-key hash index over attribute 0 (nil when the
	// schema has no int64 key attribute).
	pk *index.Hash

	// walLog, when non-nil, receives a KindInsert record ahead of every
	// insert; commit logging rides the tx.CommitLogger hook instead.
	// Installed by EnableWAL after any recovery replay.
	walLog *wal.Log

	adapts  int
	freezes int
}

// Create makes an empty relation.
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rel := layout.NewRelation(name, s)
	oltp := layout.NewLayout("oltp-hot", s)
	olap := layout.NewLayout("olap-cold", s)
	rel.AddLayout(oltp)
	rel.AddLayout(olap)
	t := &Table{
		env:  e.env,
		eng:  e,
		rel:  rel,
		s:    s,
		oltp: oltp,
		olap: olap,
		cfg: exec.Config{
			Policy: e.env.ExecPolicy,
			Host:   e.env.HostProfile,
			Clock:  e.env.Clock,
		},
		mon:        workload.NewMonitor(s.Arity()),
		allCols:    layout.AllCols(s),
		deltas:     tx.NewStore(),
		deviceCols: make(map[int]bool),
	}
	t.touch(nil)
	t.initPK()
	return t, nil
}

// Schema returns the relation schema.
func (t *Table) Schema() *schema.Schema { return t.s }

// Rows returns the row count.
func (t *Table) Rows() uint64 { t.mu.RLock(); defer t.mu.RUnlock(); return t.rel.Rows() }

// Snapshot digests the live structure of both regions.
func (t *Table) Snapshot() layout.Snapshot { t.mu.RLock(); defer t.mu.RUnlock(); return t.rel.Digest() }

// Freezes returns how many chunks have moved hot→cold.
func (t *Table) Freezes() int { t.mu.RLock(); defer t.mu.RUnlock(); return t.freezes }

// Adapts returns how many adaptations have run.
func (t *Table) Adapts() int { t.mu.RLock(); defer t.mu.RUnlock(); return t.adapts }

// DeviceColumns returns the columns whose cold fragments are
// device-resident, sorted ascending.
func (t *Table) DeviceColumns() []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []int
	for c := 0; c < t.s.Arity(); c++ {
		if t.deviceCols[c] {
			out = append(out, c)
		}
	}
	return out
}

// HotChunks and ColdChunks count the regions.
func (t *Table) HotChunks() int { t.mu.RLock(); defer t.mu.RUnlock(); return t.countState(hot) }

// ColdChunks counts the cold region.
func (t *Table) ColdChunks() int { t.mu.RLock(); defer t.mu.RUnlock(); return t.countState(cold) }

// countState counts the chunks in state s. Caller holds t.mu.
func (t *Table) countState(s chunkState) int {
	n := 0
	for _, c := range t.chunks {
		if c.state == s {
			n++
		}
	}
	return n
}

// PendingVersions returns the number of unmerged delta versions. A
// commit that brings them to the settlement budget settles them
// (settle.go).
func (t *Table) PendingVersions() int { return t.deltas.Versions() }

// Free releases all storage.
func (t *Table) Free() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.env.InvalidateTable(t.rel.Name())
	t.rel.Free()
	t.chunks = nil
	t.touch(nil)
}

// invalidateFrag retires any device-cached images of f. Called wherever a
// fragment's backing store is freed or replaced wholesale; in-place
// writes are covered by fragment version bumps instead.
func (t *Table) invalidateFrag(f *layout.Fragment) {
	if f != nil {
		t.env.InvalidateFrag(t.rel.Name(), f.ID())
	}
}

// Insert appends a record to the hot region, opening a new chunk (and
// freezing the oldest hot chunk) as needed. On a WAL-enabled table the
// record is appended to the log before the hot region mutates, and the
// insert is acknowledged only once the log record is durable — the
// durability wait runs outside the table lock so concurrent inserts
// share one group-commit flush.
func (t *Table) Insert(rec schema.Record) (uint64, error) {
	row, lsn, err := t.insertLocked(rec)
	if err != nil {
		return 0, err
	}
	if lsn != 0 {
		if err := t.walLog.Sync(lsn); err != nil {
			return 0, fmt.Errorf("core: insert at row %d not durable: %w", row, err)
		}
	}
	return row, nil
}

// insertLocked validates, logs and applies one insert under the
// exclusive lock, returning the row and the log sequence number to wait
// on (0 when the table has no WAL).
func (t *Table) insertLocked(rec schema.Record) (uint64, uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(rec) != t.s.Arity() {
		return 0, 0, fmt.Errorf("%w: arity %d vs schema %d", schema.ErrArityMismatch, len(rec), t.s.Arity())
	}
	row := t.rel.Rows()
	if t.pk != nil {
		if _, dup := t.pk.Lookup(rec[0].I); dup {
			return 0, 0, fmt.Errorf("core: inserting pk %d: %w", rec[0].I, index.ErrDuplicate)
		}
	}
	tail := t.tailChunk()
	if tail == nil || tail.filled() == int(tail.rows.Len()) {
		var err error
		tail, err = t.openChunk(row)
		if err != nil {
			return 0, 0, err
		}
	}
	// Log after every fallible step — validation, pk precheck, chunk
	// allocation — and before mutation: the log must never hold an
	// insert the caller saw fail (recovery would replay it), while an
	// applied-but-unlogged insert would shift every later logged row
	// position — unrecoverable either way.
	var lsn uint64
	if t.walLog != nil {
		if err := schema.ValidateRecord(t.s, rec); err != nil {
			return 0, 0, err
		}
		var err error
		lsn, err = t.walLog.Append(&wal.Record{Kind: wal.KindInsert, Table: t.rel.Name(), Row: row, Rec: rec})
		if err != nil {
			return 0, 0, fmt.Errorf("core: logging insert: %w", err)
		}
	}
	if err := tail.nsm.AppendTuplet(rec); err != nil {
		return 0, 0, err
	}
	t.touch(tail)
	t.rel.SetRows(row + 1)
	if err := t.indexInsert(rec, row); err != nil {
		return 0, 0, err
	}
	t.mon.Observe(workload.Op{Kind: workload.Insert})
	return row, lsn, nil
}

// tailChunk returns the newest chunk, or nil.
func (t *Table) tailChunk() *chunk {
	if len(t.chunks) == 0 {
		return nil
	}
	return t.chunks[len(t.chunks)-1]
}

// openChunk starts a new hot chunk at row begin and freezes overflowing
// hot chunks.
func (t *Table) openChunk(begin uint64) (*chunk, error) {
	f, err := layout.NewFragment(t.env.Host, t.s, layout.AllCols(t.s),
		layout.RowRange{Begin: begin, End: begin + t.eng.opts.ChunkRows}, layout.NSM)
	if err != nil {
		return nil, fmt.Errorf("core: opening chunk: %w", err)
	}
	if err := t.oltp.Add(f); err != nil {
		f.Free()
		return nil, err
	}
	c := &chunk{rows: f.Rows(), state: hot, nsm: f}
	t.chunks = append(t.chunks, c)
	t.touch(c)

	// Enforce the hot-region budget: freeze oldest hot chunks beyond it.
	for t.countState(hot) > t.eng.opts.HotChunks {
		oldest := t.oldestHot()
		if oldest == nil || oldest == c {
			break
		}
		if err := t.freeze(oldest); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// oldestHot returns the oldest hot chunk.
func (t *Table) oldestHot() *chunk {
	for _, c := range t.chunks {
		if c.state == hot {
			return c
		}
	}
	return nil
}

// freeze MOVES a hot chunk into the cold region: its tuplets are
// rewritten into per-group fragments under the current grouping advice,
// the NSM fragment is dropped from the OLTP layout and freed, and the new
// fragments join the OLAP layout. This is the delegation-based scheme:
// after freezing, the chunk's data exists only in the cold region.
func (t *Table) freeze(c *chunk) error {
	if c.state != hot {
		return nil
	}
	sp := sfFreeze.Start()
	groups := t.mon.SuggestGroups(affinity)
	if err := t.recast(c, groups); err != nil {
		return err
	}
	t.freezes++
	mFreezes.Inc()
	sp.EndWith(fmt.Sprintf("rows=[%d,%d) groups=%v", c.rows.Begin, c.rows.End, groups))
	return nil
}

// recast rewrites a chunk's settled rows into cold fragments under
// groups and drops the fragments they were read from — the hot NSM
// fragment (a freeze) or the previous cold ones (a regroup). The chunk
// is cold afterwards.
func (t *Table) recast(c *chunk, groups [][]int) error {
	frags, err := t.buildColdFragments(c.rows, groups)
	if err != nil {
		return err
	}
	// Migrate the cells column by column, byte for byte, from whichever
	// fragment holds each column now.
	n := c.filled()
	for gi, f := range frags {
		if err := f.SetLen(n); err != nil {
			freeAll(frags)
			return err
		}
		for _, col := range groups[gi] {
			if err := t.copyColumn(f, c, col, n); err != nil {
				freeAll(frags)
				return err
			}
		}
		// The chunk is immutable under transactions (updates go through
		// the MVCC delta store): seal exact per-column bounds so
		// predicate scans can prune it.
		f.SealStats()
	}
	for _, f := range frags {
		if err := t.olap.Add(f); err != nil {
			freeAll(frags)
			return err
		}
	}
	t.touch(c)
	old, region := c.frags, t.olap
	if c.state == hot {
		old, region = []*layout.Fragment{c.nsm}, t.oltp
	}
	for _, f := range old {
		region.Remove(f)
		t.invalidateFrag(f)
		f.Free()
	}
	c.nsm, c.state = nil, cold
	c.groups, c.frags = groups, frags
	t.sealChunkCompression(c)
	// Device-resident columns extend to the new cold fragments.
	for col := range t.deviceCols {
		if t.deviceCols[col] {
			if err := t.placeChunkColumn(c, col); err != nil {
				if !errors.Is(err, mem.ErrOutOfMemory) {
					return err
				}
				// Device exhaustion moves the whole column back to the
				// host: placement is all-or-nothing, never split.
				if err := t.evictColumnLocked(col); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// copyColumn copies the first n cells of column col from the fragment of
// c that holds it into dst.
func (t *Table) copyColumn(dst *layout.Fragment, c *chunk, col, n int) error {
	src, err := t.fragmentForCol(c, col)
	if err != nil {
		return err
	}
	sv, err := src.ColVector(col)
	if err != nil {
		return err
	}
	dv, err := dst.ColVector(col)
	if err != nil {
		return err
	}
	return layout.CopyCells(dv, sv, n)
}

// buildColdFragments allocates the cold representation of a chunk:
// thin Direct fragments for singleton groups, DSM fragments for fused
// groups.
func (t *Table) buildColdFragments(rows layout.RowRange, groups [][]int) ([]*layout.Fragment, error) {
	var frags []*layout.Fragment
	for _, g := range groups {
		lin := layout.Direct
		if len(g) > 1 {
			lin = layout.DSM
		}
		f, err := layout.NewFragment(t.env.Host, t.s, g, rows, lin)
		if err != nil {
			freeAll(frags)
			return nil, fmt.Errorf("core: building cold fragments: %w", err)
		}
		frags = append(frags, f)
	}
	return frags, nil
}

// sealChunkCompression (re)builds the chunk's side-car compressed images
// from its current cold bytes, one fragment at a time (sealFrag). Called
// at the points every cold fragment of the chunk is new: the freeze and
// a regroup. A no-op unless Options.Compress.
func (t *Table) sealChunkCompression(c *chunk) {
	c.comp = nil
	for gi := range c.frags {
		t.sealFrag(c, gi)
	}
}

// sealFrag (re)builds the side-car image of cold fragment gi of c —
// singleton Direct groups over 8-byte numeric attributes only, the exact
// shape the compressed-domain operators consume — keeping one only where
// an encoding is smaller than the column: a Raw image would be a second
// copy of the fragment's bytes, so that column scans its fragment
// instead, and compress.Shrink encodes nothing for it. A settlement
// calls it for exactly the fragments it wrote. A no-op unless
// Options.Compress.
func (t *Table) sealFrag(c *chunk, gi int) {
	if !t.eng.opts.Compress || c.state != cold || len(c.groups[gi]) != 1 {
		return
	}
	col := c.groups[gi][0]
	if !compressible(t.s.Attr(col)) {
		return
	}
	var cc *compress.Column
	if cv, err := c.frags[gi].ColVector(col); err == nil && cv.Contiguous() {
		cc, _ = compress.Shrink(cv.Data[cv.Base:cv.Base+cv.Len*8], cv.Len, 8)
	}
	if cc != nil && c.comp == nil {
		c.comp = make([]*compress.Column, t.s.Arity())
	}
	if c.comp != nil {
		c.comp[col] = cc
	}
}

// compressible reports whether a carries side-car images: an 8-byte
// numeric attribute.
func compressible(a schema.Attribute) bool {
	return a.Size == 8 && (a.Kind == schema.Int64 || a.Kind == schema.Float64)
}

// freeAll frees a fragment list.
func freeAll(frags []*layout.Fragment) {
	for _, f := range frags {
		f.Free()
	}
}

// chunkFor locates the chunk covering row.
func (t *Table) chunkFor(row uint64) (*chunk, error) {
	idx := int(row / t.eng.opts.ChunkRows)
	if idx < len(t.chunks) && t.chunks[idx].rows.Contains(row) {
		return t.chunks[idx], nil
	}
	for _, c := range t.chunks {
		if c.rows.Contains(row) {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: row %d", engine.ErrNoSuchRow, row)
}

// baseRecordInto materializes row from the base fragments (no MVCC
// patching) into dst's backing array when it has room (chunkRecordInto)
// and returns the chunk it read.
func (t *Table) baseRecordInto(row uint64, dst schema.Record) (schema.Record, *chunk, error) {
	c, err := t.chunkFor(row)
	if err != nil {
		return nil, nil, err
	}
	rec, err := t.chunkRecordInto(c, int(row-c.rows.Begin), dst)
	return rec, c, err
}

// baseRecord is baseRecordInto into a fresh record.
func (t *Table) baseRecord(row uint64) (schema.Record, *chunk, error) {
	return t.baseRecordInto(row, nil)
}

// chunkRecordInto materializes tuplet i of the chunk from whichever
// fragments hold it (no MVCC patching), into dst's backing array when it
// has room (dst's length is ignored; nil allocates). Device-resident
// fragments are read directly; the caller charges the bus for the
// gathered field bytes (chargeDeviceGather), one gather per read.
func (t *Table) chunkRecordInto(c *chunk, i int, dst schema.Record) (schema.Record, error) {
	if c.state == hot {
		vals, err := c.nsm.Tuplet(i, dst) // an NSM chunk stores every column, in order
		return schema.Record(vals), err
	}
	n := t.s.Arity()
	if cap(dst) < n {
		dst = make(schema.Record, n)
	}
	rec := dst[:n]
	for gi, f := range c.frags {
		for _, col := range c.groups[gi] {
			v, err := f.Get(i, col)
			if err != nil {
				return nil, err
			}
			rec[col] = v
		}
	}
	return rec, nil
}

// chargeDeviceGather prices gathering one record's device-resident
// fields of chunk c; a nil c is a read no base chunk served.
func (t *Table) chargeDeviceGather(c *chunk) {
	if c == nil || c.state != cold {
		return
	}
	var devBytes int64
	for gi, f := range c.frags {
		if f.Space() == t.env.GPU.Allocator().Space() {
			for _, col := range c.groups[gi] {
				devBytes += int64(t.s.Attr(col).Size)
			}
		}
	}
	if devBytes > 0 {
		t.env.GPU.ChargeTransfer(devBytes, false)
	}
}
