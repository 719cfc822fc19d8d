// Package layout implements the paper's unified terminology for physical
// record organization (Pinnecke et al., ICDE 2017, Section III) as an
// executable data model:
//
//   - A Relation can have multiple alternative Layouts.
//   - A Layout divides the relation into possibly overlapping Fragments.
//   - A Fragment spans a gapless rectangular region of the relation: a
//     contiguous row range crossed with a subset of the attributes.
//   - The per-tuple portion falling inside a fragment is a tuplet.
//   - A fat fragment (≥2 tuplet slots and ≥2 attributes) must be
//     linearized into one-dimensional memory with NSM or DSM; a thin
//     fragment is one-dimensional and is stored directly.
//
// Every surveyed storage engine in internal/engines is a composition of
// these primitives, which is what lets the taxonomy classifier derive
// Table 1 of the paper from live engine structure.
package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"hybridstore/internal/mem"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/stats"
)

// fragIDs hands out process-unique fragment identities; see Fragment.ID.
var fragIDs atomic.Uint64

// Linearization is the physical order of tuplets inside one fragment.
type Linearization uint8

// Per-fragment linearization techniques (Section III, "Fragment
// linearization properties"). Engine-level properties such as "variable"
// (supports both NSM and DSM) or "DSM-emulated" (thin-only fragments per
// column) are derived by the taxonomy classifier from fragment structure.
const (
	// Direct stores a thin fragment's single dimension as-is.
	Direct Linearization = iota
	// NSM stores fat fragments record-by-record (row-major).
	NSM
	// DSM stores fat fragments column-by-column (column-major).
	DSM
)

// String names the linearization.
func (l Linearization) String() string {
	switch l {
	case Direct:
		return "direct"
	case NSM:
		return "NSM"
	case DSM:
		return "DSM"
	default:
		return fmt.Sprintf("Linearization(%d)", uint8(l))
	}
}

// RowRange is a half-open range [Begin, End) of relation row positions.
type RowRange struct {
	Begin, End uint64
}

// Len returns the number of row slots in the range.
func (r RowRange) Len() uint64 {
	if r.End < r.Begin {
		return 0
	}
	return r.End - r.Begin
}

// Contains reports whether row is inside the range.
func (r RowRange) Contains(row uint64) bool { return row >= r.Begin && row < r.End }

// Overlaps reports whether two ranges share any row.
func (r RowRange) Overlaps(o RowRange) bool { return r.Begin < o.End && o.Begin < r.End }

// String renders the range as "[begin,end)".
func (r RowRange) String() string { return fmt.Sprintf("[%d,%d)", r.Begin, r.End) }

// Fragment errors.
var (
	// ErrBadFragment is returned for structurally invalid fragments.
	ErrBadFragment = errors.New("layout: bad fragment")
	// ErrBadLinearization is returned when the linearization does not fit
	// the fragment shape (e.g. Direct on a fat fragment).
	ErrBadLinearization = errors.New("layout: linearization does not fit fragment shape")
	// ErrFragmentFull is returned when appending beyond the row capacity.
	ErrFragmentFull = errors.New("layout: fragment full")
	// ErrOutOfRange is returned for tuplet or column indexes out of range.
	ErrOutOfRange = errors.New("layout: index out of range")
)

// Fragment is a gapless rectangular region of a relation, physically
// materialized in one memory block of one memory space.
//
// The vertical extent is the ordered attribute-index list Cols (indexes
// into the relation schema); the horizontal extent is the row range Rows,
// which fixes the tuplet capacity. Tuplets are appended in row order.
type Fragment struct {
	rel    *schema.Schema
	cols   []int
	rows   RowRange
	lin    Linearization
	block  *mem.Block
	n      int           // tuplets stored
	width  int           // bytes per tuplet
	offs   []int         // per-col byte offset inside an NSM tuplet
	colOff []int         // per-col byte offset of the column region under DSM
	zones  []*stats.Zone // per-col zone maps (nil for all but 8-byte float64 columns)

	// id is a process-unique identity and version a monotone write
	// counter; together they key device-resident images of this fragment
	// (device.FragCache), so any mutation makes every cached image of the
	// old bytes unreachable. version is atomic because placement decisions
	// read it outside the engine locks that serialize writes.
	id      uint64
	version atomic.Uint64
}

// NewFragment allocates a fragment for the given region of a relation with
// schema rel. cols lists the covered attribute indexes in storage order;
// rows fixes the capacity. The linearization must fit the shape: Direct is
// only valid for thin fragments, NSM/DSM only for fat ones (degenerate
// single-column fat fragments are permitted under DSM/NSM as well, since
// both orders coincide there).
func NewFragment(alloc *mem.Allocator, rel *schema.Schema, cols []int, rows RowRange, lin Linearization) (*Fragment, error) {
	if rel == nil {
		return nil, fmt.Errorf("%w: nil schema", ErrBadFragment)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: no columns", ErrBadFragment)
	}
	if rows.Len() == 0 {
		return nil, fmt.Errorf("%w: empty row range %v", ErrBadFragment, rows)
	}
	seen := make(map[int]bool, len(cols))
	f := &Fragment{
		id:     fragIDs.Add(1),
		rel:    rel,
		cols:   append([]int(nil), cols...),
		rows:   rows,
		lin:    lin,
		offs:   make([]int, len(cols)),
		colOff: make([]int, len(cols)),
	}
	for i, c := range cols {
		if c < 0 || c >= rel.Arity() {
			return nil, fmt.Errorf("%w: column %d out of range [0,%d)", ErrBadFragment, c, rel.Arity())
		}
		if seen[c] {
			return nil, fmt.Errorf("%w: duplicate column %d", ErrBadFragment, c)
		}
		seen[c] = true
		f.offs[i] = f.width
		f.width += rel.Attr(c).Size
	}
	cap64 := rows.Len()
	for i := 1; i < len(cols); i++ {
		prev := cols[i-1]
		f.colOff[i] = f.colOff[i-1] + rel.Attr(prev).Size*int(cap64)
	}
	fat := f.IsFat()
	switch lin {
	case Direct:
		if fat {
			return nil, fmt.Errorf("%w: direct linearization on fat fragment (%d cols × %d rows)",
				ErrBadLinearization, len(cols), cap64)
		}
	case NSM, DSM:
		// Valid for fat fragments and degenerate thin ones alike.
	default:
		return nil, fmt.Errorf("%w: unknown linearization %d", ErrBadLinearization, lin)
	}
	block, err := alloc.Alloc(f.width * int(cap64))
	if err != nil {
		return nil, fmt.Errorf("layout: allocating fragment: %w", err)
	}
	f.block = block
	f.zones = make([]*stats.Zone, len(cols))
	for i, c := range cols {
		if a := rel.Attr(c); a.Kind == schema.Float64 && a.Size == 8 {
			f.zones[i] = stats.NewZone()
		}
	}
	return f, nil
}

// Schema returns the relation schema the fragment belongs to.
func (f *Fragment) Schema() *schema.Schema { return f.rel }

// ID returns the fragment's process-unique identity. Rebuilds that
// replace the backing store (CloneTo, Grow) produce fragments with
// fresh IDs, so an ID never outlives the bytes it names.
func (f *Fragment) ID() uint64 { return f.id }

// Version returns the fragment's write version. It starts at zero and is
// bumped by every mutation (Set, AppendTuplet, SetLen, BumpVersion), so a
// device-resident image uploaded at version v is bytewise current iff the
// fragment still reports v.
func (f *Fragment) Version() uint64 { return f.version.Load() }

// BumpVersion records an out-of-band mutation of the fragment's bytes —
// writes that bypass the typed Set path, such as a device scatter into
// the fragment's block. Engines performing raw writes must call this so
// cached images of the old bytes stop validating.
func (f *Fragment) BumpVersion() { f.version.Add(1) }

// Cols returns the covered attribute indexes (copy).
func (f *Fragment) Cols() []int { return append([]int(nil), f.cols...) }

// HasCol reports whether relation attribute c is covered.
func (f *Fragment) HasCol(c int) bool { return f.colPos(c) >= 0 }

// colPos returns the storage position of relation attribute c, or -1.
func (f *Fragment) colPos(c int) int {
	for i, cc := range f.cols {
		if cc == c {
			return i
		}
	}
	return -1
}

// Rows returns the covered row range.
func (f *Fragment) Rows() RowRange { return f.rows }

// Lin returns the fragment's linearization.
func (f *Fragment) Lin() Linearization { return f.lin }

// Space returns the memory space the fragment's bytes live in.
func (f *Fragment) Space() mem.Space { return f.block.Space() }

// Arity returns the number of covered attributes.
func (f *Fragment) Arity() int { return len(f.cols) }

// Len returns the number of tuplets stored.
func (f *Fragment) Len() int { return f.n }

// Cap returns the tuplet capacity (the row-range length).
func (f *Fragment) Cap() int { return int(f.rows.Len()) }

// SizeBytes returns the fragment's allocated byte size.
func (f *Fragment) SizeBytes() int { return f.block.Len() }

// IsFat reports whether the fragment is fat per the paper's definition:
// at least two tuplet slots and at least two attributes.
func (f *Fragment) IsFat() bool { return len(f.cols) >= 2 && f.rows.Len() >= 2 }

// Free releases the fragment's memory block.
func (f *Fragment) Free() {
	if f.block != nil {
		f.block.Free()
	}
	f.n = 0
}

// fieldRegion returns the byte offset of field (tuplet i, storage col p)
// inside the block, honoring the linearization.
func (f *Fragment) fieldOffset(i, p int) int {
	switch f.lin {
	case NSM:
		return i*f.width + f.offs[p]
	case DSM:
		return f.colOff[p] + i*f.rel.Attr(f.cols[p]).Size
	default: // Direct: single column, contiguous.
		return i * f.width
	}
}

// FieldBytes returns the raw bytes of the field at tuplet i, relation
// attribute c. The slice aliases fragment storage; treat as read-only
// unless immediately re-encoded.
func (f *Fragment) FieldBytes(i int, c int) ([]byte, error) {
	p := f.colPos(c)
	if p < 0 {
		return nil, fmt.Errorf("%w: attribute %d not in fragment", ErrOutOfRange, c)
	}
	if i < 0 || i >= f.n {
		return nil, fmt.Errorf("%w: tuplet %d of %d", ErrOutOfRange, i, f.n)
	}
	off := f.fieldOffset(i, p)
	size := f.rel.Attr(c).Size
	return f.block.Bytes()[off : off+size], nil
}

// Get decodes the field at tuplet i, relation attribute c.
func (f *Fragment) Get(i int, c int) (schema.Value, error) {
	b, err := f.FieldBytes(i, c)
	if err != nil {
		return schema.Value{}, err
	}
	return schema.DecodeValue(b, f.rel.Attr(c))
}

// Set encodes v into the field at tuplet i, relation attribute c.
func (f *Fragment) Set(i int, c int, v schema.Value) error {
	p := f.colPos(c)
	if p < 0 {
		return fmt.Errorf("%w: attribute %d not in fragment", ErrOutOfRange, c)
	}
	if i < 0 || i >= f.n {
		return fmt.Errorf("%w: tuplet %d of %d", ErrOutOfRange, i, f.n)
	}
	off := f.fieldOffset(i, p)
	if err := schema.EncodeValue(f.block.Bytes()[off:], f.rel.Attr(c), v); err != nil {
		return err
	}
	f.version.Add(1)
	if z := f.zones[p]; z != nil {
		// In-place overwrite: the envelope can only widen (the old value
		// may survive in the bounds), which keeps pruning conservative.
		z.WidenFloat64(v.F)
	}
	return nil
}

// AppendTuplet appends one tuplet. vals must align positionally with the
// fragment's column list.
func (f *Fragment) AppendTuplet(vals []schema.Value) error {
	if len(vals) != len(f.cols) {
		return fmt.Errorf("%w: tuplet arity %d, fragment arity %d", schema.ErrArityMismatch, len(vals), len(f.cols))
	}
	if f.n >= f.Cap() {
		return fmt.Errorf("%w: capacity %d", ErrFragmentFull, f.Cap())
	}
	i := f.n
	f.n++ // reserve the slot so fieldOffset bounds checks pass
	for p, c := range f.cols {
		off := f.fieldOffset(i, p)
		if err := schema.EncodeValue(f.block.Bytes()[off:], f.rel.Attr(c), vals[p]); err != nil {
			f.n-- // roll back the reservation
			return fmt.Errorf("layout: appending tuplet: %w", err)
		}
	}
	f.version.Add(1)
	// All fields landed; fold the tuplet into the zone maps.
	for p := range f.cols {
		if z := f.zones[p]; z != nil {
			z.ObserveFloat64(vals[p].F)
		}
	}
	return nil
}

// Tuplet decodes all fields of tuplet i in column-list order, into
// dst's backing array when it has room (dst's length is ignored; nil
// allocates).
func (f *Fragment) Tuplet(i int, dst []schema.Value) ([]schema.Value, error) {
	if i < 0 || i >= f.n {
		return nil, fmt.Errorf("%w: tuplet %d of %d", ErrOutOfRange, i, f.n)
	}
	out := dst[:0]
	if cap(out) < len(f.cols) {
		out = make([]schema.Value, len(f.cols))
	}
	out = out[:len(f.cols)]
	for p, c := range f.cols {
		v, err := f.Get(i, c)
		if err != nil {
			return nil, err
		}
		out[p] = v
	}
	return out, nil
}

// ColVector describes raw strided access to one attribute of a fragment:
// the first field lives at Base into Data, consecutive tuplets are Stride
// bytes apart, and each field is Size bytes. Under DSM/Direct the column is
// contiguous (Stride == Size); under NSM it is strided by the tuplet width.
// Bulk operators in internal/exec consume this to implement cache-accurate
// column scans over any linearization.
type ColVector struct {
	Data   []byte
	Base   int
	Stride int
	Size   int
	Len    int
}

// Contiguous reports whether the column occupies one dense byte run.
func (v ColVector) Contiguous() bool { return v.Stride == v.Size }

// Int decodes element i (below Len) of an int64 or int32 column in
// place, sign-extended; of a float64 column, its bits.
func (v ColVector) Int(i int) int64 {
	if v.Size == 8 {
		return int64(binary.LittleEndian.Uint64(v.Data[v.Base+i*v.Stride:]))
	}
	return int64(int32(binary.LittleEndian.Uint32(v.Data[v.Base+i*v.Stride:])))
}

// ColVector returns strided access to relation attribute c.
func (f *Fragment) ColVector(c int) (ColVector, error) {
	p := f.colPos(c)
	if p < 0 {
		return ColVector{}, fmt.Errorf("%w: attribute %d not in fragment", ErrOutOfRange, c)
	}
	size := f.rel.Attr(c).Size
	switch f.lin {
	case NSM:
		return ColVector{Data: f.block.Bytes(), Base: f.offs[p], Stride: f.width, Size: size, Len: f.n}, nil
	case DSM:
		return ColVector{Data: f.block.Bytes(), Base: f.colOff[p], Stride: size, Size: size, Len: f.n}, nil
	default:
		return ColVector{Data: f.block.Bytes(), Base: 0, Stride: size, Size: size, Len: f.n}, nil
	}
}

// CloneTo copies the fragment byte-for-byte into a new block from alloc,
// preserving shape and linearization. Used by replication-based fragment
// schemes (Fractured Mirrors, CoGaDB host/device copies).
func (f *Fragment) CloneTo(alloc *mem.Allocator) (*Fragment, error) {
	nf, err := NewFragment(alloc, f.rel, f.cols, f.rows, f.lin)
	if err != nil {
		return nil, err
	}
	copy(nf.block.Bytes(), f.block.Bytes())
	nf.n = f.n
	for p, z := range f.zones {
		if z != nil {
			nf.zones[p] = z.Clone()
		}
	}
	return nf, nil
}

// Raw exposes the fragment's full backing bytes (for transfer simulation
// and checksumming). Treat as read-only.
func (f *Fragment) Raw() []byte { return f.block.Bytes() }

// SetLen is used by engine code that fills fragment bytes wholesale (e.g.
// after a device transfer). n must not exceed capacity. Because the
// bytes bypassed the typed append path, the zone maps cannot vouch for
// them: a shrink to zero resets the zones, anything else invalidates
// them until the next SealStats.
func (f *Fragment) SetLen(n int) error {
	if n < 0 || n > f.Cap() {
		return fmt.Errorf("%w: len %d, capacity %d", ErrOutOfRange, n, f.Cap())
	}
	f.n = n
	f.version.Add(1)
	for _, z := range f.zones {
		if z == nil {
			continue
		}
		if n == 0 {
			z.Reset()
		} else {
			z.Invalidate()
		}
	}
	return nil
}

// Stats returns the zone map of relation attribute c, or nil when the
// column carries none (anything but an 8-byte float64). The returned
// zone aliases fragment state; callers must hold the same locks they
// would for reading the fragment.
func (f *Fragment) Stats(c int) *stats.Zone {
	p := f.colPos(c)
	if p < 0 {
		return nil
	}
	return f.zones[p]
}

// mSeals counts full zone-map seal passes. Each is a scan of the
// fragment's bytes; a warm restart that re-seals anything is re-paying
// work its checkpoint already paid, so recovery tests assert a zero
// delta across restore.
var mSeals = obs.NewCounter("layout.seals")

// SealStats recomputes every zone map exactly from the stored bytes.
// Engines call this at their freeze points — the paper's hot→cold
// transitions — where a fragment's contents become (mostly) immutable
// and tight bounds pay off for the rest of its life.
func (f *Fragment) SealStats() {
	mSeals.Inc()
	for p, z := range f.zones {
		if z == nil {
			continue
		}
		z.Reset()
		b := f.block.Bytes()
		for i := 0; i < f.n; i++ {
			z.ObserveFloat64(math.Float64frombits(binary.LittleEndian.Uint64(b[f.fieldOffset(i, p):])))
		}
	}
}

// String summarizes the fragment.
func (f *Fragment) String() string {
	kind := "thin"
	if f.IsFat() {
		kind = "fat"
	}
	return fmt.Sprintf("fragment{%s, cols=%v, rows=%v, lin=%s, space=%s, len=%d/%d}",
		kind, f.cols, f.rows, f.lin, f.Space(), f.n, f.Cap())
}
