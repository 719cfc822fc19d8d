package device

import (
	"encoding/binary"
	"math"
	"sync/atomic"

	"hybridstore/internal/agg"
)

// zoneRows is the row count of one block of a summary's zone map.
const zoneRows = 64

// imageIDs numbers the write-once images the caches seal (Buffer.image).
var imageIDs atomic.Uint64

// summary is the small materialized aggregate the card keeps beside a
// write-once float64 image (Moerkotte's SMAs): the envelope of each
// 64-row block's non-NaN values, and the sum and count of every non-NaN
// value in the image — what any interval covering the image's envelope
// folds. An all-NaN block's envelope is empty, [+Inf, -Inf]. A summary
// never changes once built, because its image is never written again.
type summary struct {
	// zones[2b] and zones[2b+1] bound block b; lo and hi bound them all.
	zones  []float64
	lo, hi float64
	sum    float64
	count  int64
	// groups is the drained group table of every non-NaN value under the
	// keys of one key image: what a covering interval folds there.
	groups atomic.Pointer[groupMemo]
}

// groupMemo is a summary's grouped total under the key image keys.
type groupMemo struct {
	keys   uint64
	groups []agg.Group
}

// summaryOf returns the summary of a raw value operand: vals, n dense
// float64s from the first byte of seg.Vals' buffer. It has one only when
// that buffer is a write-once cache image the operand spans whole, and
// builds it on the first call; anything else — a transient upload, a
// placed (Data) vector a scatter may rewrite, a strided or clipped view —
// gets nil and the plain loops.
func (seg *Segment) summaryOf(vals []byte, n int) *summary {
	v := seg.Vals
	if v.Buf == nil || v.Buf.image == 0 || v.Base != 0 || v.Stride != 8 || n*8 != len(v.Buf.data) {
		return nil
	}
	if sm := v.Buf.summary.Load(); sm != nil {
		return sm
	}
	sm := &summary{zones: make([]float64, 0, 2*((n+zoneRows-1)/zoneRows)), lo: math.Inf(1), hi: math.Inf(-1)}
	for b := 0; b < n; b += zoneRows {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := b; i < min(b+zoneRows, n); i++ {
			// A NaN fails both tests: the envelope holds what a filter admits.
			x := math.Float64frombits(binary.LittleEndian.Uint64(vals[i*8:]))
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		sm.zones = append(sm.zones, lo, hi)
		sm.lo, sm.hi = min(sm.lo, lo), max(sm.hi, hi)
	}
	sm.sum, sm.count = agg.SumWhere(vals, 8, n, math.Inf(-1), math.Inf(1))
	if !v.Buf.summary.CompareAndSwap(nil, sm) {
		return v.Buf.summary.Load()
	}
	return sm
}

// keyImage is the id of the write-once image seg.Keys spans whole, 0
// when it spans none.
func (seg *Segment) keyImage() uint64 {
	v := seg.Keys
	if v.Buf == nil || v.Base != 0 || v.Stride != v.Size || v.Len*v.Size != len(v.Buf.data) {
		return 0
	}
	return v.Buf.image
}

// covers reports whether iv holds every non-NaN value of the image.
func (sm *summary) covers(iv Interval) bool { return iv.Lo <= sm.lo && sm.hi <= iv.Hi }

// reach returns the next run of rows [i, j), from row from on — 0 or
// where the last run ended — whose blocks' envelopes meet iv; i == j
// when no block is left.
func (sm *summary) reach(iv Interval, from, n int) (i, j int) {
	meets := func(b int) bool { return iv.Lo <= sm.zones[2*b+1] && sm.zones[2*b] <= iv.Hi }
	b, nb := (from+zoneRows-1)/zoneRows, len(sm.zones)/2
	for b < nb && !meets(b) {
		b++
	}
	e := b
	for e < nb && meets(e) {
		e++
	}
	return min(b*zoneRows, n), min(e*zoneRows, n)
}

// sumWhere is agg.SumWhere(vals, 8, n, iv.Lo, iv.Hi) over the image: the
// stored total when iv covers it, else one running sum carried across
// the blocks iv can reach. The blocks skipped admit nothing, so the bits
// are the whole sweep's.
func (sm *summary) sumWhere(vals []byte, n int, iv Interval) (sum float64, count int64) {
	if sm.covers(iv) {
		return sm.sum, sm.count
	}
	for i, j := sm.reach(iv, 0, n); i < j; i, j = sm.reach(iv, j, n) {
		sum, count = agg.SumWhereFrom(sum, count, vals[i*8:], 8, j-i, iv.Lo, iv.Hi)
	}
	return sum, count
}

// foldWhere is t.FoldWhere(keys, vals, 8, n, iv.Lo, iv.Hi) over the
// blocks iv can reach, in ascending order into the one table.
func (sm *summary) foldWhere(t *agg.Table, keys agg.Keys, vals []byte, n int, iv Interval) {
	for i, j := sm.reach(iv, 0, n); i < j; i, j = sm.reach(iv, j, n) {
		run := agg.Keys{Data: keys.Data[i*keys.Stride:], Stride: keys.Stride, Size: keys.Size}
		t.FoldWhere(run, vals[i*8:], 8, j-i, iv.Lo, iv.Hi)
	}
}

// groupsUnder returns the image's grouped total under the keys of key
// image id — what any covering interval folds there — folding it through
// the empty table t the first time. The memo keeps one key image, the
// last asked for; the slice it hands out is never written.
func (sm *summary) groupsUnder(id uint64, t *agg.Table, keys agg.Keys, vals []byte, n int) []agg.Group {
	if m := sm.groups.Load(); m != nil && m.keys == id {
		return m.groups
	}
	t.FoldWhere(keys, vals, 8, n, math.Inf(-1), math.Inf(1))
	m := &groupMemo{keys: id, groups: t.Drain(nil)}
	sm.groups.Store(m)
	return m.groups
}
