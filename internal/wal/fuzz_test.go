package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"hybridstore/internal/schema"
)

// FuzzDecodeRecord feeds decodeRecord — the first code a CRC-valid frame
// of a log file reaches — arbitrary payloads. It must refuse with
// ErrCorrupt or accept, never panic; what it accepts holds no list
// longer than the payload that announced it (a count is checked against
// the bytes left before anything is allocated for it); and what it
// accepts is exactly what encode writes: the record re-encodes, and the
// re-encoding decodes to the same record. With encode refusing the kinds
// decode refuses, that is "Append refuses what decode refuses" from both
// sides.
func FuzzDecodeRecord(f *testing.F) {
	rec := schema.Record{schema.IntValue(7), schema.FloatValue(1.5), schema.CharValue("ab")}
	many := &Record{Kind: KindCommit, Table: "item", TS: 9}
	for row := uint64(0); row < 40; row++ {
		many.Ops = append(many.Ops, Op{Row: row * 300, Rec: rec})
	}
	for _, r := range []*Record{
		{Kind: KindCreate, Table: "item", Engine: "core", Schema: schema.MustNew(
			schema.Int64Attr("id"), schema.Float64Attr("price"), schema.CharAttr("name", 4))},
		{Kind: KindInsert, Table: "item", Row: 7, Rec: rec},
		{Kind: KindCommit, Table: "item", TS: 1},
		{Kind: KindCommit, Table: "item", TS: 2, Ops: []Op{{Row: 3, Rec: rec}}},
		many,
	} {
		var e Encoder
		if err := r.encode(&e); err != nil {
			f.Fatal(err)
		}
		f.Add(e.Bytes())
		f.Add(e.Bytes()[:len(e.Bytes())/2]) // truncated
	}
	flagged, _ := hex.DecodeString(parentCommitHex)
	flagged[parentCommitFlag] = 1
	f.Add(flagged)

	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refused with %v, not ErrCorrupt", err)
			}
			return
		}
		lists := []int{cap(r.Rec), cap(r.Ops)}
		if r.Schema != nil {
			lists = append(lists, r.Schema.Arity())
		}
		for _, op := range r.Ops {
			lists = append(lists, cap(op.Rec))
		}
		for _, n := range lists {
			if n > len(payload) {
				t.Fatalf("a %d-element list decoded from %d bytes", n, len(payload))
			}
		}
		var e, again Encoder
		if err := r.encode(&e); err != nil {
			t.Fatalf("decoded record does not encode: %v", err)
		}
		back, err := decodeRecord(e.Bytes())
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		// Encodings, not reflect.DeepEqual: a NaN field is equal to itself here.
		if err := back.encode(&again); err != nil || !bytes.Equal(e.Bytes(), again.Bytes()) {
			t.Fatalf("round trip moved the record (%v):\n%x\n%x", err, e.Bytes(), again.Bytes())
		}
	})
}
