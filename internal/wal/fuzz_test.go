package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
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
		// Compact's walk accepts exactly what decodeRecord accepts, and
		// reads the same head.
		var h Record
		if herr := checkRecord(payload, &h); (herr == nil) != (err == nil) {
			t.Fatalf("checkRecord: %v; decodeRecord: %v", herr, err)
		} else if err == nil && (h.Kind != r.Kind || h.Table != r.Table || h.Row != r.Row || h.TS != r.TS) {
			t.Fatalf("checkRecord read head %+v of %+v", h, r)
		}
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

// appendFrame appends payload to dst behind its frame header, as Append
// frames a record.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// frames splits a log that scan accepts into its frames.
func frames(data []byte) [][]byte {
	var out [][]byte
	for off := 0; off+frameHeaderSize <= len(data); {
		end := off + frameHeaderSize + int(binary.LittleEndian.Uint32(data[off:]))
		out = append(out, data[off:end])
		off = end
	}
	return out
}

// payloadOf is r's encoding: the payload of its frame.
func payloadOf(tb testing.TB, r *Record) []byte {
	var e Encoder
	if err := r.encode(&e); err != nil {
		tb.Fatal(err)
	}
	return e.Bytes()
}

// sameRecords reports whether two record lists encode identically.
func sameRecords(tb testing.TB, a, b []*Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(payloadOf(tb, a[i]), payloadOf(tb, b[i])) {
			return false
		}
	}
	return true
}

// crcValidFrame returns the payload of the frame at the start of b when
// its header fits, its length is positive and in bounds, and its CRC
// matches.
func crcValidFrame(b []byte) ([]byte, bool) {
	if len(b) < frameHeaderSize {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n <= 0 || n > len(b)-frameHeaderSize {
		return nil, false
	}
	payload := b[frameHeaderSize : frameHeaderSize+n]
	return payload, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(b[4:])
}

// FuzzScanFrames feeds scan — the frame walk Open runs over a whole log
// file, above decodeRecord — arbitrary bytes. It must never panic; the
// prefix it keeps lies inside the input and ends on a frame boundary;
// scanning that prefix alone gives the same records and length; one
// valid frame appended after it adds exactly that record; a walk that
// stops without an error stops at a torn tail (a short header, a zero
// or overlong length, a CRC mismatch); and an error comes only from a
// CRC-valid frame that does not decode.
func FuzzScanFrames(f *testing.F) {
	rec := schema.Record{schema.IntValue(7), schema.FloatValue(1.5), schema.CharValue("ab")}
	var log []byte
	for _, r := range []*Record{
		{Kind: KindCreate, Table: "item", Engine: "core", Schema: schema.MustNew(
			schema.Int64Attr("id"), schema.Float64Attr("price"), schema.CharAttr("name", 4))},
		{Kind: KindInsert, Table: "item", Row: 7, Rec: rec},
		{Kind: KindCommit, Table: "item", TS: 1},
		{Kind: KindCommit, Table: "item", TS: 2, Ops: []Op{{Row: 3, Rec: rec}}},
	} {
		log = appendFrame(log, payloadOf(f, r))
		f.Add(bytes.Clone(log))
	}
	f.Add(log[:len(log)-3]) // torn inside the last frame
	f.Add(log[:5])          // torn inside the first header
	flipped := bytes.Clone(log)
	flipped[4] ^= 1 // the first frame's CRC
	f.Add(flipped)
	f.Add(appendFrame(bytes.Clone(log), []byte{0xff, 1, 2})) // CRC-valid, does not decode

	tail := &Record{Kind: KindCommit, Table: "item", TS: 9, Ops: []Op{{Row: 1, Rec: rec}}}
	tailFrame := appendFrame(nil, payloadOf(f, tail))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := scan(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("kept %d bytes of %d", good, len(data))
		}
		off := 0
		for range recs {
			if off+frameHeaderSize > len(data) {
				t.Fatalf("%d records do not fit in %d bytes", len(recs), len(data))
			}
			off += frameHeaderSize + int(binary.LittleEndian.Uint32(data[off:]))
		}
		if int64(off) != good {
			t.Fatalf("%d records end at byte %d, the kept prefix at %d", len(recs), off, good)
		}
		again, goodAgain, errAgain := scan(data[:good])
		if errAgain != nil || goodAgain != good || !sameRecords(t, again, recs) {
			t.Fatalf("rescanning the kept prefix: %d records, %d bytes, %v; first scan %d, %d", len(again), goodAgain, errAgain, len(recs), good)
		}
		longer := append(bytes.Clone(data[:good]), tailFrame...)
		more, goodMore, errMore := scan(longer)
		if errMore != nil || goodMore != int64(len(longer)) || !sameRecords(t, more, append(recs, tail)) {
			t.Fatalf("one frame appended after the kept prefix: %d records, %d of %d bytes, %v", len(more), goodMore, len(longer), errMore)
		}
		// The walk stopped at the end, at a torn tail, or at a CRC-valid
		// frame that does not decode — the one stop that is an error.
		payload, crcValid := crcValidFrame(data[good:])
		undecodable := false
		if crcValid {
			_, derr := decodeRecord(payload)
			if derr == nil {
				t.Fatalf("the walk stopped at byte %d before an intact frame", good)
			}
			undecodable = true
		}
		if (err != nil) != undecodable {
			t.Fatalf("error %v at byte %d; a CRC-valid frame that does not decode starts there: %v", err, good, undecodable)
		}
		if err == nil {
			compactKeeps(t, data[:good])
		}
	})
}

// compactKeeps writes log, a log scan accepts, as a file and compacts it
// twice: keeping every frame, then every second one. Each time the file
// must be exactly the kept frames' bytes.
func compactKeeps(t *testing.T, log []byte) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(path, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fs := frames(log)
	for _, every := range []int{1, 2} {
		var want []byte
		for i := 0; i < len(fs); i += every {
			want = append(want, fs[i]...)
		}
		i := 0
		if err := l.Compact(func(*Record) bool { i++; return (i-1)%every == 0 }); err != nil {
			t.Fatalf("Compact keeping every %d. frame of %d: %v", every, len(fs), err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Compact keeping every %d. frame of %d (%v): %d bytes, want %d", every, len(fs), err, len(got), len(want))
		}
	}
}
