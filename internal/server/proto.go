// Package server is the network serving layer: an HTTP/1.1-over-TCP
// front end on the hybridstore facade with sessions, prepared
// statements, per-tenant admission control, and a batching scheduler
// that collapses concurrent same-shape reads into one shared storage
// pass (Table.Execute).
//
// The wire format is flat JSON. The exec hot path never touches
// encoding/json: requests are scanned in place by the minimal parser in
// this file and responses are appended into recycled pool buffers, so a
// served query costs a small fixed number of allocations
// (BenchmarkServeSumWhere gates the budget).
package server

import (
	"fmt"
	"strconv"

	"hybridstore/internal/exec"
)

// errProto is the malformed-request error class; the HTTP layer maps it
// to 400.
var errProto = fmt.Errorf("server: malformed request")

// scanObject walks one flat JSON object in place, invoking fn once per
// key with the raw value bytes (strings WITHOUT quotes; nested objects
// and arrays with their brackets, for a second scanObject/scanArray
// pass). It supports exactly the serving protocol's subset: string,
// number, bool, null, and balanced nesting — string escapes are stepped
// over, not decoded (only a Char field's value can carry any:
// decodeValue). Returns the offset one past the object's closing brace.
func scanObject(b []byte, fn func(key, val []byte) error) (int, error) {
	i := skipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return i, fmt.Errorf("%w: expected object", errProto)
	}
	i++
	for {
		i = skipWS(b, i)
		if i >= len(b) {
			return i, fmt.Errorf("%w: unterminated object", errProto)
		}
		if b[i] == '}' {
			return i + 1, nil
		}
		if b[i] == ',' {
			i++
			continue
		}
		if b[i] != '"' {
			return i, fmt.Errorf("%w: expected key at %d", errProto, i)
		}
		keyEnd := scanString(b, i)
		if keyEnd < 0 {
			return i, fmt.Errorf("%w: unterminated key", errProto)
		}
		key := b[i+1 : keyEnd-1]
		i = skipWS(b, keyEnd)
		if i >= len(b) || b[i] != ':' {
			return i, fmt.Errorf("%w: expected ':' after %q", errProto, key)
		}
		i = skipWS(b, i+1)
		valEnd, err := scanValue(b, i)
		if err != nil {
			return i, err
		}
		val := b[i:valEnd]
		if len(val) > 0 && val[0] == '"' {
			val = val[1 : len(val)-1]
		}
		if err := fn(key, val); err != nil {
			return valEnd, err
		}
		i = valEnd
	}
}

// scanArray walks one JSON array, invoking fn per raw element (strings
// without quotes, nested structures raw).
func scanArray(b []byte, fn func(val []byte) error) error {
	i := skipWS(b, 0)
	if i >= len(b) || b[i] != '[' {
		return fmt.Errorf("%w: expected array", errProto)
	}
	i++
	for {
		i = skipWS(b, i)
		if i >= len(b) {
			return fmt.Errorf("%w: unterminated array", errProto)
		}
		if b[i] == ']' {
			return nil
		}
		if b[i] == ',' {
			i++
			continue
		}
		end, err := scanValue(b, i)
		if err != nil {
			return err
		}
		val := b[i:end]
		if len(val) > 0 && val[0] == '"' {
			val = val[1 : len(val)-1]
		}
		if err := fn(val); err != nil {
			return err
		}
		i = end
	}
}

func skipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanString returns the offset one past the closing quote of the
// string starting at b[i] (which must be '"'), or -1.
func scanString(b []byte, i int) int {
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '\\':
			j++ // the escaped byte is part of the string, a quote included
		case '"':
			return j + 1
		}
	}
	return -1
}

// scanValue returns the offset one past the JSON value starting at b[i].
func scanValue(b []byte, i int) (int, error) {
	if i >= len(b) {
		return i, fmt.Errorf("%w: missing value", errProto)
	}
	switch b[i] {
	case '"':
		end := scanString(b, i)
		if end < 0 {
			return i, fmt.Errorf("%w: unterminated string", errProto)
		}
		return end, nil
	case '{', '[':
		open, close := b[i], byte('}')
		if open == '[' {
			close = ']'
		}
		depth := 0
		for j := i; j < len(b); j++ {
			switch b[j] {
			case '"':
				end := scanString(b, j)
				if end < 0 {
					return i, fmt.Errorf("%w: unterminated string", errProto)
				}
				j = end - 1
			case open:
				depth++
			case close:
				depth--
				if depth == 0 {
					return j + 1, nil
				}
			}
		}
		return i, fmt.Errorf("%w: unbalanced %c", errProto, open)
	default:
		j := i
		for j < len(b) {
			switch b[j] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				return j, nil
			}
			j++
		}
		return j, nil
	}
}

// parseF64 parses a JSON number without retaining the backing bytes.
func parseF64(b []byte) (float64, error) {
	return strconv.ParseFloat(string(b), 64)
}

// parseI64 parses a JSON integer.
func parseI64(b []byte) (int64, error) {
	return strconv.ParseInt(string(b), 10, 64)
}

// parsePred decodes a predicate object — {"kind":"lt|gt|eq|between",
// "lo":x,"hi":y} — into the exec vocabulary. "eq" takes its bound from
// "lo" (or "v"), "lt" from "hi", "gt" from "lo".
//
// The decoded predicate is canonicalized with exec.Normalize before it
// becomes a batching or cache key: a between with equal bounds and the
// equivalent eq, or bounds spelled "-0.0" vs "0", would otherwise
// split one compatibility class into separate cohorts and separate
// result-cache entries. Normalization never changes the match set, so
// the collapsed key answers every spelling.
func parsePred(raw []byte) (exec.Pred, error) {
	var kind []byte
	var lo, hi float64
	var p exec.Pred
	_, err := scanObject(raw, func(key, val []byte) error {
		switch string(key) {
		case "kind":
			kind = val
		case "lo", "v":
			f, err := parseF64(val)
			if err != nil {
				return fmt.Errorf("%w: pred lo: %v", errProto, err)
			}
			lo = f
		case "hi":
			f, err := parseF64(val)
			if err != nil {
				return fmt.Errorf("%w: pred hi: %v", errProto, err)
			}
			hi = f
		}
		return nil
	})
	if err != nil {
		return p, err
	}
	// A NaN bound matches nothing and never equals itself, so a plan
	// carrying one could not be found again in the cohort intake map or
	// collapse with its own repeats: refuse it at the door.
	if lo != lo || hi != hi {
		return p, fmt.Errorf("%w: pred bound is NaN", errProto)
	}
	switch string(kind) {
	case "eq":
		return exec.Normalize(exec.Eq(lo)), nil
	case "lt":
		return exec.Normalize(exec.Lt(hi)), nil
	case "gt":
		return exec.Normalize(exec.Gt(lo)), nil
	case "between":
		return exec.Normalize(exec.Between(lo, hi)), nil
	default:
		return p, fmt.Errorf("%w: pred kind %q", errProto, kind)
	}
}

// appendPredJSON renders p back to the wire form parsePred accepts —
// the exact bits survive the round trip because bounds are printed with
// strconv's shortest-exact format.
func appendPredJSON(buf []byte, p exec.Pred) []byte {
	buf = append(buf, `{"kind":"`...)
	buf = append(buf, p.Op.String()...)
	buf = append(buf, '"')
	switch p.Op {
	case exec.OpLT:
		buf = append(buf, `,"hi":`...)
		buf = appendF64(buf, p.Hi)
	case exec.OpGT, exec.OpEQ:
		buf = append(buf, `,"lo":`...)
		buf = appendF64(buf, p.Lo)
	case exec.OpBetween:
		buf = append(buf, `,"lo":`...)
		buf = appendF64(buf, p.Lo)
		buf = append(buf, `,"hi":`...)
		buf = appendF64(buf, p.Hi)
	}
	return append(buf, '}')
}

// appendF64 appends v in the shortest decimal form that parses back to
// exactly the same float64 bits — the serving layer's end-to-end
// bit-identity contract depends on this round trip.
func appendF64(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// appendI64 appends v in decimal.
func appendI64(buf []byte, v int64) []byte {
	return strconv.AppendInt(buf, v, 10)
}
