package server

import (
	"math"
	"testing"

	"hybridstore/internal/exec"
)

// appendPredJSON renders p back to the wire form parsePred accepts —
// the exact bits survive the round trip because bounds are printed with
// strconv's shortest-exact format. It is the reference renderer the
// round-trip properties below hold parsePred to.
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

// FuzzParsePred feeds untrusted wire bytes to the predicate decoder: it
// never panics, and whatever it accepts re-renders through
// appendPredJSON and parses back to identical bounds.
func FuzzParsePred(f *testing.F) {
	for _, p := range []exec.Pred{
		exec.Eq(1.5), exec.Lt(-0.0), exec.Gt(math.MaxFloat64),
		exec.Between(math.SmallestNonzeroFloat64, 0.1), exec.Between(3, 3),
		exec.Lt(math.Inf(1)), exec.Gt(math.Inf(-1)),
	} {
		f.Add(appendPredJSON(nil, p))
	}
	for _, raw := range []string{
		`{"kind":"eq","v":7}`, `{"kind":"between","lo":5,"hi":1}`, `{"kind":"lt","hi":"x"}`,
		`{"kind":"gt","lo":NaN}`, `{"kind":"ne","lo":1}`, `{"kind":"eq","lo":1e999}`, `{`, ``,
	} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := parsePred(raw)
		if err != nil {
			return
		}
		wire := appendPredJSON(nil, p)
		got, err := parsePred(wire)
		if err != nil {
			t.Fatalf("%q parsed as %#v, whose rendering %q does not parse: %v", raw, p, wire, err)
		}
		if got.Op != p.Op || math.Float64bits(got.Lo) != math.Float64bits(p.Lo) ||
			math.Float64bits(got.Hi) != math.Float64bits(p.Hi) {
			t.Fatalf("%q: round trip changed pred: %#v -> %#v", raw, p, got)
		}
	})
}
