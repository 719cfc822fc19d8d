package layout

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"hybridstore/internal/schema"
)

// cellSchema holds one column of each kind CopyCells moves.
var cellSchema = schema.MustNew(schema.Int64Attr("i"), schema.Int32Attr("j"),
	schema.Float64Attr("f"), schema.CharAttr("c", 6))

// cellRows are values whose bits a decode and re-encode could disturb:
// -0, a NaN with a payload, the int32 sign bit, full-width and short
// CHARs.
var cellRows = [][]schema.Value{
	{schema.IntValue(math.MinInt64), schema.Int32Value(math.MinInt32), schema.FloatValue(math.Copysign(0, -1)), schema.CharValue("abcdef")},
	{schema.IntValue(-1), schema.Int32Value(-1), schema.FloatValue(math.Float64frombits(0x7ff8_0000_dead_beef)), schema.CharValue("a")},
	{schema.IntValue(7), schema.Int32Value(math.MaxInt32), schema.FloatValue(math.Inf(1)), schema.CharValue("")},
	{schema.IntValue(math.MaxInt64), schema.Int32Value(0), schema.FloatValue(-2.5), schema.CharValue("zz")},
	{schema.IntValue(0), schema.Int32Value(5), schema.FloatValue(math.SmallestNonzeroFloat64), schema.CharValue("xyzuvw")},
}

// cellFragment builds a fragment over cols of capacity len(cellRows)+2
// and appends rows through the typed path, keeping only column keep of
// each row (the other columns hold their zero value) unless keep < 0.
func cellFragment(t *testing.T, lin Linearization, cols []int, rows [][]schema.Value, keep int) *Fragment {
	t.Helper()
	f, err := NewFragment(hostAlloc(), cellSchema, cols, RowRange{0, uint64(len(cellRows) + 2)}, lin)
	if err != nil {
		t.Fatal(err)
	}
	zero := []schema.Value{schema.IntValue(0), schema.Int32Value(0), schema.FloatValue(0), schema.CharValue("")}
	for _, r := range rows {
		vals := make([]schema.Value, len(cols))
		for p, c := range cols {
			vals[p] = r[c]
			if keep >= 0 && c != keep {
				vals[p] = zero[c]
			}
		}
		if err := f.AppendTuplet(vals); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// CopyCells moves a column between every pair of linearizations, for
// every cell size, and leaves the destination's bytes exactly as the
// typed per-tuplet path would have written them: that column's cells,
// nothing else, nothing past n.
func TestCopyCellsEveryLinearization(t *testing.T) {
	colsFor := func(lin Linearization, col int, fat []int) []int {
		if lin == Direct {
			return []int{col}
		}
		return fat
	}
	n := len(cellRows)
	for col := range cellRows[0] {
		for _, from := range []Linearization{NSM, DSM, Direct} {
			for _, to := range []Linearization{NSM, DSM, Direct} {
				t.Run(fmt.Sprintf("%s/%s-%s", cellSchema.Attr(col).Kind, from, to), func(t *testing.T) {
					src := cellFragment(t, from, colsFor(from, col, []int{0, 1, 2, 3}), cellRows, -1)
					dstCols := colsFor(to, col, []int{2, 3, 0, 1})
					dst := cellFragment(t, to, dstCols, nil, -1)
					want := cellFragment(t, to, dstCols, cellRows, col)
					if err := dst.SetLen(n); err != nil {
						t.Fatal(err)
					}
					sv, err := src.ColVector(col)
					if err != nil {
						t.Fatal(err)
					}
					dv, err := dst.ColVector(col)
					if err != nil {
						t.Fatal(err)
					}
					if err := CopyCells(dv, sv, n); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(dst.Raw(), want.Raw()) {
						t.Fatalf("copied bytes\n%x\nper-tuplet bytes\n%x", dst.Raw(), want.Raw())
					}
				})
			}
		}
	}
}

// CopyCells refuses what it cannot copy whole instead of copying part.
func TestCopyCellsRefuses(t *testing.T) {
	src := cellFragment(t, NSM, []int{0, 1, 2, 3}, cellRows, -1)
	dst := cellFragment(t, DSM, []int{0, 1, 2, 3}, nil, -1)
	if err := dst.SetLen(len(cellRows)); err != nil {
		t.Fatal(err)
	}
	i64, _ := src.ColVector(0)
	i32, _ := dst.ColVector(1)
	f64, _ := dst.ColVector(2)
	empty, _ := cellFragment(t, Direct, []int{2}, nil, -1).ColVector(2)
	for _, tc := range []struct {
		name     string
		dst, src ColVector
		n        int
		want     error
	}{
		{"size mismatch", i32, i64, 1, ErrBadFragment},
		{"short source", f64, empty, 1, ErrOutOfRange},
		{"source past its length", f64, i64, len(cellRows) + 1, ErrOutOfRange},
		{"short destination", empty, i64, 1, ErrOutOfRange},
		{"negative count", f64, i64, -1, ErrOutOfRange},
	} {
		if err := CopyCells(tc.dst, tc.src, tc.n); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
