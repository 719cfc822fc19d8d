package exec

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
)

func TestGroupSumFloat64(t *testing.T) {
	for _, vertical := range []bool{false, true} {
		l, _ := buildLayout(t, layout.NSM, vertical, 700)
		keys, err := ColumnView(l, 1, 700) // int32 warehouse = i%7
		if err != nil {
			t.Fatal(err)
		}
		vals, err := ColumnView(l, 3, 700) // price = i%101 + 0.25
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{Single(), Config{Policy: MultiThreaded}, MultiN(8), Morsel()} {
			groups, err := groupSumOf(cfg, keys, vals)
			if err != nil {
				t.Fatal(err)
			}
			if len(groups) != 7 {
				t.Fatalf("groups = %d, want 7", len(groups))
			}
			// Model the expected result.
			wantSum := map[int64]float64{}
			wantCount := map[int64]int64{}
			for i := uint64(0); i < 700; i++ {
				k := int64(i % 7)
				wantSum[k] += float64(i%101) + 0.25
				wantCount[k]++
			}
			for gi, g := range groups {
				if gi > 0 && groups[gi-1].Key >= g.Key {
					t.Fatal("groups not sorted")
				}
				if g.Count != wantCount[g.Key] {
					t.Fatalf("group %d count = %d, want %d", g.Key, g.Count, wantCount[g.Key])
				}
				if math.Abs(g.Sum-wantSum[g.Key]) > 1e-6 {
					t.Fatalf("group %d sum = %v, want %v", g.Key, g.Sum, wantSum[g.Key])
				}
			}
		}
	}
}

func TestGroupSumInt64Keys(t *testing.T) {
	l, _ := buildLayout(t, layout.NSM, false, 100)
	keys, _ := ColumnView(l, 0, 100) // int64 id
	vals, _ := ColumnView(l, 3, 100)
	groups, err := groupSumOf(Single(), keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 100 {
		t.Fatalf("distinct int64 keys = %d", len(groups))
	}
}

func TestGroupSumValidation(t *testing.T) {
	l, _ := buildLayout(t, layout.NSM, false, 50)
	keys, _ := ColumnView(l, 1, 50)
	vals, _ := ColumnView(l, 3, 50)
	// Misaligned piece counts.
	if _, err := groupSumOf(Single(), keys, nil); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("err = %v", err)
	}
	// Wrong value width.
	badVals, _ := ColumnView(l, 1, 50)
	if _, err := groupSumOf(Single(), keys, badVals); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("err = %v", err)
	}
	// 8-byte char keys group by bit pattern (allowed at this layer: the
	// operator sees raw views, not kinds).
	charKeys, _ := ColumnView(l, 2, 50)
	if _, err := groupSumOf(Single(), charKeys, vals); err != nil {
		t.Fatalf("8-byte char key rejected: %v", err)
	}
	// Misaligned row ranges.
	shortVals, _ := ColumnView(l, 3, 40)
	if _, err := groupSumOf(Single(), keys, shortVals); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("err = %v", err)
	}
}

// buildLayoutQuick fills a chunked NSM layout with seeded random prices.
func buildLayoutQuick(seed int64, n uint64) *layout.Layout {
	l, err := layout.Horizontal(host(), "h", itemSchema(), n, n/3+1, layout.NSM)
	if err != nil {
		return nil
	}
	r := rand.New(rand.NewSource(seed))
	for i := uint64(0); i < n; i++ {
		for _, fr := range l.Fragments() {
			if !fr.Rows().Contains(i) {
				continue
			}
			if fr.AppendTuplet([]schemaValue{
				intVal(int64(i)), int32Val(int32(r.Intn(10))),
				charVal("x"), floatVal(math.Floor(r.Float64() * 100)),
			}) != nil {
				return nil
			}
		}
	}
	return l
}

// Property: parallel grouped aggregation equals the sequential one.
func TestQuickGroupParallelEqualsSequential(t *testing.T) {
	g := func(seed int64, nRaw uint16, threadsRaw uint8) bool {
		n := uint64(nRaw)%2000 + 10
		l := buildLayoutQuick(seed, n)
		if l == nil {
			return false
		}
		keys, err1 := ColumnView(l, 1, n)
		vals, err2 := ColumnView(l, 3, n)
		if err1 != nil || err2 != nil {
			return false
		}
		seq, err1 := groupSumOf(Single(), keys, vals)
		par, err2 := groupSumOf(Config{Policy: MultiThreaded, Threads: int(threadsRaw)%7 + 2}, keys, vals)
		if err1 != nil || err2 != nil || len(seq) != len(par) {
			return false
		}
		for i := range seq {
			if seq[i].Key != par[i].Key || seq[i].Count != par[i].Count ||
				math.Abs(seq[i].Sum-par[i].Sum) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Small aliases keeping buildLayoutQuick readable.
type schemaValue = schema.Value

func intVal(v int64) schemaValue     { return schema.IntValue(v) }
func int32Val(v int32) schemaValue   { return schema.Int32Value(v) }
func charVal(s string) schemaValue   { return schema.CharValue(s) }
func floatVal(f float64) schemaValue { return schema.FloatValue(f) }
