package exec

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"hybridstore/internal/agg"
	"hybridstore/internal/compress"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
)

// mergeGroupResults is the reference merge of partial group tables: one
// table folds every part in order and drains in key order.
func mergeGroupResults(parts ...[]GroupResult) []GroupResult {
	var t agg.Table
	for _, part := range parts {
		t.Merge(part)
	}
	return t.Drain(nil)
}

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

// TestFoldGroupsMatchesMerge: folding the host partial into the device
// answer in place has the bits of the table merge it replaced — device
// sum first, then host sum — whether the host holds keys the device
// lacks, shares them, is empty or faces an empty device answer; an empty
// partial and a partial of shared keys fold without allocating.
func TestFoldGroupsMatchesMerge(t *testing.T) {
	negZero := math.Copysign(0, -1)
	dev := []GroupResult{{Key: -3, Sum: negZero, Count: 1}, {Key: 1, Sum: 0.1, Count: 2}, {Key: 2, Sum: 1e16, Count: 1}, {Key: 9, Sum: 2.5, Count: 4}}
	for _, tc := range []struct {
		name      string
		dev, host []GroupResult
	}{
		{"keys only the host holds", dev, []GroupResult{{Key: -7, Sum: 3, Count: 1}, {Key: 0, Sum: negZero, Count: 1}, {Key: 5, Sum: 0.2, Count: 2}, {Key: 12, Sum: 1, Count: 1}}},
		{"shared keys", dev, []GroupResult{{Key: -3, Sum: negZero, Count: 2}, {Key: 1, Sum: 0.2, Count: 1}, {Key: 2, Sum: 1, Count: 3}}},
		{"shared and host-only keys", dev, []GroupResult{{Key: -3, Sum: 0, Count: 1}, {Key: 4, Sum: 7, Count: 1}, {Key: 9, Sum: -2.5, Count: 1}, {Key: 10, Sum: 1, Count: 1}}},
		{"empty host partial", dev, nil},
		{"empty device answer", nil, []GroupResult{{Key: 2, Sum: negZero, Count: 1}, {Key: 4, Sum: 1, Count: 1}}},
	} {
		want := mergeGroupResults(slices.Clone(tc.dev), slices.Clone(tc.host))
		if got := FoldGroups(slices.Clone(tc.dev), tc.host); !sameGroups(got, want) {
			t.Errorf("%s: folded %+v, merged %+v", tc.name, got, want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	keysOf := func() []GroupResult {
		var out []GroupResult
		for key := int64(-20); key < 20; key++ {
			if rng.Intn(3) == 0 {
				sum := math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(1023-10+rng.Intn(20))<<52)
				out = append(out, GroupResult{Key: key, Sum: sum, Count: 1 + rng.Int63n(5)})
			}
		}
		return out
	}
	for trial := 0; trial < 500; trial++ {
		d, h := keysOf(), keysOf()
		want := mergeGroupResults(slices.Clone(d), slices.Clone(h))
		if got := FoldGroups(slices.Clone(d), h); !sameGroups(got, want) {
			t.Fatalf("trial %d: folded %+v, merged %+v", trial, got, want)
		}
	}
	shared := []GroupResult{{Key: 1, Sum: 1, Count: 1}, {Key: 9, Sum: 1, Count: 1}}
	if n := testing.AllocsPerRun(100, func() { FoldGroups(dev, nil); FoldGroups(dev, shared) }); n != 0 {
		t.Errorf("an empty and a shared-key partial allocate %.1f times, want 0", n)
	}
}

// TestHostGroupScanRecyclesTables: host grouped scans run back to back —
// disjoint key sets, different predicates, under every policy — fold
// through recycled tables and still answer exactly their own groups, a
// single-threaded one with the bits of a fresh table's row-order fold.
// A scan whose fold fails after its raw pairs took groups gives its
// tables to nobody: the next scan, handed the last scratch given back,
// answers as before.
func TestHostGroupScanRecyclesTables(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: a scan gets the last scratch given back
	const nf, fragRows = 4, 512
	keys, vals, keyRaw, valF := groupScanFixture(nf, fragRows)
	// The same rows keyed 1000 apart: a key set disjoint from the first.
	farRaw := make([]int64, len(keyRaw))
	for i, k := range keyRaw {
		farRaw[i] = k + 1000
	}
	far := slices.Clone(keys)
	for i := range far {
		far[i].Vec.Data = encodeI64(farRaw)
	}
	// reference folds the rows p admits through one fresh table.
	reference := func(raw []int64, p Pred) []GroupResult {
		lo, hi, _ := p.Closed()
		var tb agg.Table
		for i, v := range valF {
			if lo <= v && v <= hi {
				c := tb.At(raw[i])
				c.Sum += v
				c.Count++
			}
		}
		return tb.Drain(nil)
	}
	scans := []struct {
		keys []Piece
		raw  []int64
		p    Pred
	}{
		{keys, keyRaw, Between(0, 150)},
		{far, farRaw, Gt(250)},
		{keys, keyRaw, Lt(120)},
		{far, farRaw, Between(90, 310)},
	}
	for _, cfg := range []Config{Single(), MultiN(3), Morsel()} {
		first := make([][]GroupResult, len(scans))
		for round := 0; round < 3; round++ {
			for i, sc := range scans {
				got, err := GroupSumFloat64Where(cfg, sc.keys, vals, sc.p)
				if err != nil {
					t.Fatal(err)
				}
				want := reference(sc.raw, sc.p)
				if len(got) != len(want) {
					t.Fatalf("%v scan %d round %d: %d groups, want %d", cfg.Policy, i, round, len(got), len(want))
				}
				for j := range got {
					if got[j].Key != want[j].Key || got[j].Count != want[j].Count || math.Abs(got[j].Sum-want[j].Sum) > 1e-6 {
						t.Fatalf("%v scan %d round %d: group %+v, want %+v", cfg.Policy, i, round, got[j], want[j])
					}
				}
				if cfg.Policy == SingleThreaded && !sameGroups(got, want) {
					t.Fatalf("scan %d round %d: %+v, fresh table %+v", i, round, got, want)
				}
				if round == 0 {
					first[i] = got
				} else if !sameGroups(got, first[i]) {
					t.Fatalf("%v scan %d round %d: %+v, first round %+v", cfg.Policy, i, round, got, first[i])
				}
			}
		}
	}

	// Raw values under a compressed key piece holding half their keys:
	// the fold fails after the raw pairs before it filled their table.
	short, err := compress.CompressAs(compress.Raw, encodeI64(farRaw[:fragRows/2]), fragRows/2, 8)
	if err != nil {
		t.Fatal(err)
	}
	bad := slices.Clone(far)
	bad[nf-1].Comp = short
	p := Between(0, 1e9)
	if _, err := GroupSumFloat64Where(Single(), bad, vals, p); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("scan over a short compressed key: err = %v, want ErrBadColumn", err)
	}
	got, err := GroupSumFloat64Where(Single(), keys, vals, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := reference(keyRaw, p); !sameGroups(got, want) {
		t.Fatalf("after a failed fold: %+v, want %+v", got, want)
	}
}
