package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hybridstore/internal/exec"
)

// cell is one row's side of a patch as the scan body folded it before
// the patch was handed out as columns: a group key and a value.
type cell struct {
	key int64
	val float64
}

// rowPatch is the scan body's patch fold before the columnar one, kept
// as the oracle: rows outer, plans inner, one predicate call per side of
// a row, and group lookups on the binary-search reference.
func rowPatch(live []member, rows [][2]cell) {
	match := func(m *member, x float64) bool { return !m.HasPred || m.lo <= x && x <= m.hi }
	shape := live[0].Plan
	switch {
	case shape.Op.Grouped():
		gps := make([]*binaryGroupPatch, len(live))
		for j := range live {
			gps[j] = &binaryGroupPatch{groups: live[j].res.Groups}
		}
		for _, r := range rows {
			base, cur := r[0], r[1]
			for j := range live {
				if match(&live[j], base.val) {
					if gr := gps[j].group(base.key, false); gr != nil {
						gr.Sum -= base.val
						gr.Count--
					}
				}
				if match(&live[j], cur.val) {
					gr := gps[j].group(cur.key, true)
					gr.Sum += cur.val
					gr.Count++
				}
			}
		}
		for j, m := range live {
			out := slices.DeleteFunc(append(gps[j].groups, gps[j].added...), func(gr exec.GroupResult) bool { return gr.Count <= 0 })
			exec.SortGroupResults(out)
			m.res.Groups = out
		}
	case shape.HasPred:
		for _, r := range rows {
			base, cur := r[0], r[1]
			for j := range live {
				m := &live[j]
				if match(m, base.val) {
					m.res.Sum -= base.val
					m.res.Count--
				}
				if match(m, cur.val) {
					m.res.Sum += cur.val
					m.res.Count++
				}
			}
		}
	default:
		res := live[0].res
		for _, r := range rows {
			res.Sum += r[1].val - r[0].val
		}
	}
}

// columnSource hands out one fixed patch, counting the calls.
type columnSource struct {
	pa    Patch
	calls int
}

func (c *columnSource) Patches(_ exec.Plan, fn func(Patch)) error {
	c.calls++
	fn(c.pa)
	return nil
}

// genPatch draws one random patch and the live plans that fold it. Its
// values are full-mantissa finite floats, ±0, ±Inf and NaN, in base and
// current alike; its NaN is the hardware's default NaN (Inf − Inf), the
// one an invalid operation such as Inf − Inf produces, so every NaN a
// fold meets has the same bits and no answer depends on which operand
// of an addition the compiler made the destination. Sums start at −0 or
// a random value; group tables hold keys 0..7 with holes, patch keys
// range over -2..10, so rows move between groups, enter groups the bulk
// never held, and empty bulk groups.
func genPatch(rng *rand.Rand) (live []member, rows [][2]cell) {
	inf := math.Inf(1)
	values := []float64{0, math.Copysign(0, -1), inf, -inf, inf - inf}
	value := func() float64 {
		if rng.Intn(4) == 0 {
			return values[rng.Intn(len(values))]
		}
		// A random sign and exponent in [2^-20, 2^20), every mantissa bit drawn.
		bits := rng.Uint64()&(1<<52-1) | uint64(1023-20+rng.Intn(40))<<52 | uint64(rng.Intn(2))<<63
		return math.Float64frombits(bits)
	}
	kinds := []exec.Kind{exec.KindSum, exec.KindSumWhere, exec.KindGroupSum, exec.KindGroupSumWhere}
	shape := exec.Plan{Op: kinds[rng.Intn(len(kinds))], Col: 1, KeyCol: 0}.Normalize()
	k := 1
	if shape.HasPred && rng.Intn(2) == 0 {
		k = 3 // an unfiltered cohort has one live plan: ScanCohort copies the rest
	}
	for len(live) < k {
		m := member{Plan: shape, res: &exec.Result{Sum: math.Copysign(0, -1)}}
		if shape.HasPred {
			ops := []exec.Op{exec.OpLT, exec.OpGT, exec.OpBetween, exec.OpEQ}
			m.Pred = exec.Pred{Op: ops[rng.Intn(len(ops))], Lo: value(), Hi: value()}
			if m.Pred.Op == exec.OpBetween && m.Pred.Lo > m.Pred.Hi {
				m.Pred.Lo, m.Pred.Hi = m.Pred.Hi, m.Pred.Lo
			}
			var ok bool
			if m.lo, m.hi, ok = m.Pred.Closed(); !ok {
				continue // ScanCohort answers it without a patch
			}
		}
		if rng.Intn(2) == 0 {
			m.res.Sum, m.res.Count = value(), rng.Int63n(100)
		}
		if shape.Op.Grouped() {
			for key := int64(0); key < 8; key++ {
				if rng.Intn(4) != 0 {
					sum := math.Copysign(0, -1)
					if rng.Intn(3) != 0 {
						sum = value()
					}
					m.res.Groups = append(m.res.Groups, exec.GroupResult{Key: key, Sum: sum, Count: 1 + rng.Int63n(2)})
				}
			}
		}
		live = append(live, m)
	}
	n := 0
	if rng.Intn(8) != 0 {
		n = 1 + rng.Intn(40)
	}
	for i := 0; i < n; i++ {
		rows = append(rows, [2]cell{{key: rng.Int63n(13) - 2, val: value()}, {key: rng.Int63n(13) - 2, val: value()}})
	}
	return live, rows
}

// cloneLive copies live plans with results of their own.
func cloneLive(live []member) []member {
	out := slices.Clone(live)
	for j := range out {
		res := *live[j].res
		res.Groups = slices.Clone(res.Groups)
		out[j].res = &res
	}
	return out
}

// The columnar fold has the per-row fold's bits: over random patches of
// every aggregate kind, cohorts of one and three plans, and the empty
// patch, every sum, count and group table agrees bit for bit, and the
// patch is asked for once.
func TestColumnarFoldMatchesRowFold(t *testing.T) {
	check := func(seed int64) bool {
		live, rows := genPatch(rand.New(rand.NewSource(seed)))
		want := cloneLive(live)
		rowPatch(want, rows)
		src := &columnSource{}
		for _, r := range rows {
			src.pa.Base, src.pa.Cur = append(src.pa.Base, r[0].val), append(src.pa.Cur, r[1].val)
			if live[0].Op.Grouped() {
				src.pa.BaseKey, src.pa.CurKey = append(src.pa.BaseKey, r[0].key), append(src.pa.CurKey, r[1].key)
			}
		}
		got := cloneLive(live)
		if err := patch(src, got); err != nil || src.calls != 1 {
			t.Logf("seed %d: %d Patches calls (%v), want 1", seed, src.calls, err)
			return false
		}
		for j := range got {
			if !sameBits(*got[j].res, *want[j].res) {
				t.Logf("seed %d, %s plan %d of %d, %d rows: columnar %+v, per-row %+v", seed, live[0].Op, j, len(live), len(rows), *got[j].res, *want[j].res)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
