package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridstore/internal/compress"
	"hybridstore/internal/device"
	"hybridstore/internal/layout"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/stats"
)

// shipped marks every piece of a column Shipped, the way a store with a
// device cache hands its cold chunks to the card.
func shipped(pieces []Piece) []Piece {
	out := append([]Piece(nil), pieces...)
	for i := range out {
		out[i].Place = Shipped
	}
	return out
}

// TestDeviceScanLaunchesOncePerColumn counts the launches of a scan over
// a column of 32 shipped pieces the zones cut to 8: a sum_where is the
// reduction's two launches (three when a surviving segment is
// compressed) and a group_sum_where the group kernel's one, a cohort of
// three predicates launches what one of them alone does, and the group
// tables that cross the bus are never more than a launch per piece
// would ship.
func TestDeviceScanLaunchesOncePerColumn(t *testing.T) {
	const nf, fragRows, survivors = 32, 256, 8
	keys, raw, _, _ := groupScanFixture(nf, fragRows)
	raw = shipped(raw)
	p := Between(500, 1299) // fragments 5-12
	cohort := []Pred{Between(500, 899), Between(600, 1299), Between(700, 750)}
	for _, c := range []struct {
		name    string
		vals    []Piece
		kernels int64
	}{{"raw", raw, 2}, {"compressed", sealComp(t, compress.Dict, raw, 3), 3}} {
		gpu := device.New(perfmodel.DefaultDevice(), &perfmodel.Clock{})
		card := DeviceScan{GPU: gpu, Cache: device.NewFragCache(gpu), Table: c.name}
		launches := func(sc Scan, nk int) (kernels, d2h int64) {
			t.Helper()
			before := gpu.Stats()
			if err := card.Scan(sc, make([]Result, nk)); err != nil {
				t.Fatal(err)
			}
			after := gpu.Stats()
			return after.KernelLaunches - before.KernelLaunches, after.DeviceToHostBytes - before.DeviceToHostBytes
		}
		for _, op := range []Kind{KindSumWhere, KindGroupSumWhere} {
			sc := Scan{Plan: Plan{Op: op, KeyCol: 0, Col: 1, Pred: p}.Normalize(), Vals: c.vals}
			want := c.kernels
			if op.Grouped() {
				sc.Keys, want = keys, 1
			}
			kernels, d2h := launches(sc, 1)
			if kernels != want {
				t.Errorf("%s %s: %d launches, want %d", c.name, op, kernels, want)
			}
			// The same scan as one launch per surviving piece.
			var perPiece, pieces int64
			for i := range sc.Vals {
				k, b := launches(sc.Slice(i, i+1), 1)
				perPiece += b
				if k > 0 {
					pieces++
				}
			}
			if pieces != survivors {
				t.Errorf("%s %s: the zones left %d pieces, want %d", c.name, op, pieces, survivors)
			}
			if d2h > perPiece {
				t.Errorf("%s %s: %d D2H bytes, %d one piece at a time", c.name, op, d2h, perPiece)
			}
			sc.Preds = cohort
			if kernels, _ := launches(sc, len(cohort)); kernels != want {
				t.Errorf("%s %s: a cohort of %d made %d launches, a solo scan %d", c.name, op, len(cohort), kernels, want)
			}
		}
	}
}

// TestQuickSegmentedScanMatchesPieceFolds runs random cohorts over
// random columns — raw and compressed pieces, empty ones, −0 and ±Inf
// among the values — on one cached card, and checks every result bit
// for bit against the host folds of each piece on its own added up in
// piece order: what one launch per piece computed.
func TestQuickSegmentedScanMatchesPieceFolds(t *testing.T) {
	special := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	f := func(seed int64, grouped bool) bool {
		r := rand.New(rand.NewSource(seed))
		var keys, vals []Piece
		row := 0
		for f := 0; f < 1+r.Intn(12); f++ {
			n := r.Intn(200)
			if r.Intn(6) == 0 {
				n = 0
			}
			vf, kf := make([]float64, n), make([]int64, n)
			z := stats.NewZone()
			base := float64(r.Intn(8) * 10)
			for i := range vf {
				vf[i] = base + r.Float64()*20 // full mantissas: any other fold order shows in the bits
				if r.Intn(12) == 0 {
					vf[i] = special[r.Intn(len(special))]
				}
				kf[i] = int64(r.Intn(6))
				z.ObserveFloat64(vf[i])
			}
			rr := layout.RowRange{Begin: uint64(row), End: uint64(row + n)}
			row += n
			keys = append(keys, Piece{Rows: rr, Vec: layout.ColVector{Data: encodeI64(kf), Stride: 8, Size: 8, Len: n}, FragID: uint64(f + 1), FragVersion: 1})
			vp := Piece{Rows: rr, Vec: layout.ColVector{Data: encodeF64(vf), Stride: 8, Size: 8, Len: n}, Zone: z, FragID: uint64(f + 1), FragVersion: 1, Place: Shipped}
			if n > 0 && r.Intn(2) == 0 {
				vp = sealComp(t, []compress.Encoding{compress.Raw, compress.Dict}[r.Intn(2)], []Piece{vp}, 1)[0]
			}
			vals = append(vals, vp)
		}
		preds := make([]Pred, 1+r.Intn(3))
		for k := range preds {
			lo := r.Float64()*90 - 5
			preds[k] = Between(lo, lo+r.Float64()*40)
		}
		sc := Scan{Plan: Plan{Op: KindSumWhere, KeyCol: 0, Col: 1}, Preds: preds, Vals: vals}
		if grouped {
			sc.Op, sc.Keys = KindGroupSumWhere, keys
		}
		// What one launch per piece computes, folded in piece order.
		want := make([]Result, len(preds))
		for k, p := range preds {
			var tables [][]GroupResult
			for i := range vals {
				part, err := solo(Single(), Scan{Plan: Plan{Op: sc.Op, KeyCol: 0, Col: 1, Pred: p}.Normalize(), Keys: sc.Slice(i, i+1).Keys, Vals: vals[i : i+1]})
				if err != nil {
					t.Fatal(err)
				}
				want[k].Sum += part.Sum
				want[k].Count += part.Count
				tables = append(tables, part.Groups)
			}
			if grouped {
				want[k].Groups = mergeGroupResults(tables...)
			}
		}
		gpu := device.New(perfmodel.DefaultDevice(), &perfmodel.Clock{})
		card := DeviceScan{GPU: gpu, Cache: device.NewFragCache(gpu), Table: "quick"}
		got := make([]Result, len(preds))
		if err := card.Scan(sc, got); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if !sameResultBits(got[k], want[k]) {
				t.Logf("seed %d grouped=%v pred %v: %+v, want %+v", seed, grouped, preds[k], got[k], want[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDeviceScan is the device leg's wall cost on a warm cache:
// 128 shipped pieces of 1024 rows, zones leaving about 30 % of them, as
// one solo scan and as a cohort of three; and the narrow case, whose
// predicates reach into two pieces each and there skip the 64-row blocks
// their values miss.
func BenchmarkDeviceScan(b *testing.B) {
	const nf, fragRows = 128, 1024
	keys, vals, _, _ := groupScanFixture(nf, fragRows)
	vals = shipped(vals)
	gpu := device.New(perfmodel.DefaultDevice(), &perfmodel.Clock{})
	card := DeviceScan{GPU: gpu, Cache: device.NewFragCache(gpu), Table: "bench"}
	// Fragment f holds [100f, 100f+100): each wide predicate covers 38 of
	// them whole, each narrow one straddles fragments 10q and 10q+1.
	widths := []struct {
		name  string
		preds []Pred
	}{
		{"", []Pred{Between(4000, 7799), Between(4100, 7899), Between(4200, 7999)}},
		{"narrow/", []Pred{Between(4095, 4104), Between(5095, 5104), Between(6095, 6104)}},
	}
	for _, op := range []Kind{KindSumWhere, KindGroupSumWhere} {
		for _, w := range widths {
			for _, nk := range []int{1, 3} {
				benchDeviceScan(b, card, fmt.Sprintf("%s/%sK=%d", op, w.name, nk),
					Scan{Plan: Plan{Op: op, KeyCol: 0, Col: 1}.Normalize(), Preds: w.preds[:nk], Vals: vals, Keys: keys})
			}
		}
	}
}

// benchDeviceScan warms the card's cache with one scan, then times the
// scan as the named sub-benchmark.
func benchDeviceScan(b *testing.B, card DeviceScan, name string, sc Scan) {
	if !sc.Op.Grouped() {
		sc.Keys = nil
	}
	out := make([]Result, len(sc.Preds))
	if err := card.Scan(sc, out); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := card.Scan(sc, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
