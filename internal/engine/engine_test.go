package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridstore/internal/compress"
	"hybridstore/internal/device"
	"hybridstore/internal/exec"
	"hybridstore/internal/exec/pool"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/obs"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/stats"
	"hybridstore/internal/taxonomy"
)

func TestNewEnvWiresPlatform(t *testing.T) {
	env := NewEnv()
	if env.Host.Space() != mem.Host || env.Host.Capacity() != 0 {
		t.Error("host allocator misconfigured")
	}
	if env.Disk.Space() != mem.Secondary {
		t.Error("disk allocator misconfigured")
	}
	if env.GPU == nil || env.GPU.Allocator().Capacity() <= 0 {
		t.Error("GPU missing")
	}
	if env.Clock == nil {
		t.Error("clock missing")
	}
	if env.HostProfile.Threads != 8 {
		t.Error("host profile not the paper's")
	}
	// The GPU charges the shared clock.
	buf, err := env.GPU.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	if err := env.GPU.CopyToDevice(buf, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if env.Clock.ElapsedNs() <= 0 {
		t.Error("GPU does not charge the shared clock")
	}
}

// fakeEngine is a minimal Engine for Classify/Audit tests.
type fakeEngine struct{ caps taxonomy.Capabilities }

func (f *fakeEngine) Name() string                        { return "Fake" }
func (f *fakeEngine) Capabilities() taxonomy.Capabilities { return f.caps }
func (f *fakeEngine) Create(name string, s *schema.Schema) (Table, error) {
	return nil, ErrUnsupported
}

// fakeTable wraps a relation for snapshots.
type fakeTable struct{ rel *layout.Relation }

func (f *fakeTable) Schema() *schema.Schema { return f.rel.Schema() }
func (f *fakeTable) Rows() uint64           { return f.rel.Rows() }
func (f *fakeTable) Insert(schema.Record) (uint64, error) {
	return 0, ErrUnsupported
}
func (f *fakeTable) Get(uint64) (schema.Record, error)             { return nil, ErrNoSuchRow }
func (f *fakeTable) Update(uint64, int, schema.Value) error        { return ErrReadOnly }
func (f *fakeTable) Scan(exec.Plan) (exec.Result, error)           { return exec.Result{}, ErrUnsupported }
func (f *fakeTable) Materialize([]uint64) ([]schema.Record, error) { return nil, ErrUnsupported }
func (f *fakeTable) Snapshot() layout.Snapshot                     { return f.rel.Digest() }
func (f *fakeTable) Free()                                         {}

func TestClassifyAndAudit(t *testing.T) {
	s := schema.MustNew(schema.Int64Attr("a"), schema.Int64Attr("b"))
	rel := layout.NewRelation("r", s)
	l, err := layout.Horizontal(mem.NewAllocator(mem.Host, 0), "h", s, 10, 5, layout.NSM)
	if err != nil {
		t.Fatal(err)
	}
	rel.AddLayout(l)
	e := &fakeEngine{caps: taxonomy.Capabilities{Workloads: taxonomy.HTAP}}
	tbl := &fakeTable{rel: rel}

	c, err := Classify(e, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "Fake" || c.Flexibility != taxonomy.WeakFlexible {
		t.Fatalf("classification = %+v", c)
	}

	_, violations, err := Audit(e, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("violations = %v", violations)
	}
}

func TestAuditPropagatesClassifyError(t *testing.T) {
	s := schema.MustNew(schema.Int64Attr("a"))
	rel := layout.NewRelation("empty", s)
	e := &fakeEngine{}
	if _, _, err := Audit(e, &fakeTable{rel: rel}); err == nil {
		t.Fatal("empty snapshot classified")
	}
}

// fakeSource is a three-piece float64 column (values 1..12, keys row%2)
// whose pieces sit in the three placements, with one patch row; it
// counts how often the scan body asks it for either.
type fakeSource struct {
	s                      *schema.Schema
	patched                bool
	pieceCalls, patchCalls int
}

func (f *fakeSource) Schema() *schema.Schema { return f.s }

func (f *fakeSource) Pieces(p exec.Plan) (keys, vals []exec.Piece, err error) {
	f.pieceCalls++
	kImg, vImg := make([]byte, 12*8), make([]byte, 12*8)
	for i := 0; i < 12; i++ {
		binary.LittleEndian.PutUint64(kImg[i*8:], uint64(i%2))
		binary.LittleEndian.PutUint64(vImg[i*8:], math.Float64bits(float64(i+1)))
	}
	for i, place := range []exec.Place{exec.OnHost, exec.Shipped, exec.Resident} {
		rr := layout.RowRange{Begin: uint64(i * 4), End: uint64(i*4 + 4)}
		vals = append(vals, exec.Piece{Rows: rr, Place: place,
			Vec: layout.ColVector{Data: vImg, Base: i * 32, Stride: 8, Size: 8, Len: 4}})
		if p.Op.Grouped() {
			keys = append(keys, exec.Piece{Rows: rr, Place: place,
				Vec: layout.ColVector{Data: kImg, Base: i * 32, Stride: 8, Size: 8, Len: 4}})
		}
	}
	return keys, vals, nil
}

// Patches moves row 0 (key 0, value 1) to key 7, value 100.
func (f *fakeSource) Patches(p exec.Plan, fn func(Patch)) error {
	f.patchCalls++
	if f.patched {
		fn(Patch{Base: []float64{1}, Cur: []float64{100}, BaseKey: []int64{0}, CurKey: []int64{7}})
	}
	return nil
}

// recordingExec runs scans on the host operators and records what it
// was handed.
type recordingExec struct{ got []exec.Scan }

func (r *recordingExec) Scan(sc exec.Scan, out []exec.Result) error {
	r.got = append(r.got, sc)
	return exec.Single().Scan(sc, out)
}

// TestScanRoutesValidatesAndPatches pins the shared scan body: the
// plan's columns are validated before the source is asked for anything,
// host pieces run on the host configuration, shipped and resident ones on
// the device executor (none at all under an empty predicate, which
// matches nothing), the two results combine, and patch rows apply per
// kind.
func TestScanRoutesValidatesAndPatches(t *testing.T) {
	s := schema.MustNew(schema.Int64Attr("k"), schema.Float64Attr("v"))
	src := &fakeSource{s: s}
	run := func(p exec.Plan) (exec.Result, *recordingExec) {
		t.Helper()
		dev := &recordingExec{}
		res, err := Scan(src, exec.Single(), dev, p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		return res, dev
	}

	res, dev := run(exec.Plan{Op: exec.KindSum, Col: 1})
	if res.Sum != 78 || len(dev.got) != 1 || len(dev.got[0].Vals) != 2 {
		t.Fatalf("sum = %v over %d device calls", res.Sum, len(dev.got))
	}
	res, _ = run(exec.Plan{Op: exec.KindSumWhere, Col: 1, Pred: exec.Between(4.0, 9.0)})
	if res.Sum != 39 || res.Count != 6 {
		t.Fatalf("sum_where = (%v, %d), want (39, 6)", res.Sum, res.Count)
	}
	// An empty interval has no kernel form and matches nothing: the zero
	// result, no piece reached.
	res, dev = run(exec.Plan{Op: exec.KindSumWhere, Col: 1, Pred: exec.Between(2.0, 1.0)})
	if res.Sum != 0 || res.Count != 0 || len(dev.got) != 0 {
		t.Fatalf("empty predicate = (%v, %d) over %d device calls", res.Sum, res.Count, len(dev.got))
	}
	res, _ = run(exec.Plan{Op: exec.KindGroupSumWhere, KeyCol: 0, Col: 1, Pred: exec.Between(1.0, 12.0)})
	if len(res.Groups) != 2 || res.Groups[0] != (exec.GroupResult{Key: 0, Sum: 36, Count: 6}) ||
		res.Groups[1] != (exec.GroupResult{Key: 1, Sum: 42, Count: 6}) {
		t.Fatalf("groups = %+v", res.Groups)
	}

	src.patched = true
	if res, _ = run(exec.Plan{Op: exec.KindSum, Col: 1}); res.Sum != 78+99 {
		t.Fatalf("patched sum = %v, want %v", res.Sum, 78+99)
	}
	res, _ = run(exec.Plan{Op: exec.KindSumWhere, Col: 1, Pred: exec.Lt(50.0)})
	if res.Sum != 77 || res.Count != 11 {
		t.Fatalf("patched sum_where = (%v, %d), want (77, 11)", res.Sum, res.Count)
	}
	res, _ = run(exec.Plan{Op: exec.KindGroupSumWhere, KeyCol: 0, Col: 1, Pred: exec.Gt(0.0)})
	if len(res.Groups) != 3 || res.Groups[0] != (exec.GroupResult{Key: 0, Sum: 35, Count: 5}) ||
		res.Groups[2] != (exec.GroupResult{Key: 7, Sum: 100, Count: 1}) {
		t.Fatalf("patched groups = %+v", res.Groups)
	}

	for _, bad := range []struct {
		p    exec.Plan
		want error
	}{
		{exec.Plan{Op: exec.KindSum, Col: 0}, exec.ErrBadColumn},
		{exec.Plan{Op: exec.KindSum, Col: 2}, layout.ErrOutOfRange},
		{exec.Plan{Op: exec.KindGroupSum, KeyCol: 1, Col: 1}, exec.ErrBadColumn},
		{exec.Plan{Op: exec.KindGet}, exec.ErrBadPlan},
		{exec.Plan{Op: "avg", Col: 1}, exec.ErrBadPlan},
	} {
		if _, err := Scan(src, exec.Single(), nil, bad.p); !errors.Is(err, bad.want) {
			t.Errorf("%+v: err = %v, want %v", bad.p, err, bad.want)
		}
	}
	if _, err := Scan(src, exec.Single(), nil, exec.Plan{Op: exec.KindSum, Col: 1}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("device pieces without an executor: err = %v, want ErrUnsupported", err)
	}
}

// sameBits compares two results bit for bit.
// scanCohort runs ScanCohort into fresh result slots.
func scanCohort(src Source, host exec.Config, dev exec.ScanExecutor, plans []exec.Plan, bases Bases) ([]exec.Result, error) {
	out := make([]exec.Result, len(plans))
	if err := ScanCohort(src, host, dev, plans, bases, out); err != nil {
		return nil, err
	}
	return out, nil
}

func sameBits(a, b exec.Result) bool {
	if math.Float64bits(a.Sum) != math.Float64bits(b.Sum) || a.Count != b.Count || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i, g := range a.Groups {
		if h := b.Groups[i]; g.Key != h.Key || g.Count != h.Count || math.Float64bits(g.Sum) != math.Float64bits(h.Sum) {
			return false
		}
	}
	return true
}

// TestScanCohortMatchesSolo pins the cohort body: for every kind and
// K ∈ {1, 2, 5} plans mixing matchable, unmatchable and duplicate
// predicates over host, shipped and resident pieces, with and without a
// patch row, result k is bit-identical to a solo Scan of plan k, and the
// source is asked for its pieces and its patch rows exactly once per
// cohort — not at all when no plan can match.
func TestScanCohortMatchesSolo(t *testing.T) {
	s := schema.MustNew(schema.Int64Attr("k"), schema.Float64Attr("v"))
	nan, inf := math.NaN(), math.Inf(1)
	cohorts := [][]exec.Pred{
		{exec.Between(4.0, 9.0)},
		{exec.Between(2.0, 1.0)},
		{exec.Lt(-inf), exec.Gt(0.5)},
		{exec.Between(2.0, 1.0), exec.Gt(inf)},
		{exec.Between(4.0, 9.0), exec.Between(2.0, 1.0), exec.Lt(50.0), exec.Between(nan, 3.0), exec.Between(4.0, 9.0)},
		{exec.Lt(-inf), exec.Between(1.0, nan), exec.Between(9.0, 4.0), exec.Gt(inf), exec.Pred{Op: 99, Lo: 1, Hi: 2}},
	}
	for _, op := range []exec.Kind{exec.KindSum, exec.KindSumWhere, exec.KindGroupSum, exec.KindGroupSumWhere} {
		for _, preds := range cohorts {
			for _, patched := range []bool{false, true} {
				plans := make([]exec.Plan, len(preds))
				live := 0
				for k, pred := range preds {
					plans[k] = exec.Plan{Op: op, KeyCol: 0, Col: 1, Pred: pred}
					if plans[k].Normalize().DeviceOK() || !op.Filtered() {
						live = 1
					}
				}
				src := &fakeSource{s: s, patched: patched}
				got, err := scanCohort(src, exec.Single(), &recordingExec{}, plans, nil)
				if err != nil || len(got) != len(plans) {
					t.Fatalf("%s %v: %d results, %v", op, preds, len(got), err)
				}
				if src.pieceCalls != live || src.patchCalls != live {
					t.Errorf("%s %v: %d Pieces and %d Patches calls, want %d each", op, preds, src.pieceCalls, src.patchCalls, live)
				}
				for k, p := range plans {
					solo, err := Scan(&fakeSource{s: s, patched: patched}, exec.Single(), &recordingExec{}, p)
					if err != nil {
						t.Fatalf("solo %+v: %v", p, err)
					}
					if !sameBits(got[k], solo) {
						t.Errorf("%s %v patched=%v: result %d = %+v, solo = %+v", op, preds, patched, k, got[k], solo)
					}
					if k > 0 && len(got[k].Groups) > 0 && len(got[0].Groups) > 0 && &got[k].Groups[0] == &got[0].Groups[0] {
						t.Errorf("%s: results %d and 0 share one group table", op, k)
					}
				}
			}
		}
	}

	src := &fakeSource{s: s}
	for _, bad := range [][]exec.Plan{
		{{Op: exec.KindSum, Col: 1}, {Op: exec.KindSumWhere, Col: 1, Pred: exec.Lt(3.0)}},
		{{Op: exec.KindGroupSum, KeyCol: 0, Col: 1}, {Op: exec.KindSum, Col: 1}},
		{{Op: exec.KindGet, Row: 1}},
		{{Op: exec.KindGet, Row: 1}, {Op: exec.KindGet, Row: 2}},
	} {
		if _, err := scanCohort(src, exec.Single(), &recordingExec{}, bad, nil); !errors.Is(err, exec.ErrBadPlan) {
			t.Errorf("%+v: err = %v, want ErrBadPlan", bad, err)
		}
	}
	if src.pieceCalls != 0 {
		t.Errorf("a refused cohort reached the pieces %d times", src.pieceCalls)
	}
	if res, err := scanCohort(src, exec.Single(), nil, nil, nil); err != nil || len(res) != 0 {
		t.Errorf("empty cohort = %v, %v", res, err)
	}

	// Host pieces alternating raw and dictionary-coded random prices,
	// under every host policy: each plan folds them as its solo scan
	// does, so result k has the solo bits; single-threaded, both fold
	// in piece order, so each answer is also the one the same pieces
	// give all raw. Morsels of 128 rows on four workers split the
	// pieces even on a one-CPU machine.
	pool.SetMorselSize(128)
	pool.SetWorkers(4)
	defer func() { pool.SetMorselSize(0); pool.SetWorkers(0) }()
	for _, cfg := range []exec.Config{exec.Single(), exec.MultiN(4), exec.Morsel()} {
		for seed := int64(1); seed <= 20; seed++ {
			for _, op := range []exec.Kind{exec.KindSum, exec.KindSumWhere} {
				plans := []exec.Plan{
					{Op: op, Col: 1, Pred: exec.Between(10.0, 60.0)},
					{Op: op, Col: 1, Pred: exec.Gt(0.5)},
					{Op: op, Col: 1, Pred: exec.Lt(90.0)},
				}
				mixed, plain := &mixedSource{s: s, seed: seed, encode: true}, &mixedSource{s: s, seed: seed}
				got, err := scanCohort(mixed, cfg, nil, plans, nil)
				if err != nil {
					t.Fatal(err)
				}
				for k, p := range plans {
					solo, err := Scan(mixed, cfg, nil, p)
					if err != nil {
						t.Fatal(err)
					}
					raw, err := Scan(plain, cfg, nil, p)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got[k], solo) || cfg.Policy == exec.SingleThreaded && !sameBits(solo, raw) {
						t.Errorf("%v seed %d %s %v: shared %x, solo %x, all raw %x", cfg.Policy, seed, op, p.Pred,
							math.Float64bits(got[k].Sum), math.Float64bits(solo.Sum), math.Float64bits(raw.Sum))
					}
				}
			}
		}
	}
}

// mixedSource is a float64 column of six 256-row host pieces of seeded
// random prices: even pieces hold any value, odd pieces draw from 100,
// and with encode the odd pieces carry their dictionary-coded image —
// the mix of raw and encoded chunks a compressed store's cold region
// holds.
type mixedSource struct {
	s      *schema.Schema
	seed   int64
	encode bool
}

func (m *mixedSource) Schema() *schema.Schema { return m.s }

func (m *mixedSource) Pieces(p exec.Plan) (keys, vals []exec.Piece, err error) {
	const pieces, rows = 6, 256
	r := rand.New(rand.NewSource(m.seed))
	dict := make([]float64, 100)
	for i := range dict {
		dict[i] = r.Float64() * 100
	}
	img := make([]byte, pieces*rows*8)
	for i := 0; i < pieces*rows; i++ {
		v := r.Float64() * 100
		if i/rows%2 == 1 {
			v = dict[r.Intn(len(dict))]
		}
		binary.LittleEndian.PutUint64(img[i*8:], math.Float64bits(v))
	}
	for i := 0; i < pieces; i++ {
		pc := exec.Piece{Rows: layout.RowRange{Begin: uint64(i * rows), End: uint64((i + 1) * rows)},
			Vec: layout.ColVector{Data: img, Base: i * rows * 8, Stride: 8, Size: 8, Len: rows}}
		if m.encode && i%2 == 1 {
			if pc.Comp, err = compress.Compress(img[pc.Vec.Base:pc.Vec.Base+rows*8], rows, 8); err != nil {
				return nil, nil, err
			}
			if pc.Comp.Encoding() != compress.Dict {
				return nil, nil, fmt.Errorf("piece %d encodes as %v", i, pc.Comp.Encoding())
			}
			pc.Vec.Data, pc.Vec.Base = nil, 0
		}
		vals = append(vals, pc)
	}
	return nil, vals, nil
}

// mapBases is a Bases over a map, keyed by the normalized plan.
type mapBases map[exec.Plan]exec.Result

func (b mapBases) Base(p exec.Plan) (exec.Result, bool) {
	r, ok := b[p]
	r.Groups = slices.Clone(r.Groups)
	return r, ok
}

func (b mapBases) Settled(p exec.Plan, base exec.Result) {
	base.Groups = slices.Clone(base.Groups)
	b[p] = base
}

// A cohort settles the bases it computes before patching them, and a
// later cohort over known bases reaches no piece yet still walks the
// patch once: every answer, known base or fresh, is the solo one, bit
// for bit, patched or not, and every base stored is the unpatched one.
func TestScanCohortReplaysPatchOverKnownBases(t *testing.T) {
	s := schema.MustNew(schema.Int64Attr("k"), schema.Float64Attr("v"))
	for _, op := range []exec.Kind{exec.KindSum, exec.KindSumWhere, exec.KindGroupSum, exec.KindGroupSumWhere} {
		plan := func(pred exec.Pred) exec.Plan { return exec.Plan{Op: op, KeyCol: 0, Col: 1, Pred: pred} }
		warm := []exec.Plan{plan(exec.Gt(0.5)), plan(exec.Between(4.0, 9.0))}
		mixed := append([]exec.Plan{plan(exec.Lt(50.0))}, warm...)
		bases := mapBases{}
		for i, plans := range [][]exec.Plan{warm, warm, mixed} {
			patched := i > 0
			src := &fakeSource{s: s, patched: patched}
			got, err := scanCohort(src, exec.Single(), &recordingExec{}, plans, bases)
			if err != nil {
				t.Fatal(err)
			}
			// Only the first cohort and the filtered mixed one hold a plan
			// with no known base (unfiltered plans are one plan).
			wantPieces := 0
			if i == 0 || i == 2 && op.Filtered() {
				wantPieces = 1
			}
			if src.pieceCalls != wantPieces || src.patchCalls != 1 {
				t.Errorf("%s cohort %d: %d Pieces and %d Patches calls, want %d and 1", op, i, src.pieceCalls, src.patchCalls, wantPieces)
			}
			for k, p := range plans {
				solo, err := Scan(&fakeSource{s: s, patched: patched}, exec.Single(), &recordingExec{}, p)
				if err != nil || !sameBits(got[k], solo) {
					t.Errorf("%s cohort %d plan %d: %+v, solo %+v (%v)", op, i, k, got[k], solo, err)
				}
			}
		}
		// What the store holds is each plan's unpatched answer, whether
		// its cohort had a patch row or not.
		for _, p := range mixed {
			solo, _ := Scan(&fakeSource{s: s}, exec.Single(), &recordingExec{}, p)
			if base, ok := bases.Base(p.Normalize()); !ok || !sameBits(base, solo) {
				t.Errorf("%s: settled base %+v, %v; want the unpatched answer %+v", op, base, ok, solo)
			}
		}
	}
}

// fullCard is a device executor whose card has no room for an image:
// scans that have to ship a piece fail the way a refused allocation
// does, scans over resident pieces alone run.
type fullCard struct {
	recordingExec
	err error
}

func (c *fullCard) Scan(sc exec.Scan, out []exec.Result) error {
	for _, vp := range sc.Vals {
		if vp.Place == exec.Shipped {
			c.got = append(c.got, sc)
			return c.err
		}
	}
	return c.recordingExec.Scan(sc, out)
}

// TestScanDeviceOutOfMemoryFallsBack pins the capacity rule: a device leg
// that runs out of device memory does not fail the plan — the shipped
// pieces scan on the host, the resident ones still launch, the answer is
// the all-device one — while any other device error propagates.
func TestScanDeviceOutOfMemoryFallsBack(t *testing.T) {
	s := schema.MustNew(schema.Int64Attr("k"), schema.Float64Attr("v"))
	for _, p := range []exec.Plan{
		{Op: exec.KindSum, Col: 1},
		{Op: exec.KindSumWhere, Col: 1, Pred: exec.Between(4.0, 11.0)},
		{Op: exec.KindGroupSumWhere, KeyCol: 0, Col: 1, Pred: exec.Gt(2.0)},
	} {
		want, err := Scan(&fakeSource{s: s, patched: true}, exec.Single(), &recordingExec{}, p)
		if err != nil {
			t.Fatal(err)
		}
		card := &fullCard{err: fmt.Errorf("uploading: %w", mem.ErrOutOfMemory)}
		got, err := Scan(&fakeSource{s: s, patched: true}, exec.Single(), card, p)
		if err != nil || !sameBits(got, want) {
			t.Errorf("%s on a full card = %+v, %v; want %+v", p.Op, got, err, want)
		}
		if len(card.got) != 2 || len(card.got[1].Vals) != 1 || card.got[1].Vals[0].Place != exec.Resident {
			t.Errorf("%s: device calls %+v, want the refused leg, then the resident piece alone", p.Op, card.got)
		}
		boom := errors.New("boom")
		if _, err := Scan(&fakeSource{s: s}, exec.Single(), &fullCard{err: boom}, p); !errors.Is(err, boom) {
			t.Errorf("%s: err = %v, want the device's own error", p.Op, err)
		}
	}
}

// A card too small for the one shipped piece refuses the device leg of
// a cohort before accounting anything: the resident piece launches once
// per admitting predicate (not once more for the refused leg), the
// shipped piece joins the host leg, and every zone decision is counted
// once — as many as the same pieces all on the host count — with the
// host-only answers.
func TestDeviceFallbackAccountsOnce(t *testing.T) {
	vImg := make([]byte, 12*8)
	for i := 0; i < 12; i++ {
		binary.LittleEndian.PutUint64(vImg[i*8:], math.Float64bits(float64(i)+0.1))
	}
	pieces := func(places ...exec.Place) *listSource {
		src := &listSource{s: schema.MustNew(schema.Int64Attr("k"), schema.Float64Attr("v"))}
		for i, place := range places {
			z := stats.NewZone()
			for r := i * 4; r < i*4+4; r++ {
				z.ObserveFloat64(float64(r) + 0.1)
			}
			src.vals = append(src.vals, exec.Piece{Rows: layout.RowRange{Begin: uint64(i * 4), End: uint64(i*4 + 4)},
				Place: place, Zone: z, Vec: layout.ColVector{Data: vImg, Base: i * 32, Stride: 8, Size: 8, Len: 4}})
		}
		return src
	}
	prof := perfmodel.DefaultDevice()
	prof.GlobalMemory = 16 // smaller than the shipped piece's 32 bytes
	for _, preds := range [][]exec.Pred{{exec.Lt(20.0)}, {exec.Lt(20.0), exec.Gt(1.0), exec.Lt(2.0)}} {
		plans := make([]exec.Plan, len(preds))
		for k, p := range preds {
			plans[k] = exec.Plan{Op: exec.KindSumWhere, Col: 1, Pred: p}
		}
		gpu := device.New(prof, nil)
		z0 := obs.TakeSnapshot()
		got, err := scanCohort(pieces(exec.Resident, exec.Shipped, exec.OnHost), exec.Single(), exec.DeviceScan{GPU: gpu}, plans, nil)
		if err != nil {
			t.Fatal(err)
		}
		z1 := obs.TakeSnapshot()
		want, err := scanCohort(pieces(exec.OnHost, exec.OnHost, exec.OnHost), exec.Single(), nil, plans, nil)
		if err != nil {
			t.Fatal(err)
		}
		z2 := obs.TakeSnapshot()
		// The resident piece alone, on a card with room.
		alone := device.New(perfmodel.DefaultDevice(), nil)
		if _, err := scanCohort(pieces(exec.Resident), exec.Single(), exec.DeviceScan{GPU: alone}, plans, nil); err != nil {
			t.Fatal(err)
		}
		if n, once := gpu.Stats().KernelLaunches, alone.Stats().KernelLaunches; n != once || n == 0 {
			t.Errorf("K=%d: %d kernels, want the resident piece's %d once", len(preds), n, once)
		}
		for _, c := range []string{"exec.zonemap.scanned", "exec.zonemap.pruned"} {
			if d, h := z1.Counter(c)-z0.Counter(c), z2.Counter(c)-z1.Counter(c); d != h {
				t.Errorf("K=%d %s: %d with a refused device leg, %d on the host alone", len(preds), c, d, h)
			}
		}
		for k := range plans {
			if got[k].Count != want[k].Count || math.Abs(got[k].Sum-want[k].Sum) > 1e-9 {
				t.Errorf("K=%d plan %d: %+v, host alone %+v", len(preds), k, got[k], want[k])
			}
		}
	}
}

// binaryGroupPatch is GroupPatch's lookup before the dense-key probe:
// a binary search of the bulk table, then of the side list. It is the
// reference the probe is held to.
type binaryGroupPatch struct{ groups, added []exec.GroupResult }

func (g *binaryGroupPatch) group(key int64, add bool) *exec.GroupResult {
	byKey := func(gr exec.GroupResult, k int64) int {
		switch {
		case gr.Key < k:
			return -1
		case gr.Key > k:
			return 1
		}
		return 0
	}
	if i, ok := slices.BinarySearchFunc(g.groups, key, byKey); ok {
		return &g.groups[i]
	}
	i, ok := slices.BinarySearchFunc(g.added, key, byKey)
	if !ok {
		if !add {
			return nil
		}
		g.added = slices.Insert(g.added, i, exec.GroupResult{Key: key})
	}
	return &g.added[i]
}

// The dense-key probe finds the group a binary search finds, so every
// group receives the same float sequence: over dense, sparse, negative
// and extreme bulk key sets, with patch keys inside and outside the
// bulk's span, in its holes, and never held by it, the patched tables
// are equal bit for bit.
func TestGroupPatchDenseProbeMatchesBinarySearch(t *testing.T) {
	dense := func(lo, n int64) (keys []int64) {
		for k := lo; k < lo+n; k++ {
			keys = append(keys, k)
		}
		return keys
	}
	bulkSets := map[string][]int64{
		"dense 0..63":   dense(0, 64),
		"negative":      dense(-32, 64),
		"sparse":        {-3000, -1000, 0, 1000, 2000, 5000},
		"holes":         {0, 1, 2, 4, 5, 7, 8, 9},
		"extremes":      {math.MinInt64, -1, 0, 1, math.MaxInt64},
		"min only":      {math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 2},
		"max only":      {math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64},
		"single":        {7},
		"empty":         nil,
		"wide dense":    dense(math.MaxInt64-63, 64),
		"straddle zero": dense(-2, 5),
	}
	probes := []int64{math.MinInt64, math.MinInt64 + 1, -3001, -1000, -33, -32, -1, 0, 1, 3, 6, 7, 10, 31, 32,
		63, 64, 999, 1000, 4999, math.MaxInt64 - 64, math.MaxInt64 - 1, math.MaxInt64}
	lo, hi := 0.3, math.Inf(1)
	match := func(x float64) bool { return lo <= x && x <= hi }
	for name, keys := range bulkSets {
		bulk := make([]exec.GroupResult, len(keys))
		for i, k := range keys {
			bulk[i] = exec.GroupResult{Key: k, Sum: float64(i) + 0.5, Count: 2}
		}
		got := NewGroupPatch(slices.Clone(bulk), true, lo, hi)
		want := &binaryGroupPatch{groups: slices.Clone(bulk)}
		all := append(slices.Clone(keys), probes...)
		var pa Patch
		for i := 0; i < 4000; i++ {
			pa.Base, pa.BaseKey = append(pa.Base, float64(i%13)/4), append(pa.BaseKey, all[(i*7)%len(all)])
			pa.Cur, pa.CurKey = append(pa.Cur, float64(i%17)/3), append(pa.CurKey, all[(i*11+3)%len(all)])
		}
		got.Fold(pa)
		// Fold's rows one at a time, on the reference lookup.
		for i, b := range pa.Base {
			if match(b) {
				if gr := want.group(pa.BaseKey[i], false); gr != nil {
					gr.Sum -= b
					gr.Count--
				}
			}
			if c := pa.Cur[i]; match(c) {
				gr := want.group(pa.CurKey[i], true)
				gr.Sum += c
				gr.Count++
			}
		}
		wantGroups := slices.DeleteFunc(append(want.groups, want.added...), func(gr exec.GroupResult) bool { return gr.Count <= 0 })
		exec.SortGroupResults(wantGroups)
		if !sameBits(exec.Result{Groups: got.Groups()}, exec.Result{Groups: wantGroups}) {
			t.Fatalf("%s: patched groups differ from the binary-search fold", name)
		}
	}
}

// TestPlacementSplitMatchesStableSort: legs orders any piece list —
// resident, then shipped, then host pieces, row order kept inside each
// class — exactly as a stable sort by placement would, and moves each
// key piece with its value piece.
func TestPlacementSplitMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	places := []exec.Place{exec.OnHost, exec.Shipped, exec.Resident}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		src := &listSource{s: schema.MustNew(schema.Int64Attr("k"), schema.Float64Attr("v"))}
		for i := 0; i < n; i++ {
			p := places[rng.Intn(len(places))]
			empty := layout.ColVector{Stride: 8, Size: 8}
			src.vals = append(src.vals, exec.Piece{Rows: layout.RowRange{Begin: uint64(i)}, Place: p, Vec: empty})
			src.keys = append(src.keys, exec.Piece{Rows: layout.RowRange{Begin: uint64(i)}, Place: p, Vec: empty})
		}
		want := slices.Clone(src.vals)
		slices.SortStableFunc(want, func(a, b exec.Piece) int { return int(b.Place) - int(a.Place) })
		dev := &recordingExec{}
		c := &cohort{live: []member{{Plan: exec.Plan{Op: exec.KindGroupSum, KeyCol: 0, Col: 1}}}, res: make([]exec.Result, 1)}
		if err := c.legs(src, exec.Single(), dev, 1); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if src.vals[i].Rows != want[i].Rows || src.vals[i].Place != want[i].Place || src.keys[i].Rows != want[i].Rows {
				t.Fatalf("trial %d: split %+v, want %+v (keys %+v)", trial, src.vals, want, src.keys)
			}
		}
	}
}

// listSource hands out the same two piece lists on every call.
type listSource struct {
	s          *schema.Schema
	keys, vals []exec.Piece
}

func (l *listSource) Schema() *schema.Schema { return l.s }

func (l *listSource) Pieces(exec.Plan) (keys, vals []exec.Piece, err error) {
	return l.keys, l.vals, nil
}
