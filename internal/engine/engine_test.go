package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/schema"
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
	if env.GPU == nil || env.GPU.FreeMemory() <= 0 {
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
func (f *fakeTable) SumFloat64(int) (float64, error)               { return 0, ErrUnsupported }
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
func (f *fakeSource) Patches(p exec.Plan, fn func(base, cur Cell)) error {
	f.patchCalls++
	if f.patched {
		fn(Cell{Key: 0, Val: 1}, Cell{Key: 7, Val: 100})
	}
	return nil
}

// recordingExec runs scans on the host operators and records what it
// was handed.
type recordingExec struct{ got []exec.Scan }

func (r *recordingExec) Scan(sc exec.Scan) (exec.Result, error) {
	r.got = append(r.got, sc)
	return exec.Single().Scan(sc)
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
				got, err := ScanCohort(src, exec.Single(), &recordingExec{}, plans)
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
		if _, err := ScanCohort(src, exec.Single(), &recordingExec{}, bad); !errors.Is(err, exec.ErrBadPlan) {
			t.Errorf("%+v: err = %v, want ErrBadPlan", bad, err)
		}
	}
	if src.pieceCalls != 0 {
		t.Errorf("a refused cohort reached the pieces %d times", src.pieceCalls)
	}
	if res, err := ScanCohort(src, exec.Single(), nil, nil); err != nil || len(res) != 0 {
		t.Errorf("empty cohort = %v, %v", res, err)
	}
}

// fullCard is a device executor whose card has no room for an image:
// scans that have to ship a piece fail the way a refused allocation
// does, scans over resident pieces alone run.
type fullCard struct {
	recordingExec
	err error
}

func (c *fullCard) Scan(sc exec.Scan) (exec.Result, error) {
	for _, vp := range sc.Vals {
		if vp.Place == exec.Shipped {
			c.got = append(c.got, sc)
			return exec.Result{}, c.err
		}
	}
	return c.recordingExec.Scan(sc)
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
