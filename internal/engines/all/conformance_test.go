package all

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/exec/pool"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
	"hybridstore/internal/workload"
)

// loadItems creates a table of n deterministic item records on e.
func loadItems(t *testing.T, e engine.Engine, n uint64) engine.Table {
	t.Helper()
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatalf("%s: Create: %v", e.Name(), err)
	}
	err = workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		row, err := tbl.Insert(rec)
		if err != nil {
			return err
		}
		if row != i {
			t.Fatalf("%s: insert %d landed at row %d", e.Name(), i, row)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: load: %v", e.Name(), err)
	}
	return tbl
}

// sumWhere and groupSumWhere spell the two predicated plans the
// cross-engine properties run through the contract's one scan entry.
func sumWhere(tbl engine.Table, col int, p exec.Pred) (float64, int64, error) {
	r, err := tbl.Scan(exec.Plan{Op: exec.KindSumWhere, Col: col, Pred: p})
	return r.Sum, r.Count, err
}

func groupSumWhere(tbl engine.Table, keyCol, valCol int, p exec.Pred) ([]exec.GroupResult, error) {
	r, err := tbl.Scan(exec.Plan{Op: exec.KindGroupSumWhere, KeyCol: keyCol, Col: valCol, Pred: p})
	return r.Groups, err
}

// TestConformance runs every surveyed engine through the same behaviour
// suite under each host execution policy: the answers to the paper's two
// query archetypes must be identical across all ten engines on identical
// data, whether operators run sequentially, blockwise, or morsel-driven.
func TestConformance(t *testing.T) {
	const n = 700
	// Shrink the morsel granularity so the 700-row tables genuinely
	// dispatch multi-morsel jobs over helper goroutines.
	pool.SetMorselSize(128)
	pool.SetWorkers(4)
	t.Cleanup(func() {
		pool.SetMorselSize(0)
		pool.SetWorkers(0)
	})
	before := obs.TakeSnapshot()
	for _, policy := range []exec.Policy{exec.SingleThreaded, exec.MultiThreaded, exec.MorselDriven} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			env := engine.NewEnv()
			env.ExecPolicy = policy
			conformanceSuite(t, env, n)
		})
	}
	// The observability layer must have seen the suite: every policy ran
	// aggregations and materializations on every engine, and the
	// morsel-driven pass dispatched multi-morsel jobs through the pool.
	after := obs.TakeSnapshot()
	for _, policy := range []exec.Policy{exec.SingleThreaded, exec.MultiThreaded, exec.MorselDriven} {
		for _, op := range []string{"sum", "materialize"} {
			name := "exec." + op + "." + policy.String() + ".ops"
			if after.Counter(name) <= before.Counter(name) {
				t.Errorf("counter %s did not advance over the conformance suite", name)
			}
		}
	}
	if after.Counter("pool.jobs_submitted") <= before.Counter("pool.jobs_submitted") {
		t.Error("pool.jobs_submitted did not advance over the morsel-driven pass")
	}
	// The fused group-by query above must have flowed through the fused
	// operator's telemetry: ops and emitted groups counted, latency
	// recorded in the histogram.
	for _, name := range []string{"exec.groupby.fused.ops", "exec.groupby.fused.groups"} {
		if after.Counter(name) <= before.Counter(name) {
			t.Errorf("counter %s did not advance over the conformance suite", name)
		}
	}
	if after.Histograms["exec.groupby.fused.ns"].Count <= before.Histograms["exec.groupby.fused.ns"].Count {
		t.Error("histogram exec.groupby.fused.ns did not record over the conformance suite")
	}
}

func conformanceSuite(t *testing.T, env *engine.Env, n uint64) {
	for _, e := range Engines(env) {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			tbl := loadItems(t, e, n)
			defer tbl.Free()

			if got := tbl.Rows(); got != n {
				t.Fatalf("Rows = %d, want %d", got, n)
			}

			// Point reads return the generated records.
			for _, row := range []uint64{0, 1, n / 2, n - 1} {
				rec, err := tbl.Get(row)
				if err != nil {
					t.Fatalf("Get(%d): %v", row, err)
				}
				if !rec.Equal(workload.Item(row)) {
					t.Fatalf("Get(%d) = %v, want %v", row, rec, workload.Item(row))
				}
			}
			if _, err := tbl.Get(n); err == nil {
				t.Fatal("Get past end succeeded")
			}

			// Attribute-centric aggregate (Q2).
			sum, err := tbl.SumFloat64(workload.ItemPriceCol)
			if err != nil {
				t.Fatalf("SumFloat64: %v", err)
			}
			want := workload.ExpectedItemPriceSum(n)
			if math.Abs(sum-want) > 1e-6 {
				t.Fatalf("sum = %v, want %v", sum, want)
			}

			// Updates are visible to both access patterns.
			if err := tbl.Update(3, workload.ItemPriceCol, schema.FloatValue(1000)); err != nil {
				t.Fatalf("Update: %v", err)
			}
			rec, err := tbl.Get(3)
			if err != nil || rec[workload.ItemPriceCol].F != 1000 {
				t.Fatalf("updated Get = %v, %v", rec, err)
			}
			sum2, err := tbl.SumFloat64(workload.ItemPriceCol)
			if err != nil {
				t.Fatalf("SumFloat64 after update: %v", err)
			}
			want2 := want - workload.ItemPrice(3) + 1000
			if math.Abs(sum2-want2) > 1e-6 {
				t.Fatalf("post-update sum = %v, want %v", sum2, want2)
			}
			if err := tbl.Update(n, 0, schema.IntValue(0)); err == nil {
				t.Fatal("Update past end succeeded")
			}

			// Fused predicate→group-by (the grouped flavor of Q2): one
			// pass computes filter, keys and aggregate together. The
			// i_im_id keys are singletons at this row count, so every
			// matching row is its own group with its own price.
			gp := exec.Between(2.0, 3.0)
			wantGroups := map[int64]float64{}
			for i := uint64(0); i < n; i++ {
				price := workload.ItemPrice(i)
				if i == 3 {
					price = 1000
				}
				if gp.Match(price) {
					wantGroups[int64(i%100000)] = price
				}
			}
			// Three repetitions per engine: 90 fused calls across the
			// suite guarantee the 1-in-64 sampled latency histogram
			// records at least once inside the assertion window.
			for rep := 0; rep < 3; rep++ {
				groups, err := groupSumWhere(tbl, 1, workload.ItemPriceCol, gp)
				if err != nil {
					t.Fatalf("GroupSumFloat64Where: %v", err)
				}
				if len(groups) != len(wantGroups) {
					t.Fatalf("fused group-by returned %d groups, want %d", len(groups), len(wantGroups))
				}
				for _, g := range groups {
					wantPrice, ok := wantGroups[g.Key]
					if !ok {
						t.Fatalf("unexpected group %d", g.Key)
					}
					if g.Count != 1 || math.Abs(g.Sum-wantPrice) > 1e-9 {
						t.Fatalf("group %d = (%v, %d), want (%v, 1)", g.Key, g.Sum, g.Count, wantPrice)
					}
				}
			}

			// Record-centric materialization (Q1 generalized).
			r := rand.New(rand.NewSource(7))
			positions := workload.PositionList(r, 150, n)
			recs, err := tbl.Materialize(positions)
			if err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			if len(recs) != 150 {
				t.Fatalf("materialized %d records", len(recs))
			}
			for i, pos := range positions {
				wantRec := workload.Item(pos)
				if pos == 3 {
					wantRec[workload.ItemPriceCol] = schema.FloatValue(1000)
				}
				if !recs[i].Equal(wantRec) {
					t.Fatalf("materialized[%d] (row %d) = %v, want %v", i, pos, recs[i], wantRec)
				}
			}
			if _, err := tbl.Materialize([]uint64{n}); err == nil {
				t.Fatal("Materialize past end succeeded")
			}

			// Arity mismatch on insert.
			if _, err := tbl.Insert(schema.Record{schema.IntValue(1)}); err == nil {
				t.Fatal("short record accepted")
			}
		})
	}
}

// TestScanRejectsBadColumns pins the one column-kind check of the scan
// entry: on all eleven engines, every scan kind over an aggregate column
// that is not float64, a group key that is not an integer, or an ordinal
// outside the schema fails with exec.ErrBadColumn / layout.ErrOutOfRange
// — never a number made of reinterpreted bits — and so does the named
// SumFloat64 of the contract.
func TestScanRejectsBadColumns(t *testing.T) {
	const n = 300
	env := engine.NewEnv()
	for _, e := range append(Engines(env), core.New(env, core.Options{ChunkRows: 128})) {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			tbl := loadItems(t, e, n)
			defer tbl.Free()
			p := exec.Between(0.0, 1e9)
			price, id, imID := workload.ItemPriceCol, workload.ItemIDCol, 1
			for _, c := range []struct {
				name        string
				keyCol, col int
				want        error
				grouped     bool // the case is about the key column
			}{
				{"int64 value", imID, id, exec.ErrBadColumn, false},
				{"value col -1", imID, -1, layout.ErrOutOfRange, false},
				{"value col 99", imID, 99, layout.ErrOutOfRange, false},
				{"float64 key", price, price, exec.ErrBadColumn, true},
				{"key col -1", -1, price, layout.ErrOutOfRange, true},
				{"key col 99", 99, price, layout.ErrOutOfRange, true},
			} {
				for _, op := range []exec.Kind{exec.KindSum, exec.KindSumWhere, exec.KindGroupSum, exec.KindGroupSumWhere} {
					if c.grouped && !op.Grouped() {
						continue
					}
					res, err := tbl.Scan(exec.Plan{Op: op, KeyCol: c.keyCol, Col: c.col, Pred: p})
					if !errors.Is(err, c.want) {
						t.Errorf("%s/%s: (%+v, %v), want %v", c.name, op, res, err, c.want)
					}
				}
			}
			if sum, err := tbl.SumFloat64(id); !errors.Is(err, exec.ErrBadColumn) {
				t.Errorf("SumFloat64(int64 col) = (%v, %v), want ErrBadColumn", sum, err)
			}
			if sum, err := tbl.SumFloat64(99); !errors.Is(err, layout.ErrOutOfRange) {
				t.Errorf("SumFloat64(99) = (%v, %v), want ErrOutOfRange", sum, err)
			}
		})
	}
}

// TestClassificationConsistency audits every engine against the
// taxonomy's rules: the classification derived from its live structure
// must be violation-free.
func TestClassificationConsistency(t *testing.T) {
	for _, e := range Engines(engine.NewEnv()) {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			tbl := loadItems(t, e, 300)
			defer tbl.Free()
			c, violations, err := engine.Audit(e, tbl)
			if err != nil {
				t.Fatalf("Audit: %v", err)
			}
			for _, v := range violations {
				t.Errorf("violation: %v", v)
			}
			if c.Name != e.Name() {
				t.Errorf("classification name %q", c.Name)
			}
		})
	}
}

// paperRow is the expected Table-1 row of the paper for one engine.
type paperRow struct {
	handling     taxonomy.LayoutHandling
	flexibility  taxonomy.LayoutFlexibility
	adaptability taxonomy.LayoutAdaptability
	working      taxonomy.LocationKind
	primary      taxonomy.LocationKind
	locality     taxonomy.Locality
	lin          taxonomy.LinearizationClass
	scheme       taxonomy.FragmentScheme
	procs        taxonomy.ProcessorSupport
	workloads    taxonomy.WorkloadSupport
	year         int
}

// TestSurveyEnginesHaveNoKnobs guards the survey's premise: an engine in
// the registry is what its Table-1 row says and nothing more, so a
// surveyed Engine struct exports no field — an accelerator flag only a
// test would turn on (HyPer device scans, CoGaDB cache placement) cannot
// come back without editing this test.
func TestSurveyEnginesHaveNoKnobs(t *testing.T) {
	for _, e := range Engines(engine.NewEnv()) {
		typ := reflect.TypeOf(e).Elem()
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				t.Errorf("%s: exported field %s.%s", e.Name(), typ, f.Name)
			}
		}
	}
}

// TestOptionSurfaceIsCounted pins the number of independently settable
// values the facade and the platform expose, so the next option — each
// one doubles the configurations the equivalence tables must cover — has
// to edit this test: hybridstore.Options counts its leaves (a nested
// struct's fields, not the struct), engine.Env its fields.
func TestOptionSurfaceIsCounted(t *testing.T) {
	var leaves func(reflect.Type) int
	leaves = func(typ reflect.Type) int {
		if typ.Kind() != reflect.Struct {
			return 1
		}
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			n += leaves(typ.Field(i).Type)
		}
		return n
	}
	if got := leaves(reflect.TypeOf(hybridstore.Options{})); got != 9 {
		t.Errorf("hybridstore.Options has %d settable values, want 9", got)
	}
	if got := reflect.TypeOf(engine.Env{}).NumField(); got != 7 {
		t.Errorf("engine.Env has %d fields, want 7", got)
	}
}

// TestTable1MatchesPaper pins each engine's derived classification to the
// paper's published Table 1 (Section IV). This is the reproduction of the
// survey: the rows are not hard-coded into the engines — they fall out of
// the classifier run against each engine's live layout structure.
func TestTable1MatchesPaper(t *testing.T) {
	expect := map[string]paperRow{
		"PAX": {
			taxonomy.SingleLayout, taxonomy.Inflexible, taxonomy.Static,
			taxonomy.LocHost, taxonomy.LocSecondary, taxonomy.Centralized,
			taxonomy.FatDSMFixed, taxonomy.SchemeNone, taxonomy.CPUOnly, taxonomy.HTAP, 2002,
		},
		"Fractured Mirrors": {
			taxonomy.MultiLayoutBuiltIn, taxonomy.Inflexible, taxonomy.Static,
			taxonomy.LocHost, taxonomy.LocSecondary, taxonomy.Centralized,
			taxonomy.FatNSMPlusDSMFixed, taxonomy.SchemeReplication, taxonomy.CPUOnly, taxonomy.HTAP, 2002,
		},
		"HYRISE": {
			taxonomy.SingleLayout, taxonomy.WeakFlexible, taxonomy.Responsive,
			taxonomy.LocHost, taxonomy.LocHost, taxonomy.Centralized,
			taxonomy.FatVariable, taxonomy.SchemeNone, taxonomy.CPUOnly, taxonomy.HTAP, 2010,
		},
		"ES2": {
			taxonomy.MultiLayoutBuiltIn, taxonomy.StrongFlexibleConstrained, taxonomy.Responsive,
			taxonomy.LocSecondary, taxonomy.LocSecondary, taxonomy.Distributed,
			taxonomy.FatDSMFixed, taxonomy.SchemeDelegation, taxonomy.CPUOnly, taxonomy.HTAP, 2011,
		},
		"GPUTx": {
			taxonomy.SingleLayout, taxonomy.WeakFlexible, taxonomy.Static,
			taxonomy.LocDevice, taxonomy.LocDevice, taxonomy.Centralized,
			taxonomy.ThinDSMEmulated, taxonomy.SchemeNone, taxonomy.GPUOnly, taxonomy.OLTP, 2011,
		},
		"H2O": {
			taxonomy.SingleLayout, taxonomy.WeakFlexible, taxonomy.Responsive,
			taxonomy.LocHost, taxonomy.LocHost, taxonomy.Centralized,
			taxonomy.VarNSMFixedPartDSMEmulated, taxonomy.SchemeNone, taxonomy.CPUOnly, taxonomy.HTAP, 2014,
		},
		"HyPer": {
			taxonomy.SingleLayout, taxonomy.StrongFlexibleConstrained, taxonomy.Responsive,
			taxonomy.LocHost, taxonomy.LocHost, taxonomy.Centralized,
			taxonomy.ThinDSMEmulated, taxonomy.SchemeNone, taxonomy.CPUOnly, taxonomy.HTAP, 2015,
		},
		"CoGaDB": {
			taxonomy.MultiLayoutBuiltIn, taxonomy.WeakFlexible, taxonomy.Static,
			taxonomy.LocMixed, taxonomy.LocMixed, taxonomy.Distributed,
			taxonomy.ThinDSMEmulated, taxonomy.SchemeReplication, taxonomy.CPUAndGPU, taxonomy.OLAP, 2016,
		},
		"L-Store": {
			taxonomy.SingleLayout, taxonomy.StrongFlexibleConstrained, taxonomy.Responsive,
			taxonomy.LocHost, taxonomy.LocHost, taxonomy.Centralized,
			taxonomy.ThinDSMEmulated, taxonomy.SchemeDelegation, taxonomy.CPUOnly, taxonomy.HTAP, 2016,
		},
		"Peloton": {
			taxonomy.MultiLayoutBuiltIn, taxonomy.StrongFlexibleConstrained, taxonomy.Responsive,
			taxonomy.LocHost, taxonomy.LocHost, taxonomy.Centralized,
			taxonomy.FatVariable, taxonomy.SchemeDelegation, taxonomy.CPUOnly, taxonomy.HTAP, 2016,
		},
	}

	env := engine.NewEnv()
	for _, e := range Engines(env) {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			want, ok := expect[e.Name()]
			if !ok {
				t.Fatalf("engine %q not in the paper's table", e.Name())
			}
			tbl := prepareForClassification(t, e)
			defer tbl.Free()
			c, err := engine.Classify(e, tbl)
			if err != nil {
				t.Fatalf("Classify: %v", err)
			}
			if c.Handling != want.handling {
				t.Errorf("handling = %v, want %v", c.Handling, want.handling)
			}
			if c.Flexibility != want.flexibility {
				t.Errorf("flexibility = %v, want %v", c.Flexibility, want.flexibility)
			}
			if c.Adaptability != want.adaptability {
				t.Errorf("adaptability = %v, want %v", c.Adaptability, want.adaptability)
			}
			if c.Working != want.working {
				t.Errorf("working = %v, want %v", c.Working, want.working)
			}
			if c.Primary != want.primary {
				t.Errorf("primary = %v, want %v", c.Primary, want.primary)
			}
			if c.Locality != want.locality {
				t.Errorf("locality = %v, want %v", c.Locality, want.locality)
			}
			if c.Linearization != want.lin {
				t.Errorf("linearization = %v, want %v", c.Linearization, want.lin)
			}
			if c.Scheme != want.scheme {
				t.Errorf("scheme = %v, want %v", c.Scheme, want.scheme)
			}
			if c.Processors != want.procs {
				t.Errorf("processors = %v, want %v", c.Processors, want.procs)
			}
			if c.Workloads != want.workloads {
				t.Errorf("workloads = %v, want %v", c.Workloads, want.workloads)
			}
			if c.Year != want.year {
				t.Errorf("year = %d, want %d", c.Year, want.year)
			}
		})
	}
}

// prepareForClassification loads a table and drives engine-specific state
// so the structural snapshot exhibits the engine's characteristic shape
// (e.g. CoGaDB needs a placed device column to show its mixed location;
// adaptive engines show their characteristic grouping after observing a
// mixed workload).
func prepareForClassification(t *testing.T, e engine.Engine) engine.Table {
	t.Helper()
	tbl := loadItems(t, e, 300)
	type placer interface{ Place(c int) error }
	if p, ok := tbl.(placer); ok {
		if err := p.Place(workload.ItemPriceCol); err != nil {
			t.Fatalf("%s: Place: %v", e.Name(), err)
		}
	}
	if a, ok := tbl.(engine.Adaptive); ok && (e.Name() == "HYRISE" || e.Name() == "H2O") {
		// Drive the adaptive CPU stores into their characteristic mixed
		// state: co-accessed record-centric attributes fuse into a fat
		// NSM region while the scan-dominated price column goes thin.
		for i := 0; i < 50; i++ {
			a.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 1, 2}})
			a.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{4}})
		}
		if _, err := a.Adapt(); err != nil {
			t.Fatalf("%s Adapt: %v", e.Name(), err)
		}
	}
	if e.Name() == "ES2" {
		// Several partition stripes make the combined (strong flexible)
		// two-step fragmentation visible in the snapshot. Ids continue
		// past the loaded prefix (the pk index rejects duplicates).
		if err := workload.Generate(900, func(i uint64) schema.Record {
			return workload.Item(300 + i)
		}, func(i uint64, rec schema.Record) error {
			_, err := tbl.Insert(rec)
			return err
		}); err != nil {
			t.Fatalf("ES2 growth: %v", err)
		}
	}
	if e.Name() == "Peloton" {
		type transformer interface {
			Observe(op workload.Op)
			Adapt() (bool, error)
		}
		a := tbl.(transformer)
		for i := 0; i < 50; i++ {
			a.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{4}})
			a.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 1, 2}})
		}
		if _, err := a.Adapt(); err != nil {
			t.Fatalf("Peloton Adapt: %v", err)
		}
		// Trigger new tile groups under the new advice so the relation
		// mixes groupings (the FSM archipelago).
		if err := workload.Generate(2000, workload.Item, func(i uint64, rec schema.Record) error {
			_, err := tbl.Insert(rec)
			return err
		}); err != nil {
			t.Fatalf("Peloton growth: %v", err)
		}
	}
	return tbl
}
