package taxonomy

import (
	"errors"
	"strings"
	"testing"

	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/schema"
)

func testSchema() *schema.Schema {
	return schema.MustNew(
		schema.Int64Attr("a"), schema.Int64Attr("b"),
		schema.Int64Attr("c"), schema.Int64Attr("d"),
	)
}

func host() *mem.Allocator { return mem.NewAllocator(mem.Host, 0) }

// snapPAX: one layout, horizontally chunked fat fragments, DSM-fixed.
func snapPAX(t *testing.T) layout.Snapshot {
	t.Helper()
	s := testSchema()
	r := layout.NewRelation("R", s)
	l, err := layout.Horizontal(host(), "pages", s, 100, 32, layout.DSM)
	if err != nil {
		t.Fatal(err)
	}
	r.AddLayout(l)
	r.SetRows(100)
	return r.Digest()
}

// snapMirrors: two layouts, each one full-width fat fragment, NSM and DSM.
func snapMirrors(t *testing.T) layout.Snapshot {
	t.Helper()
	s := testSchema()
	r := layout.NewRelation("R", s)
	for _, lin := range []layout.Linearization{layout.NSM, layout.DSM} {
		l := layout.NewLayout(lin.String(), s)
		f, err := layout.NewFragment(host(), s, layout.AllCols(s), layout.RowRange{Begin: 0, End: 100}, lin)
		if err != nil {
			t.Fatal(err)
		}
		l.Add(f)
		r.AddLayout(l)
	}
	return r.Digest()
}

// snapHyrise: one layout, vertical sub-relations with mixed linearization.
func snapHyrise(t *testing.T) layout.Snapshot {
	t.Helper()
	s := testSchema()
	r := layout.NewRelation("R", s)
	l, err := layout.Vertical(host(), "containers", s, [][]int{{0, 1}, {2, 3}}, 100,
		func(g []int) layout.Linearization {
			if g[0] == 0 {
				return layout.NSM
			}
			return layout.DSM
		})
	if err != nil {
		t.Fatal(err)
	}
	r.AddLayout(l)
	return r.Digest()
}

// snapHyper: one layout, per-column thin vectors chunked horizontally
// (partition → chunk → vector): combined partitioning, all thin direct.
func snapHyper(t *testing.T) layout.Snapshot {
	t.Helper()
	s := testSchema()
	r := layout.NewRelation("R", s)
	l := layout.NewLayout("chunks", s)
	for chunk := uint64(0); chunk < 2; chunk++ {
		for c := 0; c < s.Arity(); c++ {
			f, err := layout.NewFragment(host(), s, []int{c},
				layout.RowRange{Begin: chunk * 50, End: (chunk + 1) * 50}, layout.Direct)
			if err != nil {
				t.Fatal(err)
			}
			l.Add(f)
		}
	}
	r.AddLayout(l)
	return r.Digest()
}

// snapH2O: one layout, NSM-fixed fat chunks plus thin per-column fragments.
func snapH2O(t *testing.T) layout.Snapshot {
	t.Helper()
	s := testSchema()
	r := layout.NewRelation("R", s)
	l := layout.NewLayout("h2o", s)
	fat, err := layout.NewFragment(host(), s, []int{0, 1, 2}, layout.RowRange{Begin: 0, End: 100}, layout.NSM)
	if err != nil {
		t.Fatal(err)
	}
	thin, err := layout.NewFragment(host(), s, []int{3}, layout.RowRange{Begin: 0, End: 100}, layout.Direct)
	if err != nil {
		t.Fatal(err)
	}
	l.Add(fat)
	l.Add(thin)
	r.AddLayout(l)
	return r.Digest()
}

// snapMixedSpace: thin columns split between host and device (CoGaDB).
func snapMixedSpace(t *testing.T) layout.Snapshot {
	t.Helper()
	s := testSchema()
	dev := mem.NewAllocator(mem.Device, 1<<20)
	r := layout.NewRelation("R", s)
	l := layout.NewLayout("host", s)
	ld := layout.NewLayout("device", s)
	for c := 0; c < s.Arity(); c++ {
		f, err := layout.NewFragment(host(), s, []int{c}, layout.RowRange{Begin: 0, End: 100}, layout.Direct)
		if err != nil {
			t.Fatal(err)
		}
		l.Add(f)
	}
	fd, err := layout.NewFragment(dev, s, []int{3}, layout.RowRange{Begin: 0, End: 100}, layout.Direct)
	if err != nil {
		t.Fatal(err)
	}
	ld.Add(fd)
	r.AddLayout(l)
	r.AddLayout(ld)
	return r.Digest()
}

func TestClassifyPAXArchetype(t *testing.T) {
	c, err := Classify("PAX", snapPAX(t), Capabilities{
		FixedFragmentation: true,
		Processors:         CPUOnly,
		Workloads:          HTAP,
		PrimaryDeclared:    LocSecondary,
		HasPrimaryDeclared: true,
		Year:               2002,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Handling != SingleLayout {
		t.Errorf("Handling = %v", c.Handling)
	}
	if c.Flexibility != Inflexible {
		t.Errorf("Flexibility = %v", c.Flexibility)
	}
	if c.Adaptability != Static {
		t.Errorf("Adaptability = %v", c.Adaptability)
	}
	if c.Working != LocHost || c.Primary != LocSecondary || c.Locality != Centralized {
		t.Errorf("location = %v/%v/%v", c.Working, c.Primary, c.Locality)
	}
	if c.Linearization != FatDSMFixed {
		t.Errorf("Linearization = %v", c.Linearization)
	}
	if c.Scheme != SchemeNone {
		t.Errorf("Scheme = %v", c.Scheme)
	}
	if v := Validate(c, snapPAX(t), Capabilities{FixedFragmentation: true}); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}

func TestClassifyMirrorsArchetype(t *testing.T) {
	caps := Capabilities{
		BuiltInMultiLayout: true,
		Scheme:             SchemeReplication,
		Processors:         CPUOnly,
		Workloads:          HTAP,
		Year:               2002,
	}
	c, err := Classify("Fractured Mirrors", snapMirrors(t), caps)
	if err != nil {
		t.Fatal(err)
	}
	if c.Handling != MultiLayoutBuiltIn {
		t.Errorf("Handling = %v", c.Handling)
	}
	if c.Flexibility != Inflexible {
		t.Errorf("Flexibility = %v (one fragment per layout)", c.Flexibility)
	}
	if c.Linearization != FatNSMPlusDSMFixed {
		t.Errorf("Linearization = %v", c.Linearization)
	}
	if c.Scheme != SchemeReplication {
		t.Errorf("Scheme = %v", c.Scheme)
	}
	if v := Validate(c, snapMirrors(t), caps); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}

func TestClassifyHyriseArchetype(t *testing.T) {
	caps := Capabilities{
		Responsive:            true,
		VariableLinearization: true,
		Processors:            CPUOnly,
		Workloads:             HTAP,
		Year:                  2010,
	}
	c, err := Classify("HYRISE", snapHyrise(t), caps)
	if err != nil {
		t.Fatal(err)
	}
	if c.Handling != SingleLayout || c.Flexibility != WeakFlexible || c.Adaptability != Responsive {
		t.Errorf("got %v/%v/%v", c.Handling, c.Flexibility, c.Adaptability)
	}
	if c.Linearization != FatVariable {
		t.Errorf("Linearization = %v", c.Linearization)
	}
	if v := Validate(c, snapHyrise(t), caps); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}

func TestClassifyHyperArchetype(t *testing.T) {
	caps := Capabilities{Responsive: true, Processors: CPUOnly, Workloads: HTAP, Year: 2015}
	c, err := Classify("HyPer", snapHyper(t), caps)
	if err != nil {
		t.Fatal(err)
	}
	if c.Flexibility != StrongFlexibleConstrained {
		t.Errorf("Flexibility = %v", c.Flexibility)
	}
	if c.Linearization != ThinDSMEmulated {
		t.Errorf("Linearization = %v", c.Linearization)
	}
	if v := Validate(c, snapHyper(t), caps); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}

func TestClassifyH2OArchetype(t *testing.T) {
	caps := Capabilities{Responsive: true, Processors: CPUOnly, Workloads: HTAP, Year: 2014}
	c, err := Classify("H2O", snapH2O(t), caps)
	if err != nil {
		t.Fatal(err)
	}
	if c.Linearization != VarNSMFixedPartDSMEmulated {
		t.Errorf("Linearization = %v", c.Linearization)
	}
	if c.Flexibility != WeakFlexible {
		t.Errorf("Flexibility = %v", c.Flexibility)
	}
}

func TestClassifyMixedSpace(t *testing.T) {
	caps := Capabilities{
		BuiltInMultiLayout: true,
		Scheme:             SchemeReplication,
		Processors:         CPUAndGPU,
		Workloads:          OLAP,
		Year:               2016,
	}
	c, err := Classify("CoGaDB", snapMixedSpace(t), caps)
	if err != nil {
		t.Fatal(err)
	}
	if c.Working != LocMixed || c.Locality != Distributed {
		t.Errorf("location = %v/%v", c.Working, c.Locality)
	}
	if c.Linearization != ThinDSMEmulated {
		t.Errorf("Linearization = %v", c.Linearization)
	}
}

func TestClassifyClusterDistributed(t *testing.T) {
	caps := Capabilities{ClusterDistributed: true}
	c, err := Classify("ES2", snapPAX(t), caps)
	if err != nil {
		t.Fatal(err)
	}
	if c.Locality != Distributed {
		t.Errorf("cluster-distributed engine classified %v", c.Locality)
	}
}

func TestClassifyEmulatedMultiLayout(t *testing.T) {
	c, err := Classify("X", snapMirrors(t), Capabilities{Scheme: SchemeReplication})
	if err != nil {
		t.Fatal(err)
	}
	if c.Handling != MultiLayoutEmulated {
		t.Errorf("Handling = %v, want emulated", c.Handling)
	}
}

func TestClassifyUnconstrainedStrong(t *testing.T) {
	c, err := Classify("X", snapHyper(t), Capabilities{Unconstrained: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Flexibility != StrongFlexibleUnconstrained {
		t.Errorf("Flexibility = %v", c.Flexibility)
	}
}

func TestClassifyResponsiveRequiresFlexible(t *testing.T) {
	// An inflexible engine claiming responsiveness is classified static.
	c, err := Classify("X", snapPAX(t), Capabilities{FixedFragmentation: true, Responsive: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Adaptability != Static {
		t.Errorf("Adaptability = %v, want static", c.Adaptability)
	}
}

func TestClassifyNoEvidence(t *testing.T) {
	if _, err := Classify("X", layout.Snapshot{Relation: "R"}, Capabilities{}); !errors.Is(err, ErrNoEvidence) {
		t.Fatalf("err = %v, want ErrNoEvidence", err)
	}
	empty := layout.Snapshot{Relation: "R", Layouts: []layout.LayoutInfo{{Name: "l"}}}
	if _, err := Classify("X", empty, Capabilities{}); !errors.Is(err, ErrNoEvidence) {
		t.Fatalf("empty layouts err = %v, want ErrNoEvidence", err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	snap := snapHyrise(t) // 2 fragments per layout
	// Claim inflexible without the PAX waiver: violation.
	c := Classification{Flexibility: Inflexible}
	found := false
	for _, v := range Validate(c, snap, Capabilities{}) {
		if v.Rule == RuleInflexibleSingleFragment {
			found = true
		}
	}
	if !found {
		t.Error("inflexible-single-fragment not caught")
	}

	// Weak flexible with a combined layout: violation.
	c = Classification{Flexibility: WeakFlexible}
	found = false
	for _, v := range Validate(c, snapHyper(t), Capabilities{}) {
		if v.Rule == RuleWeakUniformPartitioning {
			found = true
		}
	}
	if !found {
		t.Error("weak-uniform-partitioning not caught")
	}

	// Responsive + inflexible: violation.
	c = Classification{Flexibility: Inflexible, Adaptability: Responsive}
	found = false
	for _, v := range Validate(c, snapPAX(t), Capabilities{FixedFragmentation: true}) {
		if v.Rule == RuleResponsiveRequiresFlexible {
			found = true
		}
	}
	if !found {
		t.Error("responsive-requires-flexible not caught")
	}

	// Mixed location + centralized locality: violation.
	c = Classification{Working: LocMixed, Locality: Centralized}
	found = false
	for _, v := range Validate(c, snapPAX(t), Capabilities{FixedFragmentation: true}) {
		if v.Rule == RuleMixedImpliesDistributed {
			found = true
		}
	}
	if !found {
		t.Error("mixed-implies-distributed not caught")
	}

	// Multi-layout without scheme: violation.
	c = Classification{Handling: MultiLayoutBuiltIn, Scheme: SchemeNone}
	found = false
	for _, v := range Validate(c, snapMirrors(t), Capabilities{}) {
		if v.Rule == RuleMultiLayoutRequiresScheme {
			found = true
		}
	}
	if !found {
		t.Error("multi-layout-requires-scheme not caught")
	}

	// Strong without combined structural evidence: violation.
	c = Classification{Flexibility: StrongFlexibleConstrained}
	found = false
	for _, v := range Validate(c, snapHyrise(t), Capabilities{}) {
		if v.Rule == RuleStrongRequiresCombined {
			found = true
		}
	}
	if !found {
		t.Error("strong-requires-combined not caught")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Rule: RuleDirectOnlyThin, Detail: "x"}
	if got := v.String(); got != "direct-only-thin: x" {
		t.Errorf("String() = %q", got)
	}
}

func TestClassifyIsDeterministic(t *testing.T) {
	snap := snapHyper(t)
	caps := Capabilities{Responsive: true, Workloads: HTAP}
	a, err := Classify("X", snap, caps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Classify("X", snap, caps)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestRenderTableOrdersByYear(t *testing.T) {
	rows := []Classification{
		{Name: "B", Year: 2016},
		{Name: "A", Year: 2002},
		{Name: "C", Year: 2016},
	}
	out := RenderTable(rows)
	ia, ib, ic := strings.Index(out, "\nA "), strings.Index(out, "\nB "), strings.Index(out, "\nC ")
	if !(ia < ib && ib < ic) {
		t.Errorf("order wrong:\n%s", out)
	}
	if !strings.Contains(out, "Layout handling") {
		t.Error("header missing")
	}
}

func TestLocationCell(t *testing.T) {
	cases := []struct {
		c    Classification
		want string
	}{
		{Classification{Working: LocHost, Primary: LocSecondary, Locality: Centralized}, "host+secondary centr."},
		{Classification{Working: LocHost, Primary: LocHost, Locality: Centralized}, "host centr."},
		{Classification{Working: LocDevice, Primary: LocDevice, Locality: Centralized}, "device centr."},
		{Classification{Working: LocMixed, Primary: LocMixed, Locality: Distributed}, "mixed distr."},
	}
	for _, c := range cases {
		if got := locationCell(c.c); got != c.want {
			t.Errorf("locationCell = %q, want %q", got, c.want)
		}
	}
}

// walk visits every node depth-first, passing the depth (root = 0).
func walk(n Node, depth int, fn func(Node, int)) {
	fn(n, depth)
	for _, c := range n.Children {
		walk(c, depth+1, fn)
	}
}

func TestTreeContainsAllFigure4Leaves(t *testing.T) {
	var leaves []string
	walk(Tree(), 0, func(n Node, _ int) {
		if len(n.Children) == 0 {
			leaves = append(leaves, n.Label)
		}
	})
	want := []string{
		"Single Layout", "Built-In", "Emulated", "Inflexible", "Weak",
		"Constrained", "Unconstrained", "Static", "Responsive",
		"Host-Memory-Only", "Device-Memory-Only", "Mixed",
		"Centralized", "Distributed", "NSM-Fixed", "DSM-Fixed", "Variable",
		"Direct Linearization", "NSM", "DSM",
		"DSM-Fixed Partially NSM-Emulated", "NSM-Fixed Partially DSM-Emulated",
		"Replication-Based", "Delegation-Based",
	}
	have := make(map[string]bool, len(leaves))
	for _, l := range leaves {
		have[l] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("leaf %q missing from taxonomy tree", w)
		}
	}
}

func TestTreeRender(t *testing.T) {
	out := Tree().Render()
	for _, want := range []string{"Storage Engine", "├─ Layout Handling", "└─ Fragment Scheme", "│  "} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestTreeWalkDepths(t *testing.T) {
	maxDepth := 0
	count := 0
	walk(Tree(), 0, func(n Node, d int) {
		count++
		if d > maxDepth {
			maxDepth = d
		}
	})
	if maxDepth < 4 {
		t.Errorf("max depth = %d, want >= 4 (Fig. 4 has 5 levels)", maxDepth)
	}
	if count < 30 {
		t.Errorf("node count = %d, want >= 30", count)
	}
}

func TestPropertyStringsCoverUnknown(t *testing.T) {
	if LayoutHandling(9).String() == "" || LayoutFlexibility(9).String() == "" ||
		LayoutAdaptability(9).String() == "" || LocationKind(9).String() == "" ||
		Locality(9).String() == "" || LinearizationClass(99).String() == "" ||
		FragmentScheme(9).String() == "" || ProcessorSupport(9).String() == "" ||
		WorkloadSupport(9).String() == "" {
		t.Error("some unknown-value String() is empty")
	}
}

func TestFlexibilityPredicates(t *testing.T) {
	if Inflexible.Flexible() || !WeakFlexible.Flexible() {
		t.Error("Flexible() broken")
	}
	if WeakFlexible.Strong() || !StrongFlexibleConstrained.Strong() || !StrongFlexibleUnconstrained.Strong() {
		t.Error("Strong() broken")
	}
}
