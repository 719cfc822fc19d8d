package main

import (
	"math/rand"
	"strconv"
	"time"

	"hybridstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/schema"
)

// class is an operation class: the unit latency metrics are reported in.
type class uint8

const (
	classPoint class = iota
	classWrite
	classSum
	classGroup
	numClasses
)

var className = [numClasses]string{"point", "write", "sum", "group"}

// opKind is one wire operation; each belongs to one class.
type opKind uint8

const (
	opGet opKind = iota
	opGetPK
	opUpdate
	opInsert
	opSumWhere
	opGroupSumWhere
	numOps
)

var (
	opName  = [numOps]string{"get", "get_pk", "update", "insert", "sum_where", "group_sum_where"}
	opClass = [numOps]class{classPoint, classPoint, classWrite, classWrite, classSum, classGroup}
)

// Item-schema columns the workloads touch.
const (
	priceCol = hybridstore.ItemPriceColumn
	groupCol = 1  // i_im_id, re-keyed to i%64 by the fixture
	groupDom = 64 // group-key cardinality
)

// request is one generated operation. The generator emits these; the
// program under test only ever sees appendBody's rendering of them.
type request struct {
	op   opKind
	row  uint64                // get, update
	pk   int64                 // get_pk, insert
	val  float64               // update: the new price
	pred hybridstore.FloatPred // sum_where, group_sum_where
}

// laneSpec is one closed-loop lane's traffic: op weights in percent and
// where its analytic predicates come from.
type laneSpec struct {
	weights [numOps]int
	// unique draws between(lo, lo+w) ranges that practically never
	// repeat; otherwise predicates come from the four fixed cuts.
	unique bool
}

// workload is one traffic mix over one fixture.
type workload struct {
	name, why string
	rows      uint64
	lanes     []laneSpec
	// durable opens the store with OpenDir and checkpoints; the harness
	// then runs Merge+Checkpoint six times per window.
	durable bool
	// mergeTick is the embedding application's maintenance tick for
	// non-durable workloads (0: no maintenance).
	mergeTick time.Duration
	// oltpRate and olapRate select the class-group throughput metrics
	// (point+write, sum+group) the workload reports beside ops_per_s.
	oltpRate, olapRate bool
	// replayPerSecond sizes the depth replay: requests per second of
	// measured window, capped at 2000. It keeps the replay's share of a
	// run about the same whether a request costs 60 us or, at each of
	// three depths, the milliseconds of a scan.
	replayPerSecond int
	// replayWarm is how many further requests of the stream each replay
	// fixture executes first, unmeasured, through the facade.
	replayWarm int
	// primary is the class whose p95 latency the universal primary_p95_us
	// reports on this workload: one whose upper tail lies inside a single
	// mode, so that the percentile is steady.
	primary class
	// demoted are the end-to-end metrics whose run-to-run spread on this
	// workload exceeds their bound (see README, A/A): they are reported
	// under client.*, ungated, not given a looser bound.
	demoted []string
}

// gatedName is name, or client.name when the metric is demoted on w.
func (w *workload) gatedName(name string) string {
	for _, d := range w.demoted {
		if d == name {
			return "client." + name
		}
	}
	return name
}

func (w *workload) readOnly() bool { return !w.issues(classWrite) }

// issues reports whether any lane of w issues class c.
func (w *workload) issues(c class) bool {
	for _, l := range w.lanes {
		for op, wt := range l.weights {
			if wt > 0 && opClass[op] == c {
				return true
			}
		}
	}
	return false
}

// maintenanceEvery is the interval of the harness's maintenance calls
// for a measured window of the given length.
func (w *workload) maintenanceEvery(window time.Duration) time.Duration {
	if w.durable {
		return window / 6
	}
	return w.mergeTick
}

const fixtureRows = 131072

// workloads are the benchmark's four traffic mixes; names are normative
// (BENCHMARK.json and every later performance issue refer to them).
var workloads = []*workload{
	{
		name: "htap-split",
		why:  "OLTP lane (update/get) and OLAP lane (sum/group) on the same rows: live deltas keep the result cache stale, every scan executes, a lone get pays the whole batch window",
		rows: fixtureRows,
		lanes: []laneSpec{
			{weights: [numOps]int{opUpdate: 50, opGet: 50}},
			{weights: [numOps]int{opSumWhere: 75, opGroupSumWhere: 25}},
		},
		mergeTick:       time.Second,
		oltpRate:        true,
		olapRate:        true,
		replayPerSecond: 40,
		primary:         classPoint,
		// point's median sits between its two modes (cache hit, batch
		// wait); the scan classes and the update next to them are
		// modulated by the merge cycle and by each other.
		demoted: []string{"point_p50_us", "write_p50_us", "sum_p50_us", "group_p50_us", "write_p95_us", "olap_q_per_s"},
	},
	{
		name: "dash-repeat",
		why:  "read-only dashboard mix over 8 repeated aggregates and a zipf head: the working set fits the result cache, so the wire path and rescache do nearly all the work",
		rows: fixtureRows,
		lanes: []laneSpec{
			{weights: [numOps]int{opGet: 30, opSumWhere: 50, opGroupSumWhere: 20}},
			{weights: [numOps]int{opGet: 30, opSumWhere: 50, opGroupSumWhere: 20}},
		},
		replayPerSecond: 200,
		// The workload is defined by its working set sitting in the result
		// cache; the zipf head takes this many requests to get there.
		replayWarm: 20000,
		primary:    classSum,
	},
	{
		name: "scan-unique",
		why:  "two scanners with practically unique range predicates: larger than the result cache, so exec, compress, device and zone-map pruning do the work",
		rows: fixtureRows,
		lanes: []laneSpec{
			{weights: [numOps]int{opSumWhere: 75, opGroupSumWhere: 25}, unique: true},
			{weights: [numOps]int{opSumWhere: 75, opGroupSumWhere: 25}, unique: true},
		},
		olapRate:        true,
		replayPerSecond: 40,
		primary:         classSum,
		// Three range widths, shared or solo passes, overlapping or not:
		// the medians sit between modes.
		demoted: []string{"sum_p50_us", "group_p50_us"},
	},
	{
		name: "oltp-durable",
		why:  "insert/update/get_pk on a WAL-backed store with periodic checkpoints: the same write path as htap-split with the log in it, no scans, no batch window",
		rows: 32768,
		lanes: []laneSpec{
			{weights: [numOps]int{opInsert: 30, opUpdate: 40, opGetPK: 30}},
			{weights: [numOps]int{opInsert: 30, opUpdate: 40, opGetPK: 30}},
		},
		durable:         true,
		oltpRate:        true,
		replayPerSecond: 200,
		primary:         classWrite,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fixedCuts are the four predicates cmd/loadgen's analytic lanes draw
// from (its predCuts is unexported, so they are repeated here).
var fixedCuts = [4]hybridstore.FloatPred{
	hybridstore.LtFloat(30),
	hybridstore.GtFloat(50),
	hybridstore.BetweenFloat(10, 60),
	hybridstore.BetweenFloat(20, 80),
}

// uniqueWidthCents are scan-unique's range widths in price cents:
// selectivity about 0.5 %, 5 % and 30 % of the [1, 101) price domain.
var uniqueWidthCents = [3]int{50, 500, 3000}

// generator is one lane's seeded request stream. Lane k of n only
// updates rows congruent to k mod n and only inserts keys congruent to
// k mod n, so every row has one writer and the verifier's model is
// serial.
type generator struct {
	spec        laneSpec
	r           *rand.Rand
	zipf        *rand.Zipf
	lane, lanes uint64
	rows        uint64
	total       int
	inserted    uint64
}

func newGenerator(w *workload, lane int, seed int64) *generator {
	g := &generator{
		spec: w.lanes[lane],
		// Seeds of different lanes and runs must not collide.
		r:     rand.New(rand.NewSource(seed*1009 + int64(lane))),
		lane:  uint64(lane),
		lanes: uint64(len(w.lanes)),
		rows:  w.rows,
	}
	for _, wt := range g.spec.weights {
		g.total += wt
	}
	if g.spec.weights[opGet] > 0 {
		g.zipf = rand.NewZipf(g.r, 1.2, 8, w.rows-1)
	}
	return g
}

func (g *generator) next() request {
	d := g.r.Intn(g.total)
	var op opKind
	for op = 0; d >= g.spec.weights[op]; op++ {
		d -= g.spec.weights[op]
	}
	q := request{op: op}
	switch op {
	case opGet:
		q.row = g.zipf.Uint64()
	case opGetPK:
		q.pk = g.r.Int63n(int64(g.rows))
	case opUpdate:
		q.row = uint64(g.r.Int63n(int64(g.rows/g.lanes)))*g.lanes + g.lane
		q.val = float64(g.r.Intn(10000))/100 + 1
	case opInsert:
		q.pk = int64(g.rows + g.inserted*g.lanes + g.lane)
		g.inserted++
	case opSumWhere, opGroupSumWhere:
		if g.spec.unique {
			lo := 100 + g.r.Intn(9900)
			hi := lo + uniqueWidthCents[g.r.Intn(len(uniqueWidthCents))]
			q.pred = hybridstore.BetweenFloat(float64(lo)/100, float64(hi)/100)
		} else {
			q.pred = fixedCuts[g.r.Intn(len(fixedCuts))]
		}
	}
	return q
}

// itemRecord is the fixture's (and every insert's) record for key i.
func itemRecord(i uint64) hybridstore.Record {
	rec := hybridstore.Item(i)
	rec[groupCol] = hybridstore.Int32Value(int32(i % groupDom))
	return rec
}

// appendBody renders q as the /v1/exec request body.
func appendBody(b []byte, sid string, stmts *[numOps]int, q request) []byte {
	b = append(b, `{"session_id":"`...)
	b = append(b, sid...)
	b = append(b, `","stmt_id":`...)
	b = strconv.AppendInt(b, int64(stmts[q.op]), 10)
	switch q.op {
	case opGet:
		b = append(b, `,"row":`...)
		b = strconv.AppendUint(b, q.row, 10)
	case opGetPK:
		b = append(b, `,"pk":`...)
		b = strconv.AppendInt(b, q.pk, 10)
	case opUpdate:
		b = append(b, `,"row":`...)
		b = strconv.AppendUint(b, q.row, 10)
		b = append(b, `,"value":`...)
		b = appendFloat(b, q.val)
	case opInsert:
		b = append(b, `,"record":`...)
		b = appendRecordArray(b, itemRecord(uint64(q.pk)))
	case opSumWhere, opGroupSumWhere:
		b = append(b, `,"pred":{"kind":"`...)
		b = append(b, q.pred.Op.String()...)
		b = append(b, '"')
		if q.pred.Op != exec.OpLT {
			b = append(b, `,"lo":`...)
			b = appendFloat(b, q.pred.Lo)
		}
		if q.pred.Op == exec.OpLT || q.pred.Op == exec.OpBetween {
			b = append(b, `,"hi":`...)
			b = appendFloat(b, q.pred.Hi)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendFloat prints the shortest decimal that parses back to the same
// bits, which is also how the server prints floats: a value survives
// the wire exactly, so responses can be compared byte for byte.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendRecordArray renders rec as the JSON array the server both
// accepts in an insert and returns from a point read.
func appendRecordArray(b []byte, rec hybridstore.Record) []byte {
	b = append(b, '[')
	for i, v := range rec {
		if i > 0 {
			b = append(b, ',')
		}
		switch v.Kind {
		case schema.Float64:
			b = appendFloat(b, v.F)
		case schema.Char:
			b = append(b, '"')
			b = append(b, v.S...)
			b = append(b, '"')
		default:
			b = strconv.AppendInt(b, v.I, 10)
		}
	}
	return append(b, ']')
}
