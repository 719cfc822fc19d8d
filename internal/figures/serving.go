package figures

import (
	"fmt"
	"net"
	"time"

	"hybridstore"
	"hybridstore/internal/server"
	"hybridstore/internal/server/loadgen"
)

// The serving panel measures the network serving layer end to end: the
// warp-style load harness drives loopback HTTP against one warm
// device-cached item table through two front ends over the same store —
// one with the shared-scan batching scheduler on, one executing every
// request solo — across a concurrency sweep, every leg starting from a
// merged table. At one client the two paths are near-identical (a
// cohort of one); as concurrency grows the batched server folds
// compatible analytic requests into shared passes and pulls ahead on
// wall-clock QPS.

// ServingClass is one operation class of a leg: wall-clock throughput
// and tail latency in microseconds.
type ServingClass struct {
	Name  string
	Ops   int64
	QPS   float64
	P99us float64
}

// ServingLeg is one (concurrency, mode) cell of the sweep.
type ServingLeg struct {
	Concurrency int
	// Batched reports whether the leg ran through the batching server.
	Batched bool
	// QPS is the aggregate completed-request rate over the leg's measured
	// wall-clock time.
	QPS         float64
	Ops, Errors int64
	// Passes and Slots count the scan cohorts' storage passes during the
	// leg and the distinct plans they carried (server.batch.flushes /
	// .preds): Slots > Passes means passes were shared. Both stay 0 on
	// the unbatched front end.
	Passes, Slots int64
	// Classes holds the per-class breakdown (write, sum, group).
	Classes []ServingClass
}

// ServingSweep is the full panel.
type ServingSweep struct {
	Rows       uint64
	Mix        string
	LegSeconds float64
	// Durable reports whether the item table ran with write-ahead
	// logging on: the write lane then pays a group-committed fsync per
	// acknowledged point write.
	Durable bool
	Legs    []ServingLeg
}

// servingGroups is the group-key cardinality of the serving fixture: a
// dashboard-scale domain (think warehouses or districts), not the item
// generator's near-unique image ids.
const servingGroups = 64

// MeasureServing runs the sweep: for each concurrency, one leg against
// the unbatched front end and one against the batched front end, both
// over the same warm device-cached table. legDur is the wall time per
// leg (default 1.2s). A non-empty walDir opens the item table durably
// from that directory: every acknowledged point write is group-committed
// to the write-ahead log first, so the sweep prices the durable write
// lane instead of the memory-only one.
func MeasureServing(rows uint64, concurrencies []int, legDur time.Duration, walDir string) (*ServingSweep, error) {
	if legDur <= 0 {
		legDur = 1200 * time.Millisecond
	}
	opts := hybridstore.Options{ChunkRows: 256, DeviceCache: true}
	var db *hybridstore.DB
	if walDir != "" {
		opts.Durability = hybridstore.Durability{Tables: []string{"item"}}
		var err error
		if db, err = hybridstore.OpenDir(walDir, opts); err != nil {
			return nil, err
		}
	} else {
		db = hybridstore.Open(opts)
	}
	defer db.Close()
	tbl, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		return nil, err
	}
	defer tbl.Free()
	for i := uint64(0); i < rows; i++ {
		if _, err := tbl.Insert(hybridstore.Item(i)); err != nil {
			return nil, err
		}
	}
	// Re-key i_im_id to a dashboard-cardinality group domain (the raw
	// generator gives near-unique ids, which makes every group-by answer
	// as wide as the table), then fold the rewrites so the legs run over
	// clean base fragments.
	for i := uint64(0); i < rows; i++ {
		if err := tbl.Update(i, 1, hybridstore.Int32Value(int32(i%servingGroups))); err != nil {
			return nil, err
		}
	}
	if err := tbl.Merge(); err != nil {
		return nil, err
	}
	// Warm the device cache before any leg: the sweep compares serving
	// paths, not cold-start transfer costs.
	if _, _, err := tbl.SumFloat64Where(hybridstore.ItemPriceColumn, hybridstore.GtFloat(0)); err != nil {
		return nil, err
	}

	// Two front ends over the one store: solo execution and the batching
	// scheduler.
	urls := make(map[bool]string)
	for _, batched := range []bool{false, true} {
		window := time.Duration(0)
		if batched {
			window = server.DefaultBatchWindow
		}
		s := server.New(server.Config{DB: db, BatchWindow: window})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		go s.Serve(l)
		urls[batched] = "http://" + l.Addr().String()
	}

	const mix = "write=20,sum=60,group=20"
	m, err := loadgen.ParseMix(mix)
	if err != nil {
		return nil, err
	}
	sweep := &ServingSweep{
		Rows:       rows,
		Mix:        mix,
		LegSeconds: legDur.Seconds(),
		Durable:    walDir != "",
	}
	// Every leg starts from a merged table: with 20 % writes over these
	// few rows a leg would otherwise inherit its predecessor's deltas, and
	// "batched" always runs second.
	drive := func(batched bool, conc int, dur time.Duration) (*loadgen.Result, error) {
		if err := tbl.Merge(); err != nil {
			return nil, err
		}
		return loadgen.Run(loadgen.Options{BaseURL: urls[batched], Rows: rows, Concurrency: conc, Duration: dur, Mix: m})
	}
	// Short discarded shakeout leg per front end: connection setup, pool
	// priming and JIT-warm paths happen off the clock.
	for _, batched := range []bool{false, true} {
		if _, err := drive(batched, 4, 150*time.Millisecond); err != nil {
			return nil, err
		}
	}
	for _, conc := range concurrencies {
		for _, batched := range []bool{false, true} {
			before := hybridstore.Metrics()
			res, err := drive(batched, conc, legDur)
			if err != nil {
				return nil, err
			}
			after := hybridstore.Metrics()
			if res.TotalErrs > 0 {
				return nil, fmt.Errorf("figures: serving leg c=%d batched=%v had %d errors", conc, batched, res.TotalErrs)
			}
			leg := ServingLeg{
				Concurrency: conc,
				Batched:     batched,
				QPS:         res.QPS,
				Ops:         res.TotalOps,
				Errors:      res.TotalErrs,
				Passes:      after.Counter("server.batch.flushes") - before.Counter("server.batch.flushes"),
				Slots:       after.Counter("server.batch.preds") - before.Counter("server.batch.preds"),
			}
			for _, c := range res.Classes {
				// The harness reports every class it knows (including the
				// zipfian point-read lane); the panel's published mix runs
				// write/sum/group only, so drop classes that saw no traffic.
				if c.Ops == 0 && c.Shed == 0 && c.Errors == 0 {
					continue
				}
				leg.Classes = append(leg.Classes, ServingClass{
					Name:  c.Name,
					Ops:   c.Ops,
					QPS:   c.QPS,
					P99us: float64(c.P99.Nanoseconds()) / 1e3,
				})
			}
			sweep.Legs = append(sweep.Legs, leg)
		}
	}
	return sweep, nil
}

// Speedup returns batched QPS over unbatched QPS at one concurrency
// (0 when either leg is missing).
func (s *ServingSweep) Speedup(conc int) float64 {
	var batched, unbatched float64
	for _, leg := range s.Legs {
		if leg.Concurrency != conc {
			continue
		}
		if leg.Batched {
			batched = leg.QPS
		} else {
			unbatched = leg.QPS
		}
	}
	if unbatched == 0 {
		return 0
	}
	return batched / unbatched
}

// Tables renders the sweep, one row per (concurrency, mode) leg. The
// per-class columns follow the published mix's class order.
func (s *ServingSweep) Tables() []Table {
	t := Table{
		Caption: []string{fmt.Sprintf("serving panel: loopback HTTP over %d warm device-cached rows, mix %s, %.1fs per leg",
			s.Rows, s.Mix, s.LegSeconds)},
		Columns: []Column{
			{CSV: "clients", Text: "clients"},
			{CSV: "mode", Text: "mode"},
			{CSV: "qps", CSVVerb: "%.1f", Text: "qps", TextVerb: "%.0f"},
			{CSV: "ops"},
			{CSV: "errors"},
		},
	}
	if s.Durable {
		t.Caption = append(t.Caption, "durable: point writes group-commit to the write-ahead log before acknowledging")
	}
	t.Caption = append(t.Caption, "batched = shared-scan batching scheduler; unbatched = every request executes solo")
	classes := []string{"write", "sum", "group"}
	for _, class := range classes {
		t.Columns = append(t.Columns,
			Column{CSV: class + "_qps", CSVVerb: "%.1f"},
			Column{CSV: class + "_p99_us", CSVVerb: "%.1f", Text: class + " p99", TextVerb: "%.0fµs"})
	}
	t.Columns = append(t.Columns, Column{Text: "speedup"})
	for _, leg := range s.Legs {
		mode, speed := "unbatched", ""
		if leg.Batched {
			mode, speed = "batched", fmt.Sprintf("%.2fx", s.Speedup(leg.Concurrency))
		}
		row := []any{leg.Concurrency, mode, leg.QPS, leg.Ops, leg.Errors}
		for i := range classes {
			if i < len(leg.Classes) {
				row = append(row, leg.Classes[i].QPS, leg.Classes[i].P99us)
			} else {
				row = append(row, nil, nil)
			}
		}
		t.Rows = append(t.Rows, append(row, speed))
	}
	return []Table{t}
}
