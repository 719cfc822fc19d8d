// Command crashtest is the durability acceptance harness: it proves
// that a SIGKILLed serving process loses no acknowledged write.
//
// The parent re-executes itself with -child. The child opens a durable
// store (OpenDir + write-ahead log), drives a mixed write load —
// sequential inserts plus multi-operation transactional updates — and
// prints one acknowledgment line per write AFTER the write returns
// (i.e. after its log record is fsynced). Mid-load, the parent kills
// the child with SIGKILL — no shutdown hook, no flush, the process just
// dies — then reopens the same directory in-process and checks:
//
//   - every acknowledged insert is present and bit-identical to what
//     the generator produced for its primary key;
//   - every row touched by an acknowledged transactional update holds a
//     value at least as new as the last acknowledged one (a later,
//     unacknowledged commit may legitimately have reached the log);
//   - unacknowledged inserts that did survive are fully intact — the
//     torn tail can drop suffix writes, never corrupt them.
//
// Multiple -rounds chain kill → recover → keep writing on the same
// directory, exercising recovery-then-continue. With -bench-writes the
// tool also prices the durable write lane: identical concurrent insert
// storms against a memory-only store and a WAL-on store, reporting
// per-write p50/p99 and the p99 overhead percentage. Results land in
// -csv (recovery_panel.csv by default); exit status 1 means a lost or
// corrupt acknowledged write.
//
// Usage:
//
//	crashtest [-rounds N] [-acks N] [-bench-writes N] [-csv recovery_panel.csv] [-dir D]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"

	"hybridstore"
	"hybridstore/internal/server"
	"hybridstore/internal/server/loadgen"
)

// txRows is the number of dedicated rows (primary keys 0..txRows-1) the
// transactional update lane cycles over; the insert lane starts above.
const txRows = 64

// groupWindow is the -group-window flag: how long a group-commit flush
// leader holds the door for cohort commits.
var groupWindow time.Duration

func opts() hybridstore.Options {
	return hybridstore.Options{
		ChunkRows: 128,
		HotChunks: 1,
		Durability: hybridstore.Durability{
			Tables:      []string{"accounts"},
			GroupWindow: groupWindow,
		},
	}
}

func accountSchema() (*hybridstore.Schema, error) {
	return hybridstore.NewSchema(
		hybridstore.Int64Attr("id"),
		hybridstore.CharAttr("name", 8),
		hybridstore.Float64Attr("balance"),
	)
}

// insertRec is the deterministic record for insert-lane primary key pk:
// the parent regenerates it independently to check recovered rows
// bit-for-bit.
func insertRec(pk uint64) hybridstore.Record {
	return hybridstore.Record{
		hybridstore.IntValue(int64(pk)),
		hybridstore.CharValue("w"),
		hybridstore.FloatValue(float64(pk)*3 + 1),
	}
}

func main() {
	childMode := flag.Bool("child", false, "run as the killable write-load child (internal)")
	dir := flag.String("dir", "", "durable DB directory (default: a fresh temp dir, removed on success)")
	rounds := flag.Int("rounds", 2, "kill/recover cycles")
	acks := flag.Int("acks", 400, "acknowledged writes per round before the SIGKILL")
	benchWrites := flag.Int("bench-writes", 2000, "inserts per lane for the WAL overhead comparison (0 = skip)")
	csvPath := flag.String("csv", "recovery_panel.csv", "write the recovery panel to this CSV file (empty = skip)")
	flag.DurationVar(&groupWindow, "group-window", 0, "group-commit window for every durable store the harness opens")
	flag.Parse()

	if *childMode {
		if err := runChild(*dir); err != nil {
			fmt.Fprintln(os.Stderr, "crashtest child:", err)
			os.Exit(1)
		}
		return
	}

	workDir := *dir
	if workDir == "" {
		d, err := os.MkdirTemp("", "crashtest-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "crashtest:", err)
			os.Exit(1)
		}
		workDir = d
		defer os.RemoveAll(d)
	}

	m := &model{lastTx: make(map[uint64]float64)}
	var recoveredRows uint64
	for round := 0; round < *rounds; round++ {
		if err := runRound(workDir, *acks, m); err != nil {
			fmt.Fprintf(os.Stderr, "crashtest: round %d: %v\n", round, err)
			os.Exit(1)
		}
		rows, lost := verify(workDir, m)
		recoveredRows = rows
		fmt.Printf("round %d: killed after %d acked inserts + %d acked commits; recovered %d rows, %d lost\n",
			round, m.inserts, m.commits, rows, lost)
		if lost > 0 {
			writePanel(*csvPath, *rounds, m, rows, lost, nil)
			fmt.Fprintf(os.Stderr, "crashtest: %d acknowledged write(s) lost or corrupt\n", lost)
			os.Exit(1)
		}
	}

	var bench *overhead
	if *benchWrites > 0 {
		b, err := measureOverhead(*benchWrites)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crashtest: overhead bench:", err)
			os.Exit(1)
		}
		bench = b
		fmt.Printf("storage lane: wal-off p50 %.1fµs p99 %.1fµs | wal-on p50 %.1fµs p99 %.1fµs | p99 overhead %+.1f%%\n",
			bench.offP50, bench.offP99, bench.onP50, bench.onP99, bench.p99Pct())
		fmt.Printf("serving write lane: wal-off p50 %.1fµs p99 %.1fµs | wal-on p50 %.1fµs p99 %.1fµs | p99 overhead %+.1f%%\n",
			bench.servOffP50, bench.servOffP99, bench.servOnP50, bench.servOnP99, bench.servP99Pct())
		fmt.Printf("serving mixed lane: wal-off p50 %.1fµs p99 %.1fµs | wal-on p50 %.1fµs p99 %.1fµs | p99 overhead %+.1f%%\n",
			bench.mixOffP50, bench.mixOffP99, bench.mixOnP50, bench.mixOnP99, bench.mixP99Pct())
	}
	writePanel(*csvPath, *rounds, m, recoveredRows, 0, bench)
	fmt.Printf("crashtest: %d round(s), every acknowledged write recovered\n", *rounds)
}

// model accumulates what the parent saw acknowledged across rounds.
type model struct {
	inserts uint64             // acked insert count; acked pks are txRows..txRows+inserts-1
	commits uint64             // acked transactional commits
	lastTx  map[uint64]float64 // row -> last acked committed balance
}

// runRound spawns the child on dir, reads acknowledgment lines until
// the threshold, SIGKILLs it, and folds every line read (including ones
// raced out after the kill decision — they were acknowledged) into m.
func runRound(dir string, ackTarget int, m *model) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-child", "-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	killed := false
	acked := 0
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "ready":
			continue
		case strings.HasPrefix(line, "a "):
			var pk uint64
			if _, err := fmt.Sscanf(line, "a %d", &pk); err != nil {
				return fmt.Errorf("bad ack line %q: %v", line, err)
			}
			// pk can run ahead of the acked count: an insert in flight at
			// the previous kill may have reached the log un-acked, and the
			// child resumes above it. It can never run behind.
			if pk < txRows+m.inserts {
				return fmt.Errorf("child acked insert pk %d, expected >= %d", pk, txRows+m.inserts)
			}
			m.inserts = pk - txRows + 1
		case strings.HasPrefix(line, "t "):
			var row uint64
			var val float64
			if _, err := fmt.Sscanf(line, "t %d %g", &row, &val); err != nil {
				return fmt.Errorf("bad ack line %q: %v", line, err)
			}
			m.lastTx[row] = val
			m.commits++
		default:
			return fmt.Errorf("unexpected child output %q", line)
		}
		acked++
		if acked >= ackTarget && !killed {
			// SIGKILL: the child gets no chance to flush or close anything.
			if err := cmd.Process.Kill(); err != nil {
				return err
			}
			killed = true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !killed {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("child exited after only %d acks (target %d)", acked, ackTarget)
	}
	cmd.Wait() // the kill is the expected exit
	return nil
}

// verify reopens the directory and counts violations of the durability
// contract. It returns the recovered row count and the number of lost
// or corrupt acknowledged writes.
func verify(dir string, m *model) (rows uint64, lost int) {
	db, err := hybridstore.OpenDir(dir, opts())
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashtest: recovery failed:", err)
		return 0, int(m.inserts) + len(m.lastTx)
	}
	defer db.Close()
	tbl := db.Table("accounts")
	if tbl == nil {
		fmt.Fprintln(os.Stderr, "crashtest: accounts table not recovered")
		return 0, int(m.inserts) + len(m.lastTx)
	}
	rows = tbl.Rows()
	if rows < txRows+m.inserts {
		lost += int(txRows + m.inserts - rows)
	}
	// Every recovered insert-lane row — acknowledged or an in-flight
	// survivor — must match the generator exactly.
	for row := uint64(txRows); row < rows; row++ {
		rec, err := tbl.Get(row)
		if err != nil || !rec.Equal(insertRec(row)) {
			fmt.Fprintf(os.Stderr, "crashtest: row %d corrupt: %v (%v)\n", row, rec, err)
			lost++
		}
	}
	// Transactional rows: monotone counters, so recovered >= last acked.
	for row, want := range m.lastTx {
		rec, err := tbl.Get(row)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashtest: tx row %d unreadable: %v\n", row, err)
			lost++
			continue
		}
		if rec[2].F < want {
			fmt.Fprintf(os.Stderr, "crashtest: tx row %d rolled back to %g, acked %g\n", row, rec[2].F, want)
			lost++
		}
	}
	return rows, lost
}

// runChild opens (or recovers) the durable store and writes until
// killed, acknowledging each write on stdout only after it returned —
// i.e. after its log record reached stable storage.
func runChild(dir string) error {
	if dir == "" {
		return fmt.Errorf("-child needs -dir")
	}
	db, err := hybridstore.OpenDir(dir, opts())
	if err != nil {
		return err
	}
	defer db.Close()
	tbl := db.Table("accounts")
	if tbl == nil {
		s, err := accountSchema()
		if err != nil {
			return err
		}
		if tbl, err = db.CreateTable("accounts", s); err != nil {
			return err
		}
		for r := uint64(0); r < txRows; r++ {
			rec := hybridstore.Record{
				hybridstore.IntValue(int64(r)),
				hybridstore.CharValue("base"),
				hybridstore.FloatValue(0),
			}
			if _, err := tbl.Insert(rec); err != nil {
				return err
			}
		}
	}
	next := tbl.Rows() // insert-lane pks equal row indexes
	ctr := float64(1)  // tx counter: resume above anything already committed
	for r := uint64(0); r < txRows; r++ {
		rec, err := tbl.Get(r)
		if err != nil {
			return err
		}
		if rec[2].F >= ctr {
			ctr = rec[2].F + 1
		}
	}
	fmt.Println("ready")
	for i := uint64(0); ; i++ {
		if i%4 == 3 {
			// A multi-operation transaction: both updates commit atomically
			// through one logged commit record.
			r := i % txRows
			x := tbl.Begin()
			if err := x.Update(r, 2, hybridstore.FloatValue(ctr)); err != nil {
				return err
			}
			if err := x.Update((r+1)%txRows, 2, hybridstore.FloatValue(ctr)); err != nil {
				return err
			}
			if err := x.Commit(); err != nil {
				return err
			}
			fmt.Printf("t %d %g\n", r, ctr)
			fmt.Printf("t %d %g\n", (r+1)%txRows, ctr)
			ctr++
		} else {
			if _, err := tbl.Insert(insertRec(next)); err != nil {
				return err
			}
			fmt.Printf("a %d\n", next)
			next++
		}
	}
}

// overhead holds two write-lane comparisons, memory-only vs
// write-ahead-logged: the raw storage lane (direct Insert calls under
// an 8-lane storm — fsync-bound by construction, since a memory insert
// costs under a microsecond) and the serving lane (HTTP point writes
// through the batching server — the acceptance-relevant number, where
// request handling dominates and the group-committed fsync amortizes
// over concurrent writers).
type overhead struct {
	offP50, offP99         float64 // raw storage lane, microseconds
	onP50, onP99           float64
	servOffP50, servOffP99 float64 // write-only serving lane over loopback HTTP
	servOnP50, servOnP99   float64
	mixOffP50, mixOffP99   float64 // standard serving mix (write=20,sum=60,group=20)
	mixOnP50, mixOnP99     float64
}

func pctOver(on, off float64) float64 {
	if off == 0 {
		return 0
	}
	return (on - off) / off * 100
}

func (o *overhead) p99Pct() float64     { return pctOver(o.onP99, o.offP99) }
func (o *overhead) servP99Pct() float64 { return pctOver(o.servOnP99, o.servOffP99) }
func (o *overhead) mixP99Pct() float64  { return pctOver(o.mixOnP99, o.mixOffP99) }

const benchLanes = 8

// measureOverhead runs the same concurrent insert storm against a
// memory-only store and a WAL-on store and compares per-write latency.
// Group commit is what keeps the durable lane close: concurrent writers
// share flush leaders, so an fsync amortizes over the cohort.
func measureOverhead(perLane int) (*overhead, error) {
	off, err := benchStore("", perLane)
	if err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp("", "crashtest-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	on, err := benchStore(walDir, perLane)
	if err != nil {
		return nil, err
	}
	o := &overhead{
		offP50: percentile(off, 0.50), offP99: percentile(off, 0.99),
		onP50: percentile(on, 0.50), onP99: percentile(on, 0.99),
	}
	if o.servOffP50, o.servOffP99, err = servingLane(false, false); err != nil {
		return nil, err
	}
	if o.servOnP50, o.servOnP99, err = servingLane(true, false); err != nil {
		return nil, err
	}
	if o.mixOffP50, o.mixOffP99, err = servingLane(false, true); err != nil {
		return nil, err
	}
	if o.mixOnP50, o.mixOnP99, err = servingLane(true, true); err != nil {
		return nil, err
	}
	return o, nil
}

// servingLane measures HTTP request latency through the batching server
// over a warm item fixture, optionally durable. With mixed=false every
// request is a point write — the lane that pays the fsync directly.
// With mixed=true requests follow the standard serving mix
// (write=20,sum=60,group=20) and the percentiles cover all classes: the
// durability question a dashboard workload actually asks.
func servingLane(durable, mixed bool) (p50, p99 float64, err error) {
	hopts := hybridstore.Options{ChunkRows: 256}
	var db *hybridstore.DB
	if durable {
		dir, err := os.MkdirTemp("", "crashtest-serve-")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		hopts.Durability = hybridstore.Durability{Tables: []string{"item"}, GroupWindow: groupWindow}
		if db, err = hybridstore.OpenDir(dir, hopts); err != nil {
			return 0, 0, err
		}
	} else {
		db = hybridstore.Open(hopts)
	}
	defer db.Close()
	tbl, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		return 0, 0, err
	}
	defer tbl.Free()
	const rows = 4096
	for i := uint64(0); i < rows; i++ {
		if _, err := tbl.Insert(hybridstore.Item(i)); err != nil {
			return 0, 0, err
		}
	}
	s := server.New(server.Config{DB: db, BatchWindow: server.DefaultBatchWindow})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	go s.Serve(l)

	c, err := loadgen.Dial(&http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: benchLanes}},
		"http://"+l.Addr().String(), "crashtest")
	if err != nil {
		return 0, 0, err
	}
	write, err := c.Prepare(`"op":"update","table":"item","col":4`)
	if err != nil {
		return 0, 0, err
	}
	sum, err := c.Prepare(`"op":"sum_where","table":"item","col":4`)
	if err != nil {
		return 0, 0, err
	}
	group, err := c.Prepare(`"op":"group_sum_where","table":"item","col":4,"key_col":1`)
	if err != nil {
		return 0, 0, err
	}
	preds := loadgen.PredCuts

	// Measured with exact per-request timestamps: loadgen's log2-bucketed
	// histogram is only accurate to a factor of two, far too coarse for
	// an overhead-percentage comparison.
	const warmup, perLane = 100, 600
	lanes := make([][]float64, benchLanes)
	errs := make(chan error, benchLanes)
	var wg sync.WaitGroup
	for w := 0; w < benchLanes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]float64, 0, perLane)
			for i := 0; i < warmup+perLane; i++ {
				// The mixed lane follows write=20,sum=60,group=20 per
				// five requests; the write lane is writes only.
				stmt, args := sum, `"pred":`+preds[(w+i)%len(preds)].Wire
				switch slot := i % 5; {
				case !mixed || slot == 0:
					stmt, args = write, fmt.Sprintf(`"row":%d,"value":%d`, uint64(w*131+i*17)%rows, i%100)
				case slot == 4:
					stmt = group
				}
				start := time.Now()
				if _, err := c.Exec(stmt, args); err != nil {
					errs <- fmt.Errorf("serving lane (durable=%v mixed=%v): %w", durable, mixed, err)
					return
				}
				if i >= warmup {
					lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
				}
			}
			lanes[w] = lat
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	var all []float64
	for _, l := range lanes {
		all = append(all, l...)
	}
	return percentile(all, 0.50), percentile(all, 0.99), nil
}

// benchStore inserts benchLanes*perLane rows concurrently and returns
// every per-insert latency in microseconds. Empty dir = memory-only.
func benchStore(dir string, perLane int) ([]float64, error) {
	var db *hybridstore.DB
	var err error
	if dir != "" {
		db, err = hybridstore.OpenDir(dir, opts())
		if err != nil {
			return nil, err
		}
	} else {
		db = hybridstore.Open(hybridstore.Options{ChunkRows: 128, HotChunks: 1})
	}
	defer db.Close()
	s, err := accountSchema()
	if err != nil {
		return nil, err
	}
	tbl, err := db.CreateTable("accounts", s)
	if err != nil {
		return nil, err
	}
	defer tbl.Free()

	lanes := make([][]float64, benchLanes)
	errs := make(chan error, benchLanes)
	var wg sync.WaitGroup
	for w := 0; w < benchLanes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]float64, 0, perLane)
			for i := 0; i < perLane; i++ {
				pk := uint64(w*perLane + i)
				start := time.Now()
				_, err := tbl.Insert(insertRec(pk))
				if err != nil {
					errs <- err
					return
				}
				lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
			}
			lanes[w] = lat
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var all []float64
	for _, l := range lanes {
		all = append(all, l...)
	}
	return all, nil
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// writePanel emits the recovery panel CSV consumed by CI.
func writePanel(path string, rounds int, m *model, rows uint64, lost int, b *overhead) {
	if path == "" {
		return
	}
	var sb strings.Builder
	sb.WriteString("metric,value\n")
	fmt.Fprintf(&sb, "rounds,%d\n", rounds)
	fmt.Fprintf(&sb, "acked_inserts,%d\n", m.inserts)
	fmt.Fprintf(&sb, "acked_commits,%d\n", m.commits)
	fmt.Fprintf(&sb, "recovered_rows,%d\n", rows)
	fmt.Fprintf(&sb, "lost_writes,%d\n", lost)
	if b != nil {
		fmt.Fprintf(&sb, "storage_waloff_p50_us,%.1f\n", b.offP50)
		fmt.Fprintf(&sb, "storage_waloff_p99_us,%.1f\n", b.offP99)
		fmt.Fprintf(&sb, "storage_walon_p50_us,%.1f\n", b.onP50)
		fmt.Fprintf(&sb, "storage_walon_p99_us,%.1f\n", b.onP99)
		fmt.Fprintf(&sb, "storage_walon_p99_overhead_pct,%.1f\n", b.p99Pct())
		fmt.Fprintf(&sb, "serving_waloff_write_p50_us,%.1f\n", b.servOffP50)
		fmt.Fprintf(&sb, "serving_waloff_write_p99_us,%.1f\n", b.servOffP99)
		fmt.Fprintf(&sb, "serving_walon_write_p50_us,%.1f\n", b.servOnP50)
		fmt.Fprintf(&sb, "serving_walon_write_p99_us,%.1f\n", b.servOnP99)
		fmt.Fprintf(&sb, "serving_walon_write_p99_overhead_pct,%.1f\n", b.servP99Pct())
		fmt.Fprintf(&sb, "serving_waloff_mixed_p50_us,%.1f\n", b.mixOffP50)
		fmt.Fprintf(&sb, "serving_waloff_mixed_p99_us,%.1f\n", b.mixOffP99)
		fmt.Fprintf(&sb, "serving_walon_mixed_p50_us,%.1f\n", b.mixOnP50)
		fmt.Fprintf(&sb, "serving_walon_mixed_p99_us,%.1f\n", b.mixOnP99)
		fmt.Fprintf(&sb, "serving_walon_mixed_p99_overhead_pct,%.1f\n", b.mixP99Pct())
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "crashtest: csv:", err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}
