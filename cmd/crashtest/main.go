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
// directory, exercising recovery-then-continue. Results land in -csv
// (recovery_panel.csv by default); exit status 1 means a lost or corrupt
// acknowledged write. What the log costs is measured elsewhere
// (htapbench -panel serving -wal, loadgen -selfserve -wal, the
// oltp-durable workload of bench/).
//
// Usage:
//
//	crashtest [-rounds N] [-acks N] [-csv recovery_panel.csv] [-dir D]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"hybridstore"
)

// txRows is the number of dedicated rows (primary keys 0..txRows-1) the
// transactional update lane cycles over; the insert lane starts above.
const txRows = 64

func opts() hybridstore.Options {
	return hybridstore.Options{
		ChunkRows:  128,
		HotChunks:  1,
		Durability: hybridstore.Durability{Tables: []string{"accounts"}},
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
	csvPath := flag.String("csv", "recovery_panel.csv", "write the recovery panel to this CSV file (empty = skip)")
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
			writePanel(*csvPath, *rounds, m, rows, lost)
			fmt.Fprintf(os.Stderr, "crashtest: %d acknowledged write(s) lost or corrupt\n", lost)
			os.Exit(1)
		}
	}

	writePanel(*csvPath, *rounds, m, recoveredRows, 0)
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

// writePanel emits the recovery panel CSV consumed by CI.
func writePanel(path string, rounds int, m *model, rows uint64, lost int) {
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
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "crashtest: csv:", err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}
