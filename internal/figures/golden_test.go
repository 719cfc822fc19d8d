package figures

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ from the current output")

// golden compares got byte for byte against testdata/file, or rewrites
// the file under -update (explain any diff that produces).
func golden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/figures -update)", err)
	}
	if string(want) != got {
		t.Errorf("%s drifted:\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// skeleton keeps the deterministic half of a wall-clock panel: per table
// the caption and header of the text form with runs of spaces collapsed,
// the first cell of every row, and the CSV header line.
func skeleton(tables []Table) string {
	var b strings.Builder
	for _, tb := range tables {
		body := false
		for _, line := range strings.Split(tb.Text(), "\n") {
			switch {
			case line == "":
				continue
			case strings.HasPrefix(line, "---"):
				body = true
				continue
			case body:
				line = strings.Fields(line)[0]
			default:
				line = strings.Join(strings.Fields(line), " ")
			}
			b.WriteString(line + "\n")
		}
		csv := tb.CSV()
		b.WriteString(csv[:strings.Index(csv, "\n")+1])
	}
	return b.String()
}

var ranPanels = map[string][]Table{}

// panelTables runs a registry entry at its published geometry, once per
// test binary. The parallel host policies price their worker count into
// the simulated charge, so the run pins GOMAXPROCS to 1 (the value the
// goldens were generated at) instead of inheriting the machine's.
func panelTables(t *testing.T, name string) []Table {
	t.Helper()
	if tables, ok := ranPanels[name]; ok {
		return tables
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	ranPanels[name] = tables
	return tables
}

// TestModelPanelsGolden regenerates every deterministic model panel at
// the htapbench geometry and compares both rendered forms byte for byte
// against testdata/. These panels report perfmodel simulated time only,
// so any diff means a change moved a simulated charge, a kernel count or
// a byte count — intended changes rerun with -update and explain the
// diff. The wall-clock panels (selectivity, resultcache) pin
// their deterministic half in their own tests.
func TestModelPanelsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("full-geometry sweeps; the golden comparison runs in the non-race job")
	}
	for _, name := range []string{"1", "2", "3", "4", "devicecache", "compression", "fusion", "multidevice"} {
		file := name
		if len(name) == 1 {
			file = "panel" + name
		}
		tb := panelTables(t, name)[0]
		golden(t, file+".csv", tb.CSV())
		golden(t, file+".txt", tb.Text())
	}
}

// TestRenderAndCSV checks both rendered forms of every registry panel:
// neither is empty, the CSV header is the declared column list and both
// forms carry one line per row.
func TestRenderAndCSV(t *testing.T) {
	if raceEnabled {
		t.Skip("full-geometry sweeps")
	}
	for _, e := range Registry {
		var hasText, hasCSV bool
		for _, tb := range panelTables(t, e.Name) {
			if out := tb.Text(); out != "" {
				hasText = true
				if got, want := strings.Count(out, "\n"), len(tb.Caption)+2+len(tb.Rows)+len(tb.Footer); got != want {
					t.Errorf("%s: text form has %d lines, want %d", e.Name, got, want)
				}
			}
			if out := tb.CSV(); out != "" {
				hasCSV = true
				var header []string
				for _, c := range tb.Columns {
					if c.CSV != "" {
						header = append(header, c.CSV)
					}
				}
				lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
				if lines[0] != strings.Join(header, ",") || len(lines) != 1+len(tb.Rows) {
					t.Errorf("%s: CSV has header %q and %d lines, want %q and %d", e.Name, lines[0], len(lines), header, 1+len(tb.Rows))
				}
			}
		}
		if !hasText || !hasCSV {
			t.Errorf("%s: a rendered form is empty (text %v, CSV %v)", e.Name, hasText, hasCSV)
		}
	}
}
