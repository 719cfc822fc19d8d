package main

import (
	"bytes"
	"strings"
	"testing"

	"hybridstore/internal/figures"
)

// TestCSVStdoutIsOnlyCSV is the regression test for the -csv trailer:
// the findings block used to follow the last record on stdout, so the
// *_panel.csv artifacts CI writes with `> file` did not parse. Every
// blank-line-separated block of stdout must be one table — an optional
// "# label" line, then records of one field count — and the findings
// must have moved to stderr.
func TestCSVStdoutIsOnlyCSV(t *testing.T) {
	for _, name := range []string{"0", "1", "2", "3", "4", "devicecache"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-panel", name, "-csv"}, &stdout, &stderr); code != 0 {
			t.Fatalf("-panel %s -csv: exit %d: %s", name, code, stderr.String())
		}
		for _, block := range strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n\n") {
			fields := 0
			for _, line := range strings.Split(block, "\n") {
				if strings.HasPrefix(line, "#") {
					continue
				}
				n := strings.Count(line, ",") + 1
				if fields == 0 {
					fields = n
				}
				if n < 2 || n != fields {
					t.Errorf("-panel %s -csv: stdout line %q has %d fields, want %d", name, line, n, fields)
				}
			}
		}
		if !strings.Contains(stderr.String(), "paper findings") {
			t.Errorf("-panel %s -csv: findings missing from stderr", name)
		}
	}
}

// TestUnknownPanelListsRegistry checks the usage error is derived from
// the registry, not spelled by hand.
func TestUnknownPanelListsRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-panel", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, name := range figures.Names() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("error %q does not list panel %q", stderr.String(), name)
		}
	}
}
