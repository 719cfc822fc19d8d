package hybridstore_test

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hybridstore"
	"hybridstore/internal/device"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/server"
)

// metricCatalogue reads the catalogue table of DESIGN.md §6: one row per
// metric name or family, `<x>` standing for one dotted-name segment and
// `{a,b}` for alternatives.
func metricCatalogue(t *testing.T) map[string]*regexp.Regexp {
	t.Helper()
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "### Metric catalogue")
	if !ok {
		t.Fatal("DESIGN.md has no metric catalogue")
	}
	section, _, _ = strings.Cut(section, "\n#")
	segment := regexp.MustCompile(`<[a-z]+>`)
	choice := regexp.MustCompile(`\\\{([^}]*)\\\}`)
	rows := map[string]*regexp.Regexp{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(section, -1) {
		pat := segment.ReplaceAllString(regexp.QuoteMeta(m[1]), `[a-z0-9_-]+`)
		pat = choice.ReplaceAllStringFunc(pat, func(c string) string {
			return "(" + strings.ReplaceAll(c[2:len(c)-2], ",", "|") + ")"
		})
		rows[m[1]] = regexp.MustCompile("^" + pat + "$")
	}
	return rows
}

// TestMetricCatalogue holds the registry to DESIGN.md §6: after a mixed
// HTAP round (the shape of examples/metrics) and one served request
// per wire op, every registered name matches a catalogue row, and every
// row names something registered.
func TestMetricCatalogue(t *testing.T) {
	db := hybridstore.Open(hybridstore.Options{
		Policy: hybridstore.MorselDriven, ChunkRows: 256, HotChunks: 1,
		DevicePlacement: true, DeviceCache: true, Compress: true,
		ResultCache: hybridstore.ResultCacheOptions{Cap: 1 << 20},
	})
	tbl, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Free()
	for i := uint64(0); i < 2048; i++ {
		if _, err := tbl.Insert(hybridstore.Item(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Adapt(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	// The multidevice panel's fleet registers a family per card.
	device.NewEnv(2, perfmodel.DefaultDevice(), nil)
	srv := server.New(server.Config{DB: db})
	sid, err := srv.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	price := hybridstore.ItemPriceColumn
	for _, req := range []struct {
		op          string
		col, keyCol int
		args        string
	}{
		{"get", 0, 0, `"row":3`},
		{"get_pk", 0, 0, `"pk":3`},
		{"update", price, 0, `"row":3,"value":2.5`},
		{"insert", 0, 0, `"record":[9001,17,"itmx","ab",3.5]`},
		{"sum", price, 0, ``},
		{"sum_where", price, 0, `"pred":{"kind":"lt","hi":50}`},
		{"group_sum_where", price, 1, `"pred":{"kind":"between","lo":1,"hi":9}`},
	} {
		id, err := srv.Prepare(sid, req.op, "item", req.col, req.keyCol)
		if err != nil {
			t.Fatalf("prepare %s: %v", req.op, err)
		}
		body := fmt.Sprintf(`{"session_id":%q,"stmt_id":%d`, sid, id)
		if req.args != "" {
			body += "," + req.args
		}
		if out, code := srv.Exec([]byte(body+"}"), nil); code != 200 {
			t.Fatalf("%s: %d %s", req.op, code, out)
		}
	}

	rows := metricCatalogue(t)
	used := map[string]bool{}
	counters, histograms := hybridstore.Metrics().Names()
	names := append(counters, histograms...)
	sort.Strings(names)
	for _, name := range names {
		found := false
		for row, re := range rows {
			if re.MatchString(name) {
				used[row], found = true, true
			}
		}
		if !found {
			t.Errorf("metric %q is registered but not in DESIGN.md §6's catalogue: document who reads it, or delete it", name)
		}
	}
	for row := range rows {
		if !used[row] {
			t.Errorf("catalogue row %q matches no registered metric", row)
		}
	}
}
