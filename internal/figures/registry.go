package figures

import (
	"fmt"
	"strings"
)

// Entry is one named panel: Run regenerates it at the published geometry
// (the one the goldens in testdata/ pin) and returns its tables.
type Entry struct {
	Name string
	Run  func() ([]Table, error)
}

// Registry lists every panel cmd/htapbench can regenerate, in the order
// its usage prints them. Adding a panel is one entry here and one column
// list in the sweep's Tables.
var Registry = []Entry{
	{"0", modelPanels(1, 2, 3, 4)},
	{"1", modelPanels(1)},
	{"2", modelPanels(2)},
	{"3", modelPanels(3)},
	{"4", modelPanels(4)},
	{"selectivity", func() ([]Table, error) {
		return tablesOf(MeasureSelectivity(640_000, 64, DefaultSelectivities(), 3))
	}},
	{"devicecache", func() ([]Table, error) { return tablesOf(MeasureDeviceCache(262_144, 64, 3, 4)) }},
	{"compression", func() ([]Table, error) { return tablesOf(MeasureCompression(4_194_304, 64)) }},
	{"fusion", func() ([]Table, error) {
		return tablesOf(MeasureFusion(1_048_576, 64, DefaultFusionCards(), DefaultFusionSelectivities()))
	}},
	// Fleets of 1, 2 and 4 cards at 10%, 50% and 100% selectivity.
	{"multidevice", func() ([]Table, error) {
		return tablesOf(MeasureMultiDevice(1_048_576, 64, []int{1, 2, 4}, []float64{0.10, 0.50, 1.00}))
	}},
	{"resultcache", func() ([]Table, error) { return tablesOf(MeasureResultCache(262_144, 64)) }},
}

// Names lists the registry's panel names in order.
func Names() []string {
	names := make([]string, len(Registry))
	for i, e := range Registry {
		names[i] = e.Name
	}
	return names
}

// Lookup returns the registry entry with the given name; the error of an
// unknown name lists every known one.
func Lookup(name string) (Entry, error) {
	for _, e := range Registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("figures: no panel %q (want %s)", name, strings.Join(Names(), ", "))
}

// modelPanels prices the numbered Figure-2 panels on the paper-calibrated
// platform model at the paper's sweep sizes.
func modelPanels(numbers ...int) func() ([]Table, error) {
	return func() ([]Table, error) {
		c := Default()
		all := []Panel{
			c.Panel1(DefaultSizes(1)),
			c.Panel2(DefaultSizes(2)),
			c.Panel3(DefaultSizes(3)),
			c.Panel4(DefaultSizes(4)),
		}
		tables := make([]Table, len(numbers))
		for i, n := range numbers {
			tables[i] = all[n-1].Table()
		}
		return tables, nil
	}
}

// tablesOf turns a sweep's (result, error) pair into the tables an Entry
// returns.
func tablesOf(s interface{ Tables() []Table }, err error) ([]Table, error) {
	if err != nil {
		return nil, err
	}
	return s.Tables(), nil
}
