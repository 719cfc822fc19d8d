package figures

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.csv from the current model output")

// TestModelPanelsGolden regenerates every deterministic model panel at
// the htapbench default geometry and compares its CSV byte for byte
// against testdata/. These panels report perfmodel simulated time only,
// so any diff means a change moved a simulated charge, a kernel count or
// a byte count — intended changes rerun with -update and explain the
// diff. The wall-clock panels (selectivity, serving, resultcache) stay
// out. The parallel host policies price their worker count into the
// simulated charge, so the test pins GOMAXPROCS to 1 (the value the
// goldens were generated at) instead of inheriting the machine's.
func TestModelPanelsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("full-geometry sweeps; the golden comparison runs in the non-race job")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	got := map[string]string{}
	panels, err := Default().Panels(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range panels {
		got[fmt.Sprintf("panel%d", p.Number)] = p.CSV()
	}
	dc, err := MeasureDeviceCache(262_144, 64, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	got["devicecache"] = dc.CSV()
	cs, err := MeasureCompression(4_194_304, 64)
	if err != nil {
		t.Fatal(err)
	}
	got["compression"] = cs.CSV()
	fs, err := MeasureFusion(1_048_576, 64, DefaultFusionCards(), DefaultFusionSelectivities())
	if err != nil {
		t.Fatal(err)
	}
	got["fusion"] = fs.CSV()
	md, err := MeasureMultiDevice(1_048_576, 64, DefaultMultiDeviceCounts(), DefaultMultiDeviceSelectivities())
	if err != nil {
		t.Fatal(err)
	}
	got["multidevice"] = md.CSV()

	for name, csv := range got {
		path := filepath.Join("testdata", name+".csv")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (generate with go test ./internal/figures -run ModelPanelsGolden -update)", err)
		}
		if string(want) != csv {
			t.Errorf("%s drifted from %s:\n--- want\n%s--- got\n%s", name, path, want, csv)
		}
	}
}
