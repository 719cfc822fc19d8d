package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"hybridstore/internal/compress"
	"hybridstore/internal/device"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/obs"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/stats"
)

// solo runs sc, a scan of one result, on ex.
func solo(ex ScanExecutor, sc Scan) (Result, error) {
	var out [1]Result
	err := ex.Scan(sc, out[:])
	return out[0], err
}

// scanOn runs one scan kind over key column 0 / value column 1 on an
// executor.
func scanOn(ex ScanExecutor, op Kind, keys, vals []Piece, p Pred) (Result, error) {
	return solo(ex, Scan{Plan: Plan{Op: op, KeyCol: 0, Col: 1, Pred: p}.Normalize(), Keys: keys, Vals: vals})
}

// scanKinds are the four aggregate kinds a Scan carries.
var scanKinds = []Kind{KindSum, KindSumWhere, KindGroupSum, KindGroupSumWhere}

// groupScanFixture builds an aligned key/value fragment list: nf
// fragments of fragRows rows, keys cycling over 8 groups, values
// confined per fragment to [f*100, f*100+99] so each fragment carries a
// narrow sealed zone. Values are integer-valued doubles, so sums are
// exact in any fold order.
func groupScanFixture(nf, fragRows int) (keys, vals []Piece, keyRaw []int64, valF []float64) {
	n := nf * fragRows
	keyRaw = make([]int64, n)
	valF = make([]float64, n)
	for i := 0; i < n; i++ {
		keyRaw[i] = int64(i % 8)
		valF[i] = float64((i/fragRows)*100 + i%100)
	}
	kImg := encodeI64(keyRaw)
	vImg := encodeF64(valF)
	for f := 0; f < nf; f++ {
		begin := f * fragRows
		rr := layout.RowRange{Begin: uint64(begin), End: uint64(begin + fragRows)}
		z := stats.NewZone()
		for i := begin; i < begin+fragRows; i++ {
			z.ObserveFloat64(valF[i])
		}
		keys = append(keys, Piece{
			Rows:   rr,
			Vec:    layout.ColVector{Data: kImg, Base: begin * 8, Stride: 8, Size: 8, Len: fragRows},
			FragID: uint64(f + 1), FragVersion: 1,
		})
		vals = append(vals, Piece{
			Rows:   rr,
			Vec:    layout.ColVector{Data: vImg, Base: begin * 8, Stride: 8, Size: 8, Len: fragRows},
			Zone:   z,
			FragID: uint64(f + 1), FragVersion: 1,
		})
	}
	return keys, vals, keyRaw, valF
}

// sealComp returns the value pieces with every pick-th one (all of them
// for pick 1) sealed under enc: the compressed image replaces the dense
// bytes as the execution format.
func sealComp(t *testing.T, enc compress.Encoding, vals []Piece, pick int) []Piece {
	t.Helper()
	out := append([]Piece(nil), vals...)
	for i := range out {
		if i%pick != 0 {
			continue
		}
		v := out[i].Vec
		col, err := compress.CompressAs(enc, v.Data[v.Base:v.Base+v.Len*8], v.Len, 8)
		if err != nil {
			t.Fatalf("CompressAs(%v): %v", enc, err)
		}
		out[i].Comp = col
		out[i].Vec = layout.ColVector{Stride: 8, Size: 8, Len: v.Len}
	}
	return out
}

// fleetScan builds an n-card MultiDeviceScan over a fresh Env.
func fleetScan(n int, table string) (*MultiDeviceScan, *device.Env, *perfmodel.Clock) {
	shared := &perfmodel.Clock{}
	env := device.NewEnv(n, perfmodel.DefaultDevice(), shared)
	return &MultiDeviceScan{Env: env, Table: table}, env, shared
}

// streamSpans counts the device.stream spans recorded so far.
func streamSpans() int64 { return obs.TakeSnapshot().Histograms["span.device.stream.ns"].Count }

// TestScanExecutors is the one equivalence table of the scan contract:
// every ScanExecutor — the host Config under the three policies, the
// single-card DeviceScan with and without a cache (cold, then warm), the
// fleet at 1, 2 and 4 cards — answers
// every scan kind over every piece mix exactly as the single-threaded
// host fold does (integer-valued data: any fold order is exact). Along
// the way it keeps the device accounting contract: a fully pruned scan
// touches no device state, and a warm cached scan ships zero bus bytes.
func TestScanExecutors(t *testing.T) {
	const nf, fragRows = 8, 512
	keys, raw, _, _ := groupScanFixture(nf, fragRows)
	mixes := []struct {
		name       string
		keys, vals []Piece
	}{
		{"raw", keys, raw},
		{"compressed", keys, sealComp(t, compress.Dict, raw, 1)},
		{"mixed", keys, sealComp(t, compress.RLE, raw, 2)},
		{"empty", nil, nil},
	}
	preds := []struct {
		name string
		p    Pred
	}{
		{"all", Between(0.0, 1e9)},
		{"some-pruned", Between(100.0, 499.0)}, // admits fragments 1-4
		{"all-pruned", Between(5000.0, 6000.0)},
	}

	type executor struct {
		name string
		ex   ScanExecutor
		// h2d reports the bus bytes shipped so far; nil for the host.
		h2d func() int64
		// warm marks an executor whose every piece is already cached.
		warm bool
	}
	var execs []executor
	for _, cfg := range []Config{Single(), MultiN(4), Morsel()} {
		execs = append(execs, executor{name: "host/" + cfg.Policy.String(), ex: cfg})
	}
	newCard := func() (*device.GPU, func() int64) {
		gpu := device.New(perfmodel.DefaultDevice(), &perfmodel.Clock{})
		return gpu, func() int64 { return gpu.Stats().HostToDeviceBytes }
	}
	gpu, h2d := newCard()
	execs = append(execs, executor{name: "card/uncached", ex: DeviceScan{GPU: gpu, Table: "t"}, h2d: h2d})
	gpu, h2d = newCard()
	cached := DeviceScan{GPU: gpu, Cache: device.NewFragCache(gpu), Table: "t"}
	execs = append(execs,
		executor{name: "card/cached-cold", ex: cached, h2d: h2d},
		executor{name: "card/cached-warm", ex: cached, h2d: h2d, warm: true})
	for _, n := range []int{1, 2, 4} {
		m, env, _ := fleetScan(n, "t")
		execs = append(execs, executor{name: fmt.Sprintf("fleet/n=%d", n), ex: m,
			h2d: func() int64 { return env.Stats().HostToDeviceBytes }})
	}

	ref := Single()
	for _, e := range execs {
		for _, mix := range mixes {
			for _, pr := range preds {
				for _, op := range scanKinds {
					name := fmt.Sprintf("%s/%s/%s/%s", e.name, mix.name, pr.name, op)
					want, wantErr := scanOn(ref, op, mix.keys, mix.vals, pr.p)
					var shipped, spans int64
					if e.h2d != nil {
						shipped, spans = e.h2d(), streamSpans()
					}
					got, err := scanOn(e.ex, op, mix.keys, mix.vals, pr.p)
					if e.h2d != nil && op == KindGroupSum {
						// No device kernel exists for the unpredicated group-by.
						if !errors.Is(err, ErrBadColumn) {
							t.Fatalf("%s: err = %v, want ErrBadColumn", name, err)
						}
						continue
					}
					if (err != nil) != (wantErr != nil) {
						t.Fatalf("%s: err = %v, host fold says %v", name, err, wantErr)
					}
					if err != nil {
						if !errors.Is(err, ErrBadColumn) {
							t.Fatalf("%s: err = %v, want ErrBadColumn", name, err)
						}
						continue
					}
					if got.Sum != want.Sum || got.Count != want.Count || len(got.Groups) != len(want.Groups) {
						t.Fatalf("%s: got (%v, %d, %d groups), want (%v, %d, %d groups)", name,
							got.Sum, got.Count, len(got.Groups), want.Sum, want.Count, len(want.Groups))
					}
					for i := range got.Groups {
						if got.Groups[i] != want.Groups[i] {
							t.Fatalf("%s: group[%d] = %+v, want %+v", name, i, got.Groups[i], want.Groups[i])
						}
					}
					if e.h2d == nil {
						continue
					}
					if pr.name == "all-pruned" && op.Filtered() {
						if moved := e.h2d() - shipped; moved != 0 || streamSpans() != spans {
							t.Fatalf("%s: fully pruned scan shipped %d bytes, opened %d streams", name, moved, streamSpans()-spans)
						}
					}
					if e.warm {
						if moved := e.h2d() - shipped; moved != 0 {
							t.Fatalf("%s: warm scan shipped %d bytes, want 0", name, moved)
						}
					}
				}
			}
		}
	}
}

// TestDeviceGroupScanOneLaunchPerScan pins the fused device group
// contract: the unpruned fragments cost exactly ONE kernel launch and
// ONE device-to-host transfer (the group table, 24 bytes per group)
// between them, and zone-pruned fragments cost nothing at all.
func TestDeviceGroupScanOneLaunchPerScan(t *testing.T) {
	const nf, fragRows = 4, 1024
	keys, vals, keyRaw, valF := groupScanFixture(nf, fragRows)
	p := Between(100.0, 299.0) // admits fragments 1 and 2 only

	clock := &perfmodel.Clock{}
	gpu := device.New(perfmodel.DefaultDevice(), clock)
	cache := device.NewFragCache(gpu)
	ds := DeviceScan{GPU: gpu, Cache: cache, Table: "groupscan"}

	obsBefore := obs.TakeSnapshot()
	before := gpu.Stats()
	res, err := scanOn(ds, KindGroupSumWhere, keys, vals, p)
	if err != nil {
		t.Fatal(err)
	}
	groups := res.Groups
	after := gpu.Stats()
	obsAfter := obs.TakeSnapshot()

	const unpruned = 2
	if got := after.KernelLaunches - before.KernelLaunches; got != 1 {
		t.Fatalf("kernel launches = %d, want exactly 1 (one per scan)", got)
	}
	if got := after.DeviceToHostOps - before.DeviceToHostOps; got != 1 {
		t.Fatalf("D2H transfers = %d, want exactly 1 (the scan's group table)", got)
	}
	// Each admitted fragment holds all 8 group keys, so the combined
	// group table is 8 partials of 24 bytes.
	if got, want := after.DeviceToHostBytes-before.DeviceToHostBytes, int64(8*24); got != want {
		t.Fatalf("D2H bytes = %d, want %d", got, want)
	}
	// Both columns of the admitted fragments cross the bus, nothing else.
	if got, want := after.HostToDeviceBytes-before.HostToDeviceBytes, int64(unpruned*fragRows*8*2); got != want {
		t.Fatalf("H2D bytes = %d, want %d", got, want)
	}
	// The same claims through the process-wide observability counters.
	if got := obsAfter.Counter("device.kernels") - obsBefore.Counter("device.kernels"); got != 1 {
		t.Fatalf("obs device.kernels moved %d, want 1", got)
	}
	if got := obsAfter.Counter("exec.zonemap.pruned") - obsBefore.Counter("exec.zonemap.pruned"); got != nf-unpruned {
		t.Fatalf("obs exec.zonemap.pruned moved %d, want %d", got, nf-unpruned)
	}

	// The answer must equal a row-by-row fold, bitwise (integer-valued
	// doubles: per-group sums are exact in any accumulation order).
	want := make(map[int64]*GroupResult)
	for i, v := range valF {
		if p.Match(v) {
			if g, ok := want[keyRaw[i]]; ok {
				g.Sum += v
				g.Count++
			} else {
				want[keyRaw[i]] = &GroupResult{Key: keyRaw[i], Sum: v, Count: 1}
			}
		}
	}
	if len(groups) != len(want) {
		t.Fatalf("groups = %d, want %d", len(groups), len(want))
	}
	for _, g := range groups {
		w := want[g.Key]
		if w == nil || g.Count != w.Count || math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
			t.Fatalf("group %d = (%v, %d), want %+v", g.Key, g.Sum, g.Count, w)
		}
	}
}

// TestDeviceGroupScanCompressedBitIdentical pins the compressed-domain
// group kernel to the dense one bit-for-bit: decoding inside the fused
// launch must aggregate in the same element order as aggregating the
// pre-decoded image, while shipping only the encoded bytes and still
// launching exactly once per scan.
func TestDeviceGroupScanCompressedBitIdentical(t *testing.T) {
	const nf, fragRows = 4, 2048
	n := nf * fragRows
	keyRaw := make([]int64, n)
	valF := make([]float64, n)
	for i := 0; i < n; i++ {
		keyRaw[i] = int64(i % 5)
		valF[i] = float64(i/512)*0.1 + 0.3 // runny, non-integer: RLE-friendly, order-sensitive sums
	}
	kImg := encodeI64(keyRaw)
	vImg := encodeF64(valF)
	var keys, rawVals []Piece
	for f := 0; f < nf; f++ {
		begin := f * fragRows
		rr := layout.RowRange{Begin: uint64(begin), End: uint64(begin + fragRows)}
		keys = append(keys, Piece{
			Rows:   rr,
			Vec:    layout.ColVector{Data: kImg, Base: begin * 8, Stride: 8, Size: 8, Len: fragRows},
			FragID: uint64(f + 1), FragVersion: 1,
		})
		rawVals = append(rawVals, Piece{
			Rows:   rr,
			Vec:    layout.ColVector{Data: vImg, Base: begin * 8, Stride: 8, Size: 8, Len: fragRows},
			FragID: uint64(f + 1), FragVersion: 1,
		})
	}
	compVals := sealComp(t, compress.RLE, rawVals, 1)
	p := Between(0.35, 1.25)

	run := func(table string, vals []Piece) ([]GroupResult, device.TransferStats, device.TransferStats) {
		clock := &perfmodel.Clock{}
		gpu := device.New(perfmodel.DefaultDevice(), clock)
		cache := device.NewFragCache(gpu)
		ds := DeviceScan{GPU: gpu, Cache: cache, Table: table}
		before := gpu.Stats()
		res, err := scanOn(ds, KindGroupSumWhere, keys, vals, p)
		if err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		return res.Groups, before, gpu.Stats()
	}
	dense, db, da := run("dense", rawVals)
	comp, cb, ca := run("comp", compVals)

	if len(dense) == 0 || len(dense) != len(comp) {
		t.Fatalf("dense %d groups, compressed %d", len(dense), len(comp))
	}
	for i := range dense {
		if dense[i].Key != comp[i].Key || dense[i].Count != comp[i].Count ||
			math.Float64bits(dense[i].Sum) != math.Float64bits(comp[i].Sum) {
			t.Fatalf("group[%d]: dense %+v, compressed %+v", i, dense[i], comp[i])
		}
	}
	if got, want := ca.KernelLaunches-cb.KernelLaunches, int64(1); got != want {
		t.Fatalf("compressed kernels = %d, want %d (decode fused into the group launch)", got, want)
	}
	if denseShip, compShip := da.HostToDeviceBytes-db.HostToDeviceBytes, ca.HostToDeviceBytes-cb.HostToDeviceBytes; compShip >= denseShip {
		t.Fatalf("compressed leg shipped %d bytes, dense %d", compShip, denseShip)
	}

	// The host fused operator agrees bit-for-bit too (single-threaded:
	// both the raw and the compressed path fold elements in global order
	// into one table).
	hostDense, err := GroupSumFloat64Where(Single(), keys, rawVals, p)
	if err != nil {
		t.Fatal(err)
	}
	hostComp, err := GroupSumFloat64Where(Single(), keys, compVals, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(hostDense) != len(hostComp) || len(hostDense) != len(dense) {
		t.Fatalf("host dense %d, host compressed %d, device %d groups", len(hostDense), len(hostComp), len(dense))
	}
	for i := range hostDense {
		if hostDense[i].Key != hostComp[i].Key || hostDense[i].Count != hostComp[i].Count ||
			math.Float64bits(hostDense[i].Sum) != math.Float64bits(hostComp[i].Sum) {
			t.Fatalf("host group[%d]: dense %+v, compressed %+v", i, hostDense[i], hostComp[i])
		}
	}
}

// TestDeviceScanFullyPrunedOpensNoStream is the data-skipping fast exit:
// when every fragment's zone excludes the predicate, the device scan
// returns before any device state exists — no stream span, no kernel,
// no bus byte — and accounts one zone decision per fragment per scan.
func TestDeviceScanFullyPrunedOpensNoStream(t *testing.T) {
	const nf, fragRows = 4, 512
	keys, vals, _, _ := groupScanFixture(nf, fragRows)
	p := Between(5000.0, 6000.0) // outside every fragment's [0, nf*100) envelope

	clock := &perfmodel.Clock{}
	gpu := device.New(perfmodel.DefaultDevice(), clock)
	cache := device.NewFragCache(gpu)
	ds := DeviceScan{GPU: gpu, Cache: cache, Table: "pruned"}

	before := gpu.Stats()
	obsBefore := obs.TakeSnapshot()
	spans := streamSpans()

	for _, op := range []Kind{KindSumWhere, KindGroupSumWhere} {
		res, err := scanOn(ds, op, keys, vals, p)
		if err != nil || res.Sum != 0 || res.Count != 0 || res.Groups != nil {
			t.Fatalf("pruned %s = (%+v, %v)", op, res, err)
		}
	}

	if after := gpu.Stats(); after != before {
		t.Fatalf("fully-pruned scans touched the device: %+v -> %+v", before, after)
	}
	if got := streamSpans() - spans; got != 0 {
		t.Fatalf("fully-pruned scans recorded %d device.stream spans", got)
	}
	if got := obs.TakeSnapshot().Counter("exec.zonemap.pruned") - obsBefore.Counter("exec.zonemap.pruned"); got != 2*nf {
		t.Fatalf("exec.zonemap.pruned moved %d, want %d", got, 2*nf)
	}
}

// TestDeviceScanCompressedTransfers pins the compressed bus accounting:
// a device scan over a compressed piece charges the bus exactly the
// marshaled image size (not the dense bytes), and a warm rescan over the
// cached image charges zero bus bytes.
func TestDeviceScanCompressedTransfers(t *testing.T) {
	clock := &perfmodel.Clock{}
	gpu := device.New(perfmodel.DefaultDevice(), clock)
	cache := device.NewFragCache(gpu)

	// A runny column: 64Ki rows in long runs — RLE shrinks it massively.
	n := 64 << 10
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i / 1024)
	}
	img := encodeF64(vals)
	raw := Piece{
		Rows:   layout.RowRange{Begin: 0, End: uint64(n)},
		Vec:    layout.ColVector{Data: img, Stride: 8, Size: 8, Len: n},
		FragID: 7, FragVersion: 1,
	}
	piece := sealComp(t, compress.RLE, []Piece{raw}, 1)[0]
	p := Between(10.0, 40.0)

	ds := DeviceScan{GPU: gpu, Cache: cache, Table: "t"}
	before := gpu.Stats()
	obsBefore := obs.TakeSnapshot()
	cold, err := scanOn(ds, KindSumWhere, nil, []Piece{piece}, p)
	if err != nil {
		t.Fatal(err)
	}
	coldStats := gpu.Stats()
	obsCold := obs.TakeSnapshot()
	shipped := coldStats.HostToDeviceBytes - before.HostToDeviceBytes
	if want := int64(piece.Comp.MarshaledBytes()); shipped != want {
		t.Fatalf("cold compressed scan shipped %d bytes, want marshaled size %d", shipped, want)
	}
	// The same claim through the process-wide observability counters.
	if got := obsCold.Counter("device.h2d_bytes") - obsBefore.Counter("device.h2d_bytes"); got != shipped {
		t.Fatalf("obs device.h2d_bytes moved %d, GPU instance says %d", got, shipped)
	}
	if dense := int64(n * 8); shipped >= dense {
		t.Fatalf("compressed transfer (%d bytes) not smaller than dense image (%d bytes)", shipped, dense)
	}
	// Decode, grid reduction, final block: three launches.
	if got := coldStats.KernelLaunches - before.KernelLaunches; got != 3 {
		t.Fatalf("compressed scan launched %d kernels, want 3", got)
	}

	// The device result must equal the host result over the raw bytes.
	want, err := scanOn(Single(), KindSumWhere, nil, []Piece{raw}, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(cold.Sum) != math.Float64bits(want.Sum) || cold.Count != want.Count {
		t.Fatalf("device compressed scan = %+v, want %+v", cold, want)
	}

	// Warm rescan: cached image, zero bus bytes.
	warm, err := scanOn(ds, KindSumWhere, nil, []Piece{piece}, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := gpu.Stats().HostToDeviceBytes - coldStats.HostToDeviceBytes; got != 0 {
		t.Fatalf("warm compressed scan shipped %d bytes, want 0", got)
	}
	if cs := cache.Stats(); cs.Hits == 0 {
		t.Fatalf("warm scan did not hit the cache: %+v", cs)
	}
	if math.Float64bits(warm.Sum) != math.Float64bits(cold.Sum) || warm.Count != cold.Count {
		t.Fatalf("warm scan = %+v, want %+v", warm, cold)
	}

	// The cache entry is sized at the image length — the capacity win.
	if cs := cache.Stats(); cs.ResidentBytes >= int64(n*8) {
		t.Fatalf("cache resident bytes %d not smaller than dense image %d", cs.ResidentBytes, n*8)
	}
}

// TestDeviceScanCompressedUnfiltered covers the unfiltered compressed
// reduction: the whole decoded column sums, NaNs included — it is not a
// between(-Inf, +Inf).
func TestDeviceScanCompressedUnfiltered(t *testing.T) {
	gpu := device.New(perfmodel.DefaultDevice(), &perfmodel.Clock{})
	n := 8192
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i % 37)
	}
	raw := Piece{
		Rows: layout.RowRange{Begin: 0, End: uint64(n)},
		Vec:  layout.ColVector{Data: encodeF64(vals), Stride: 8, Size: 8, Len: n},
	}
	ds := DeviceScan{GPU: gpu}
	got, err := scanOn(ds, KindSum, nil, sealComp(t, compress.Dict, []Piece{raw}, 1), Pred{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sumOf(Single(), []Piece{raw})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Sum) != math.Float64bits(want) {
		t.Fatalf("device compressed sum = %v, want %v", got.Sum, want)
	}

	vals[100] = math.NaN()
	raw.Vec.Data = encodeF64(vals)
	for _, pieces := range [][]Piece{{raw}, sealComp(t, compress.Dict, []Piece{raw}, 1)} {
		got, err := scanOn(ds, KindSum, nil, pieces, Pred{})
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(got.Sum) {
			t.Fatalf("unfiltered device sum over a NaN column = %v, want NaN", got.Sum)
		}
	}
}

// TestDeviceScanResidentLaunchesDirectly pins the Resident placement: a
// piece already in device memory reduces with no transfer and no stream,
// each launch charged to the card's clock as it runs, and answers
// exactly what the shipped path answers.
func TestDeviceScanResidentLaunchesDirectly(t *testing.T) {
	const nf, fragRows = 4, 1024
	keys, vals, _, _ := groupScanFixture(nf, fragRows)
	resident := func(ps []Piece) []Piece {
		out := append([]Piece(nil), ps...)
		for i := range out {
			out[i].Place = Resident
		}
		return out
	}
	p := Between(100.0, 299.0)
	for _, op := range []Kind{KindSum, KindSumWhere, KindGroupSumWhere} {
		clock := &perfmodel.Clock{}
		gpu := device.New(perfmodel.DefaultDevice(), clock)
		ds := DeviceScan{GPU: gpu}
		want, err := scanOn(DeviceScan{GPU: device.New(perfmodel.DefaultDevice(), nil)}, op, keys, vals, p)
		if err != nil {
			t.Fatal(err)
		}
		spans := streamSpans()
		got, err := scanOn(ds, op, resident(keys), resident(vals), p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Sum != want.Sum || got.Count != want.Count || len(got.Groups) != len(want.Groups) {
			t.Fatalf("%s: resident %+v, shipped %+v", op, got, want)
		}
		st := gpu.Stats()
		if st.HostToDeviceBytes != 0 || streamSpans() != spans {
			t.Fatalf("%s: resident scan shipped %d bytes, opened %d streams", op, st.HostToDeviceBytes, streamSpans()-spans)
		}
		if st.KernelLaunches == 0 || clock.ElapsedNs() == 0 {
			t.Fatalf("%s: resident scan launched %d kernels, charged %v ns", op, st.KernelLaunches, clock.ElapsedNs())
		}
	}
}

// TestDeviceScanRefusesBeforeZoneDecisions pins the refusal order: a
// scan no kernel can run — compressed group keys, an empty predicate,
// the unpredicated group-by — fails with ErrBadColumn on the card and on
// the fleet before any zone decision is accounted, so the caller's host
// fallback does not double count.
func TestDeviceScanRefusesBeforeZoneDecisions(t *testing.T) {
	keys, vals, _, _ := groupScanFixture(4, 256)
	compKeys := sealComp(t, compress.Dict, keys, 1)
	gpu := device.New(perfmodel.DefaultDevice(), &perfmodel.Clock{})
	fleet, _, _ := fleetScan(2, "refuse")
	for _, ex := range []ScanExecutor{DeviceScan{GPU: gpu}, fleet} {
		before := obs.TakeSnapshot()
		for _, sc := range []struct {
			op   Kind
			keys []Piece
			p    Pred
		}{
			{KindGroupSumWhere, compKeys, Between(0.0, 150.0)},
			{KindSumWhere, nil, Between(2.0, 1.0)},
			{KindGroupSum, keys, Pred{}},
		} {
			if _, err := scanOn(ex, sc.op, sc.keys, vals, sc.p); !errors.Is(err, ErrBadColumn) {
				t.Fatalf("%T %s: err = %v, want ErrBadColumn", ex, sc.op, err)
			}
		}
		after := obs.TakeSnapshot()
		for _, c := range []string{"exec.zonemap.pruned", "exec.zonemap.scanned"} {
			if after.Counter(c) != before.Counter(c) {
				t.Fatalf("%T: %s moved by a refused scan", ex, c)
			}
		}
	}
}

// TestMultiDeviceScanBitIdentity pins the fleet's fold order: per-piece
// partials fold in original piece order, so a sharded scan answers
// bit-identically to the single-card DeviceScan over the same pieces —
// on order-sensitive (non-integer) data, for the plain sum, the filtered
// sum and the fused grouped scan, at every fleet size. A scan carrying
// Resident pieces, which live on no card of the fleet, is refused.
func TestMultiDeviceScanBitIdentity(t *testing.T) {
	const nf, fragRows = 8, 1024
	keys, vals, _, valF := groupScanFixture(nf, fragRows)
	for i := range valF {
		valF[i] += 0.1 * float64(i%7)
	}
	img := encodeF64(valF)
	for i := range vals {
		vals[i].Vec.Data = img
		vals[i].Zone = nil
	}
	p := Between(100.0, 499.9)

	gpu := device.New(perfmodel.DefaultDevice(), &perfmodel.Clock{})
	single := DeviceScan{GPU: gpu, Cache: device.NewFragCache(gpu), Table: "bitident"}
	for _, op := range []Kind{KindSum, KindSumWhere, KindGroupSumWhere} {
		want, err := scanOn(single, op, keys, vals, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			m, _, _ := fleetScan(n, "bitident")
			got, err := scanOn(m, op, keys, vals, p)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, op, err)
			}
			if math.Float64bits(got.Sum) != math.Float64bits(want.Sum) || got.Count != want.Count || len(got.Groups) != len(want.Groups) {
				t.Fatalf("n=%d %s: fleet (%v, %d) != single-card (%v, %d)", n, op, got.Sum, got.Count, want.Sum, want.Count)
			}
			for i := range got.Groups {
				if got.Groups[i] != want.Groups[i] {
					t.Fatalf("n=%d %s: group[%d] = %+v, want %+v", n, op, i, got.Groups[i], want.Groups[i])
				}
			}
			resident := append([]Piece(nil), vals...)
			resident[2].Place = Resident
			if _, err := scanOn(m, op, keys, resident, p); !errors.Is(err, ErrBadColumn) {
				t.Fatalf("n=%d %s: resident piece on a fleet scan: err = %v, want ErrBadColumn", n, op, err)
			}
		}
	}
}

// TestMultiDevicePerCardCountersSumToGlobal pins the fleet accounting
// invariant: the per-card registry counters (device.<i>.*) move by
// exactly the same totals as the process-global device.* counters, and
// each card's GPU.Stats matches its own registry deltas.
func TestMultiDevicePerCardCountersSumToGlobal(t *testing.T) {
	const n = 2
	const nf, fragRows = 8, 1024
	_, vals, _, _ := groupScanFixture(nf, fragRows)

	m, env, _ := fleetScan(n, "counters")
	before := obs.TakeSnapshot()
	// A cold pass, then a warm one so hits move too.
	for pass := 0; pass < 2; pass++ {
		if _, err := scanOn(m, KindSumWhere, nil, vals, Between(0.0, 1e9)); err != nil {
			t.Fatal(err)
		}
	}
	after := obs.TakeSnapshot()
	delta := func(name string) int64 { return after.Counter(name) - before.Counter(name) }

	for _, c := range []string{"h2d_bytes", "d2h_bytes", "h2d_ops", "d2h_ops", "kernels"} {
		var perCard int64
		for i := 0; i < n; i++ {
			perCard += delta(fmt.Sprintf("device.%d.%s", i, c))
		}
		if global := delta("device." + c); perCard != global {
			t.Fatalf("device.*.%s sums to %d, global device.%s moved %d", c, perCard, c, global)
		}
	}
	for _, c := range []string{"hits", "misses"} {
		var perCard int64
		for i := 0; i < n; i++ {
			perCard += delta(fmt.Sprintf("device.%d.cache.%s", i, c))
		}
		if global := delta("device.cache." + c); perCard != global {
			t.Fatalf("device.*.cache.%s sums to %d, global moved %d", c, perCard, global)
		}
	}
	// GPU.Stats ≡ the card's own registry counters.
	for i := 0; i < n; i++ {
		st := env.Card(i).GPU().Stats()
		if st.HostToDeviceBytes != delta(fmt.Sprintf("device.%d.h2d_bytes", i)) {
			t.Fatalf("card %d: Stats H2D %d != registry %d", i,
				st.HostToDeviceBytes, delta(fmt.Sprintf("device.%d.h2d_bytes", i)))
		}
		if st.KernelLaunches != delta(fmt.Sprintf("device.%d.kernels", i)) {
			t.Fatalf("card %d: Stats kernels %d != registry %d", i,
				st.KernelLaunches, delta(fmt.Sprintf("device.%d.kernels", i)))
		}
	}
	// Every piece admitted: hits+misses must equal acquires (2 passes × nf).
	cs := env.CacheStats()
	if cs.Hits+cs.Misses != 2*nf {
		t.Fatalf("hits %d + misses %d != %d acquires", cs.Hits, cs.Misses, 2*nf)
	}
}

// A device scan works in recycled scratch, so a grouped scan that fails
// must leave nothing behind: the next scan answers bit for bit what it
// answered before the failure. The failing card has room for one
// launch's two images and a third; the fourth cannot upload, and since
// every image is acquired before the first launch, the refused scan has
// launched nothing.
func TestDeviceGroupScanFailureLeavesNoGroups(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the next scan gets the failed one's scratch
	const nf, fragRows = 4, 512
	keys, vals, _, _ := groupScanFixture(nf, fragRows)
	p := Between(0.0, 1e9)
	fresh := func() DeviceScan { return DeviceScan{GPU: device.New(perfmodel.DefaultDevice(), nil)} }
	want, err := scanOn(fresh(), KindGroupSumWhere, keys, vals, p)
	if err != nil {
		t.Fatal(err)
	}
	if ref, _ := scanOn(Single(), KindGroupSumWhere, keys, vals, p); !sameGroups(want.Groups, ref.Groups) {
		t.Fatalf("device scan %+v, host fold %+v", want.Groups, ref.Groups)
	}

	prof := perfmodel.DefaultDevice()
	prof.GlobalMemory = 3 * fragRows * 8
	small := device.New(prof, nil)
	if _, err := scanOn(DeviceScan{GPU: small}, KindGroupSumWhere, keys, vals, p); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("scan on a card with room for 3 images: err = %v, want ErrOutOfMemory", err)
	}
	if launched := small.Stats().KernelLaunches; launched != 0 {
		t.Fatalf("the refused scan launched %d kernels, want none", launched)
	}
	if used := small.Allocator().Used(); used != 0 {
		t.Errorf("the failed scan left %d device bytes allocated", used)
	}

	got, err := scanOn(fresh(), KindGroupSumWhere, keys, vals, p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGroups(got.Groups, want.Groups) {
		t.Fatalf("after a failed scan: groups %+v, want %+v", got.Groups, want.Groups)
	}
}

// sameGroups compares two group tables bit for bit.
func sameGroups(a, b []GroupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Count != b[i].Count || math.Float64bits(a[i].Sum) != math.Float64bits(b[i].Sum) {
			return false
		}
	}
	return true
}

// TestDeviceScanDegradesWhenCachePinned pins satellite behavior: a cache
// whose budget is exhausted by pinned images surfaces ErrCachePinned,
// and DeviceScan degrades that piece to an uncached direct transfer
// instead of failing the scan.
func TestDeviceScanDegradesWhenCachePinned(t *testing.T) {
	const fragRows = 512
	const img = fragRows * 8
	clock := &perfmodel.Clock{}
	gpu := device.New(perfmodel.DefaultDevice(), clock)
	cache := device.NewFragCacheCap(gpu, img) // budget: exactly one image

	// Pin one image and never release it.
	key := device.FragKey{Table: "pinned", Frag: 99, Col: 0, Rows: fragRows}
	pin, _, err := cache.Acquire(key, 1, img, func(b *device.Buffer) error {
		return gpu.CopyToDevice(b, 0, make([]byte, img))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()

	dense := make([]byte, img)
	var want float64
	for i := 0; i < fragRows; i++ {
		want += float64(i)
		binary.LittleEndian.PutUint64(dense[i*8:], math.Float64bits(float64(i)))
	}
	piece := Piece{
		Rows:   layout.RowRange{Begin: 0, End: fragRows},
		Vec:    layout.ColVector{Data: dense, Stride: 8, Size: 8, Len: fragRows},
		FragID: 1, FragVersion: 1,
	}
	ds := DeviceScan{GPU: gpu, Cache: cache, Table: "pinned"}
	// The degraded piece ships over the bus without entering the cache —
	// and ships again on a repeat scan: still no residency for it.
	for pass := 0; pass < 2; pass++ {
		before := gpu.Stats()
		got, err := scanOn(ds, KindSum, nil, []Piece{piece}, Pred{})
		if err != nil {
			t.Fatalf("scan should degrade to a direct transfer, got %v", err)
		}
		if got.Sum != want {
			t.Fatalf("sum = %v, want %v", got.Sum, want)
		}
		if got := gpu.Stats().HostToDeviceBytes - before.HostToDeviceBytes; got != img {
			t.Fatalf("pass %d: H2D bytes = %d, want %d (one direct transfer)", pass, got, img)
		}
		if st := cache.Stats(); st.Entries != 1 {
			t.Fatalf("cache entries = %d, want 1 (degraded image must not be cached)", st.Entries)
		}
	}
}

// TestMultiDeviceVersionBumpNeverServesStale is the staleness property
// test: scans race against writers that mutate a fragment and bump its
// version; every scan's answer must match either the pre-write or the
// post-write image of the data it was given — never a mix — and a scan
// issued after the bump must see the new data.
func TestMultiDeviceVersionBumpNeverServesStale(t *testing.T) {
	const nf, fragRows = 4, 512
	const rounds = 8

	dense := make([]byte, nf*fragRows*8)
	sumAt := func(version uint64) float64 {
		// Data is derived from the version so expected answers are exact.
		var s float64
		for i := 0; i < nf*fragRows; i++ {
			s += float64(i%97) + float64(version)
		}
		return s
	}
	write := func(version uint64) {
		for i := 0; i < nf*fragRows; i++ {
			binary.LittleEndian.PutUint64(dense[i*8:], math.Float64bits(float64(i%97)+float64(version)))
		}
	}
	pieces := func(version uint64) []Piece {
		out := make([]Piece, nf)
		for f := 0; f < nf; f++ {
			begin := f * fragRows
			out[f] = Piece{
				Rows:   layout.RowRange{Begin: uint64(begin), End: uint64(begin + fragRows)},
				Vec:    layout.ColVector{Data: dense, Base: begin * 8, Stride: 8, Size: 8, Len: fragRows},
				FragID: uint64(f + 1), FragVersion: version,
			}
		}
		return out
	}

	m, env, _ := fleetScan(2, "stale")
	for v := uint64(1); v <= rounds; v++ {
		write(v)
		ps := pieces(v)
		want := sumAt(v)
		// Concurrent duplicate scans at the same version: exercises the
		// dup-upload race across the fleet under -race.
		var wg sync.WaitGroup
		errc := make(chan error, 3)
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := scanOn(m, KindSum, nil, ps, Pred{})
				if err != nil {
					errc <- err
					return
				}
				if got.Sum != want {
					errc <- fmt.Errorf("round %d: sum %v, want %v (stale image served)", v, got.Sum, want)
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errc:
			t.Fatal(err)
		default:
		}
	}
	// Every acquire was a hit or a miss, never both, across all cards.
	cs := env.CacheStats()
	if cs.Hits+cs.Misses+cs.DupUploads <= 0 {
		t.Fatal("expected cache traffic")
	}
	// After the final round only current-version images are resident:
	// another scan at the final version must be all hits.
	before := env.Stats().HostToDeviceBytes
	if _, err := scanOn(m, KindSum, nil, pieces(rounds), Pred{}); err != nil {
		t.Fatal(err)
	}
	if got := env.Stats().HostToDeviceBytes - before; got != 0 {
		t.Fatalf("final-version rescan shipped %d bytes, want 0 (all warm)", got)
	}
}

// TestMultiDeviceWarmThroughputScales pins the scaling acceptance
// criterion: with every fragment admitted and warm, the simulated time
// of a fleet scan shrinks as cards are added (concurrent lanes cost
// their maximum, not their sum).
func TestMultiDeviceWarmThroughputScales(t *testing.T) {
	const nf, fragRows = 16, 2048
	_, vals, _, _ := groupScanFixture(nf, fragRows)
	p := Between(0.0, 1e9)

	warm := map[int]float64{}
	for _, n := range []int{1, 2, 4} {
		m, _, shared := fleetScan(n, "scale")
		if _, err := scanOn(m, KindSumWhere, nil, vals, p); err != nil { // cold
			t.Fatal(err)
		}
		mark := shared.ElapsedNs()
		if _, err := scanOn(m, KindSumWhere, nil, vals, p); err != nil { // warm
			t.Fatal(err)
		}
		warm[n] = shared.ElapsedNs() - mark
	}
	if !(warm[1] > warm[2] && warm[2] > warm[4]) {
		t.Fatalf("warm ns did not shrink with device count: 1=%v 2=%v 4=%v", warm[1], warm[2], warm[4])
	}
	if warm[2] < warm[1]/4 || warm[4] < warm[1]/16 {
		t.Fatalf("scaling implausibly superlinear: 1=%v 2=%v 4=%v", warm[1], warm[2], warm[4])
	}
	if speedup := warm[1] / warm[4]; speedup < 2 {
		t.Fatalf("4-card warm speedup = %.2f, want >= 2", speedup)
	}
}

// A device cohort is one segmented launch: each piece some predicate
// admits is acquired once for the whole cohort — a warm cache hits once
// per surviving piece, not once per predicate — and becomes one segment
// folded for every predicate that admits it, so the card launches what
// ONE solo scan launches and moves the bus bytes of K solo scans, cold
// and warm, and result k is solo scan k's.
func TestDeviceCohortAcquiresOnce(t *testing.T) {
	_, vals, _, valF := groupScanFixture(8, 512)
	for i := range valF {
		valF[i] += 0.1 * float64(i%7)
	}
	img := encodeF64(valF)
	for i := range vals {
		vals[i].Vec.Data = img
	}
	// Fragment f holds [100f, 100f+100): the predicates admit fragments
	// 0-1, 4-6 and 6-7, six of the eight together.
	preds := []Pred{Between(0, 150), Between(420, 650), Gt(650)}
	const union = 6
	card := func() DeviceScan {
		gpu := device.New(perfmodel.DefaultDevice(), &perfmodel.Clock{})
		return DeviceScan{GPU: gpu, Cache: device.NewFragCache(gpu), Table: "cohort"}
	}
	cohort, solos := card(), card()
	for pass, name := range []string{"cold", "warm"} {
		c0, s0 := cohort.Cache.Stats(), solos.Cache.Stats()
		g0, h0 := cohort.GPU.Stats(), solos.GPU.Stats()
		got := make([]Result, len(preds))
		if err := cohort.Scan(Scan{Plan: Plan{Op: KindSumWhere, Col: 1}, Preds: preds, Vals: vals}, got); err != nil {
			t.Fatal(err)
		}
		for k, p := range preds {
			want, err := scanOn(solos, KindSumWhere, nil, vals, p)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResultBits(got[k], want) {
				t.Errorf("%s pred %d: cohort %+v, solo %+v", name, k, got[k], want)
			}
		}
		c1, g1, h1 := cohort.Cache.Stats(), cohort.GPU.Stats(), solos.GPU.Stats()
		if acquires := c1.Hits + c1.Misses - c0.Hits - c0.Misses; acquires != union {
			t.Errorf("%s: the cohort acquired %d images, want one per surviving piece (%d)", name, acquires, union)
		}
		if pass == 1 && c1.Hits-c0.Hits != union {
			t.Errorf("warm: %d cache hits, want %d", c1.Hits-c0.Hits, union)
		}
		if s1 := solos.Cache.Stats(); pass == 1 && s1.Hits-s0.Hits <= union {
			t.Errorf("warm: the solo scans hit %d times, want one per piece per predicate", s1.Hits-s0.Hits)
		}
		for _, m := range []struct {
			what      string
			got, want int64
		}{
			{"kernels", g1.KernelLaunches - g0.KernelLaunches, (h1.KernelLaunches - h0.KernelLaunches) / int64(len(preds))},
			{"h2d bytes", g1.HostToDeviceBytes - g0.HostToDeviceBytes, h1.HostToDeviceBytes - h0.HostToDeviceBytes},
			{"d2h bytes", g1.DeviceToHostBytes - g0.DeviceToHostBytes, h1.DeviceToHostBytes - h0.DeviceToHostBytes},
		} {
			if m.got != m.want {
				t.Errorf("%s %s: cohort %d, want %d", name, m.what, m.got, m.want)
			}
		}
	}
}
