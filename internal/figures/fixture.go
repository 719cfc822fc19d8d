package figures

import (
	"encoding/binary"
	"fmt"
	"math"

	"hybridstore/internal/compress"
	"hybridstore/internal/device"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/stats"
	"hybridstore/internal/workload"
)

// The sweeps share one fixture: a column builder (values → row-aligned
// fragment pieces, dense or compressed, zone-carrying on request), a rig
// (a fresh simulated clock with a card on it) and legs, which runs one
// measured step on a rig, checks its answer against the sweep's host
// shadow and reports what the step cost.

// fragmentRows splits rows evenly over the fragment count: the one
// geometry every sweep requires.
func fragmentRows(rows uint64, fragments int) (uint64, error) {
	if fragments < 1 || rows%uint64(fragments) != 0 {
		return 0, fmt.Errorf("figures: rows %d not divisible into %d fragments", rows, fragments)
	}
	return rows / uint64(fragments), nil
}

// denseColumn lays n 8-byte fields out little-endian at the given record
// stride: 8 is a thin DSM column, wider embeds the field at offset 0 of
// an NSM record.
func denseColumn(n, stride int, word func(i int) uint64) []byte {
	dense := make([]byte, n*stride)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(dense[i*stride:], word(i))
	}
	return dense
}

// floatColumn is denseColumn over float64 values.
func floatColumn(vals []float64, stride int) []byte {
	return denseColumn(len(vals), stride, func(i int) uint64 { return math.Float64bits(vals[i]) })
}

// cutPieces cuts a dense column into row-aligned pieces shaped like the
// view of a frozen fragment each: IDs from 1 at version 1, so the device
// cache can key them. With zones set every piece carries the float64
// zone map a freeze would have sealed.
func cutPieces(dense []byte, stride, fragments int, zones bool) ([]exec.Piece, error) {
	fragRows, err := fragmentRows(uint64(len(dense)/stride), fragments)
	if err != nil {
		return nil, err
	}
	pieces := make([]exec.Piece, fragments)
	for i := range pieces {
		begin := uint64(i) * fragRows
		vec := layout.ColVector{Data: dense, Base: int(begin) * stride, Stride: stride, Size: 8, Len: int(fragRows)}
		pieces[i] = exec.Piece{
			Rows: layout.RowRange{Begin: begin, End: begin + fragRows},
			Vec:  vec, FragID: uint64(i + 1), FragVersion: 1,
		}
		if zones {
			z := stats.NewZone(stats.Float64)
			for j := 0; j < vec.Len; j++ {
				z.ObserveFloat64(math.Float64frombits(binary.LittleEndian.Uint64(dense[vec.Base+j*stride:])))
			}
			pieces[i].Zone = z
		}
	}
	return pieces, nil
}

// compressPieces returns thin-column pieces with each fragment's sealed
// compressed image as the execution format instead of its dense bytes.
func compressPieces(pieces []exec.Piece) ([]exec.Piece, error) {
	out := make([]exec.Piece, len(pieces))
	for i, p := range pieces {
		v := p.Vec
		cc, err := compress.Compress(v.Data[v.Base:v.Base+v.Len*v.Size], v.Len, v.Size)
		if err != nil {
			return nil, fmt.Errorf("figures: compressing fragment %d: %w", i, err)
		}
		p.Comp = cc
		p.Vec = layout.ColVector{Stride: v.Stride, Size: v.Size, Len: v.Len}
		out[i] = p
	}
	return out, nil
}

// monotonePrice is the price the layout-backed sweeps store: price(i) =
// i. Each fragment's sealed zone is then the exact row range, so Lt(cut)
// admits precisely the prefix of fragments overlapping [0, cut).
func monotonePrice(i uint64) float64 { return float64(i) }

// priceLayout materializes the item table's price column alone as a DSM
// layout of sealed fragments holding the monotone price.
func priceLayout(name string, rows uint64, fragments int) (*layout.Layout, error) {
	chunk, err := fragmentRows(rows, fragments)
	if err != nil {
		return nil, err
	}
	host := mem.NewAllocator(mem.Host, 0)
	items := workload.ItemSchema()
	col := layout.NewLayout(name, items)
	for begin := uint64(0); begin < rows; begin += chunk {
		f, err := layout.NewFragment(host, items, []int{workload.ItemPriceCol},
			layout.RowRange{Begin: begin, End: begin + chunk}, layout.Direct)
		if err == nil {
			err = col.Add(f)
		}
		for i := begin; err == nil && i < begin+chunk; i++ {
			err = f.AppendTuplet([]schema.Value{schema.FloatValue(monotonePrice(i))})
		}
		if err != nil {
			col.Free()
			return nil, err
		}
		f.SealStats()
	}
	return col, nil
}

// rig is the simulated platform of one leg: a clock and, on it, either a
// single card (optionally fronted by a fragment cache) or a fleet.
type rig struct {
	clock *perfmodel.Clock
	gpu   *device.GPU
	cache *device.FragCache
	fleet *device.Env
}

// newRig returns a fresh clock with one card on it.
func newRig(cached bool) *rig {
	r := &rig{clock: &perfmodel.Clock{}}
	r.gpu = device.New(perfmodel.DefaultDevice(), r.clock)
	if cached {
		r.cache = device.NewFragCache(r.gpu)
	}
	return r
}

// newFleetRig returns a fresh clock with n cached cards folding their
// lane time into it.
func newFleetRig(n int) *rig {
	r := &rig{clock: &perfmodel.Clock{}}
	r.fleet = device.NewEnv(n, perfmodel.DefaultDevice(), r.clock)
	return r
}

// host returns the host operators charging the rig's clock.
func (r *rig) host(p exec.Policy) exec.Config {
	return exec.Config{Policy: p, Host: perfmodel.DefaultHost(), Clock: r.clock}
}

// card returns the single-card executor over the rig's card and cache.
func (r *rig) card(table string) exec.DeviceScan {
	return exec.DeviceScan{GPU: r.gpu, Cache: r.cache, Table: table}
}

// cost is what a leg charged its rig: elapsed simulated time and the
// movement of the bus, kernel and cache meters.
type cost struct {
	Ns                              float64
	H2D, D2H, Kernels, Hits, Misses int64
}

// meter reads the rig's cumulative meters.
func (r *rig) meter() cost {
	var ts device.TransferStats
	var cs device.FragCacheStats
	switch {
	case r.fleet != nil:
		ts, cs = r.fleet.Stats(), r.fleet.CacheStats()
	case r.cache != nil:
		ts, cs = r.gpu.Stats(), r.cache.Stats()
	default:
		ts = r.gpu.Stats()
	}
	return cost{r.clock.ElapsedNs(), ts.HostToDeviceBytes, ts.DeviceToHostBytes, ts.KernelLaunches, cs.Hits, cs.Misses}
}

// step is one measured unit of work on a rig.
type step func(r *rig) (exec.Result, error)

// onHost is the step that scans sc on the rig's host operators.
func onHost(p exec.Policy, sc exec.Scan) step {
	return func(r *rig) (exec.Result, error) { return r.host(p).Scan(sc) }
}

// onCard is the step that scans sc on the rig's card.
func onCard(table string, sc exec.Scan) step {
	return func(r *rig) (exec.Result, error) { return r.card(table).Scan(sc) }
}

// legs runs the measured steps of one sweep point. Every leg's answer is
// checked against the point's host shadow; the first failure sticks and
// later legs are skipped, so a sweep checks err once per point.
type legs struct {
	what string      // names the sweep point in the error
	want exec.Result // the host shadow every leg must reproduce
	err  error
}

// on runs one leg on the rig and returns what it cost. A rig reused
// across legs (warm rescans, cache rounds) reports each leg's own share.
func (l *legs) on(r *rig, name string, run step) cost {
	if l.err != nil {
		return cost{}
	}
	before := r.meter()
	got, err := run(r)
	if err == nil {
		err = checkAnswer(got, l.want)
	}
	if err != nil {
		l.err = fmt.Errorf("figures: %s %s: %w", l.what, name, err)
		return cost{}
	}
	after := r.meter()
	return cost{after.Ns - before.Ns, after.H2D - before.H2D, after.D2H - before.D2H,
		after.Kernels - before.Kernels, after.Hits - before.Hits, after.Misses - before.Misses}
}

// near reports whether a sum matches its shadow within the tolerance
// that reassociation (parallel policies, block reductions) needs.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
}

// checkAnswer compares an answer with the host shadow: counts and group
// keys exactly, sums within tolerance. Scalar plans leave Groups empty
// and grouped plans leave Sum and Count zero on both sides.
func checkAnswer(got, want exec.Result) error {
	if got.Count != want.Count || !near(got.Sum, want.Sum) {
		return fmt.Errorf("got (%v, %d), want (%v, %d)", got.Sum, got.Count, want.Sum, want.Count)
	}
	if len(got.Groups) != len(want.Groups) {
		return fmt.Errorf("%d groups, want %d", len(got.Groups), len(want.Groups))
	}
	for i, g := range got.Groups {
		if w := want.Groups[i]; g.Key != w.Key || g.Count != w.Count || !near(g.Sum, w.Sum) {
			return fmt.Errorf("group %d got (%v, %d), want group %d (%v, %d)", g.Key, g.Sum, g.Count, w.Key, w.Sum, w.Count)
		}
	}
	return nil
}

// shadowSum folds the values matching p the way a serial scan would: the
// reference every scalar leg is checked against.
func shadowSum(vals []float64, p exec.Pred) exec.Result {
	var want exec.Result
	for _, v := range vals {
		if p.Match(v) {
			want.Sum += v
			want.Count++
		}
	}
	return want
}

// groupTable folds (key, value) pairs into SUM, COUNT per key.
type groupTable map[int64]*exec.GroupResult

func (t groupTable) add(key int64, v float64) {
	if g, ok := t[key]; ok {
		g.Sum += v
		g.Count++
	} else {
		t[key] = &exec.GroupResult{Key: key, Sum: v, Count: 1}
	}
}

// groups returns the table sorted by key, the order every executor emits.
func (t groupTable) groups() []exec.GroupResult {
	out := make([]exec.GroupResult, 0, len(t))
	for _, g := range t {
		out = append(out, *g)
	}
	exec.SortGroupResults(out)
	return out
}
