package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	if c.Inc() != 1 || c.Add(4) != 5 || c.Load() != 5 {
		t.Fatalf("counter sequence wrong: %d", c.Load())
	}
	if r.Counter("a.b") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{1 << 50, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.ns); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 90 fast observations (~100ns) and 10 slow ones (~1ms).
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	if h.Count() != 100 || h.Sum() != 90*100+10*1_000_000 {
		t.Fatalf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	if h.Max() != 1_000_000 {
		t.Fatalf("max = %d", h.Max())
	}
	// Power-of-two buckets: answers are exact within 2x.
	if p50 := h.Quantile(0.5); p50 < 100 || p50 > 256 {
		t.Fatalf("p50 = %d, want ~128", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 1_000_000 || p99 > 2_097_152 {
		t.Fatalf("p99 = %d, want ~1<<20", p99)
	}
	h.reset()
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(0.9) != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if c.Load() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Load(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d", h.Count())
	}
}

func TestSpansAndEvents(t *testing.T) {
	defer Reset()
	Reset()
	f := NewSpanFamily("test.op")
	s := f.Start()
	time.Sleep(time.Millisecond)
	s.EndWith("groups=[[0 1] [2]]")
	Span{}.End() // zero span is inert

	RecordEvent("test.decision", "placed col 4")
	snap := TakeSnapshot()
	hs, ok := snap.Histograms["span.test.op.ns"]
	if !ok || hs.Count != 1 || hs.MaxNs < int64(time.Millisecond) {
		t.Fatalf("span histogram missing or wrong: %+v", hs)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Detail != "groups=[[0 1] [2]]" {
		t.Fatalf("spans = %+v", snap.Spans)
	}
	if len(snap.Events) != 1 || snap.Events[0].Name != "test.decision" {
		t.Fatalf("events = %+v", snap.Events)
	}
}

func TestRingBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < ringCap*3; i++ {
		r.RecordEvent("e", "x")
	}
	if got := len(r.Snapshot().Events); got != ringCap {
		t.Fatalf("event ring holds %d, want %d", got, ringCap)
	}
}

// The rings keep the newest ringCap records, oldest first, in fixed
// arrays: a wrapped ring snapshots in order, and ending a span allocates
// nothing.
func TestRingOrderAndNoAllocs(t *testing.T) {
	r := NewRegistry()
	f := &SpanFamily{name: "s", r: r, h: r.Histogram("span.s.ns")}
	for i := 0; i < ringCap+5; i++ {
		r.RecordEvent("e", strconv.Itoa(i))
		f.Start().EndWith(strconv.Itoa(i))
	}
	snap := r.Snapshot()
	for i := 0; i < ringCap; i++ {
		if want := strconv.Itoa(i + 5); snap.Events[i].Detail != want || snap.Spans[i].Detail != want {
			t.Fatalf("record %d: event %q, span %q, want %q", i, snap.Events[i].Detail, snap.Spans[i].Detail, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Start().EndWith("") }); allocs != 0 {
		t.Errorf("EndWith allocates %.0f, want 0", allocs)
	}
	r.Reset()
	if snap := r.Snapshot(); snap.Spans != nil || snap.Events != nil {
		t.Errorf("after Reset: %d spans, %d events", len(snap.Spans), len(snap.Events))
	}
}

// EndWithCounts keeps its integers and formats them at snapshot time:
// the detail reads as fmt.Sprintf would have written it, and ending the
// span allocates nothing.
func TestEndWithCountsFormatsAtSnapshot(t *testing.T) {
	r := NewRegistry()
	f := &SpanFamily{name: "s", r: r, h: r.Histogram("span.s.ns")}
	f.Start().EndWithCounts("pruned %d/%d pieces, %d bytes", 6, 8, -4800)
	f.Start().EndWith("plain")
	Span{}.EndWithCounts("inert %d %d %d", 1, 2, 3)
	var got []string
	for _, sp := range r.Snapshot().Spans {
		got = append(got, sp.Detail)
	}
	if want := []string{"pruned 6/8 pieces, -4800 bytes", "plain"}; !slices.Equal(got, want) {
		t.Fatalf("details %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Start().EndWithCounts("pruned %d/%d pieces, %d bytes", 6, 8, 4800) }); allocs != 0 {
		t.Errorf("EndWithCounts allocates %.0f, want 0", allocs)
	}
}

func TestResetKeepsHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("keep")
	c.Add(9)
	r.Reset()
	if c.Load() != 0 {
		t.Fatal("reset did not zero the counter")
	}
	c.Inc()
	if r.Snapshot().Counter("keep") != 1 {
		t.Fatal("handle detached from registry after reset")
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("x.count").Add(3)
	r.Histogram("x.ns").Observe(500)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters   map[string]int64             `json:"counters"`
		Histograms map[string]HistogramSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded.Counters["x.count"] != 3 {
		t.Fatalf("decoded = %+v", decoded)
	}
	if decoded.Histograms["x.ns"].Count != 1 {
		t.Fatalf("histogram snapshot = %+v", decoded.Histograms["x.ns"])
	}
}

func TestSnapshotNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z")
	r.Counter("a")
	r.Counter("m")
	counters, _ := r.Snapshot().Names()
	if len(counters) != 3 || counters[0] != "a" || counters[2] != "z" {
		t.Fatalf("names = %v", counters)
	}
}

// BenchmarkCounterAdd documents the hot-path cost of one metric update —
// the number DESIGN.md Section 6 quotes for instrumentation overhead.
func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve documents the cost of one latency sample.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xffff))
	}
}

// BenchmarkCounterAddParallel shows contended update cost (many workers
// hammering one counter, the pool steal-counter worst case).
func BenchmarkCounterAddParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
