// Package obs is the process-wide observability layer: an allocation-free
// metrics registry (atomic counters and fixed-bucket nanosecond
// histograms), lightweight span tracing, and a bounded event log, with a
// Snapshot/JSON export.
//
// The paper's core finding (Section II-B, Figure 2) is that no storage
// configuration dominates a hybrid workload; the responsive adaptability
// it proposes (Section IV-C) therefore needs the engine to continuously
// measure itself — morsels stolen, transfer bytes, conflict rate,
// layout-reorg events — and every placement decision between host and
// device hinges on exactly these numbers. This package is where all
// subsystems (exec/pool, exec operators, device, tx, core) report them.
//
// Design constraints, in order:
//
//  1. Near-free on the hot path. Metric handles are package-level vars
//     registered at init; updating one is a single uncontended atomic
//     add. Nothing on the update path takes a lock, reads the wall
//     clock, or allocates. Callers that need latencies on very hot
//     operations sample them (see exec's 1-in-64 operator sampling)
//     rather than timing every call.
//  2. Always safe. All types are safe for concurrent use; the zero
//     Counter/Histogram is usable unregistered (the device uses
//     per-instance zero-value counters alongside the global registry).
//  3. Reset-able. Tests and harness runs scope measurements with
//     Reset(), which zeroes values but keeps registrations stable.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n and returns the new value.
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Inc increments the counter by one and returns the new value.
func (c *Counter) Inc() int64 { return c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// reset zeroes the counter (registry Reset only; counters are otherwise
// monotone).
func (c *Counter) reset() { c.v.Store(0) }

// histBuckets is the fixed bucket count: bucket i holds observations in
// [2^(i-1), 2^i) ns (bucket 0 holds zero and one). 2^47 ns ≈ 39 hours
// caps anything this engine times.
const histBuckets = 48

// Histogram is a fixed-bucket power-of-two nanosecond histogram. The
// zero value is ready to use; Observe is a few atomic adds and never
// allocates.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketFor maps a nanosecond observation to its bucket index.
func bucketFor(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns)) // 0→0, 1→1, [2,4)→2, [4,8)→3 ...
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one nanosecond measurement.
//
// Field order matters for snapshot consistency: bucket and max are
// published before count, so an observation that is visible in count is
// visible in its bucket, and sum is published after count, so an
// observation that is visible in sum is counted. Snapshot exploits this
// — it reads sum first, re-reads count around the other fields and
// retries until the copy is stable — which is what keeps
// WriteMetricsJSON taken mid-scan from tearing a histogram (count
// without its bucket, or a sum with an uncounted observation).
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketFor(ns)].Add(1)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.count.Add(1)
	h.sum.Add(ns)
}

// ObserveSince records the time elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Nanoseconds()) }

// Count returns how many observations were recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations in nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation in nanoseconds.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper bound for the q-quantile (q in [0,1]) from
// the bucket boundaries: the result is exact to within a factor of two.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			if i == 0 {
				return 1
			}
			return int64(1) << uint(i) // upper bucket bound
		}
	}
	return h.max.Load()
}

// Snapshot returns a self-consistent summary of the histogram even while
// other goroutines are observing into it. Consistency means the exported
// Count equals the sum of the (copied) bucket populations the quantiles
// are computed from, and SumNs covers only counted observations: it may
// lag Count by the observations still in flight, never lead it.
//
// The implementation is an optimistic seqlock over the count field:
// Observe publishes its bucket before count, so a copy whose count
// reading is stable across the reads of buckets/max — and whose bucket
// total equals that count — holds whole observations. sum is read
// before everything else, and Observe adds to it after count and after
// the bucket, so every observation in that sum is in the copied buckets.
// Under a sustained write storm the loop relaxes after a bounded number
// of attempts: it keeps the requirement that quantiles be computed from
// the copied buckets (never torn against a moving count) and derives
// Count from the bucket total itself, which is the invariant downstream
// consumers rely on; the sum, read first, is still inside it.
func (h *Histogram) Snapshot() HistogramSnapshot {
	const strictAttempts = 512
	var (
		sum, max int64
		b        [histBuckets]int64
		total    int64
	)
	for attempt := 0; ; attempt++ {
		sum = h.sum.Load()
		c1 := h.count.Load()
		max = h.max.Load()
		total = 0
		for i := range b {
			b[i] = h.buckets[i].Load()
			total += b[i]
		}
		c2 := h.count.Load()
		if c1 == c2 && total == c1 {
			break
		}
		if attempt >= strictAttempts {
			// Writers never went quiet; fall back to the bucket copy as
			// the source of truth so the output is still internally
			// consistent (Count == Σ buckets, quantiles from the same
			// copy), merely a moment-in-time slice of a moving target.
			break
		}
	}
	snap := HistogramSnapshot{Count: total, SumNs: sum, MaxNs: max}
	snap.P50Ns = quantileOf(b[:], total, max, 0.50)
	snap.P95Ns = quantileOf(b[:], total, max, 0.95)
	snap.P99Ns = quantileOf(b[:], total, max, 0.99)
	return snap
}

// quantileOf computes the q-quantile upper bound from a copied bucket
// array, mirroring Histogram.Quantile but over stable data.
func quantileOf(buckets []int64, total, max int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, n := range buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return 1
			}
			return int64(1) << uint(i)
		}
	}
	return max
}

// reset zeroes the histogram.
func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Registry is a named collection of metrics. Registration (NewCounter
// and friends) takes a lock and may allocate; the returned handles are
// then updated lock-free. Names are dotted paths, e.g. "pool.steals".
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram

	spanMu sync.Mutex
	spans  ring[spanEntry]
	events ring[Event]
}

// ringCap bounds the recent-span and event rings.
const ringCap = 128

// ring keeps the ringCap newest records in a fixed array: the next one
// goes to buf[head], overwriting the oldest once n reaches ringCap, so
// putting one allocates nothing.
type ring[T any] struct {
	buf     [ringCap]T
	head, n int
}

// put adds v as the newest record.
func (r *ring[T]) put(v T) {
	r.buf[r.head] = v
	r.head = (r.head + 1) % ringCap
	r.n = min(r.n+1, ringCap)
}

// appendTo appends the records to dst, oldest first.
func (r *ring[T]) appendTo(dst []T) []T {
	for i := r.head - r.n; i < r.head; i++ {
		dst = append(dst, r.buf[(i+ringCap)%ringCap])
	}
	return dst
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry all subsystems report into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// NewCounter registers (or finds) a counter in the default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewHistogram registers (or finds) a histogram in the default registry.
func NewHistogram(name string) *Histogram { return Default.Histogram(name) }

// Reset zeroes every metric value and clears the span/event rings, but
// keeps all registrations (handles held by subsystems stay valid).
func (r *Registry) Reset() {
	r.mu.Lock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, h := range r.histograms {
		h.reset()
	}
	r.mu.Unlock()
	r.spanMu.Lock()
	r.spans = ring[spanEntry]{}
	r.events = ring[Event]{}
	r.spanMu.Unlock()
}

// Reset zeroes the default registry.
func Reset() { Default.Reset() }

// ---------------------------------------------------------------------------
// Spans and events: coarse-grained tracing for structural operations
// (adaptation, freezing, merging, device placement). Not for per-morsel
// work — ending a span takes the ring lock.

// SpanFamily names one traced operation; Start/End pairs record into a
// latency histogram plus the bounded recent-span ring.
type SpanFamily struct {
	name string
	r    *Registry
	h    *Histogram
}

// NewSpanFamily registers a span family (histogram "span.<name>.ns") in
// the default registry.
func NewSpanFamily(name string) *SpanFamily {
	return &SpanFamily{name: name, r: Default, h: Default.Histogram("span." + name + ".ns")}
}

// Span is one in-flight timed operation. The zero Span is inert (End is
// a no-op), so conditional tracing needs no nil checks.
type Span struct {
	f  *SpanFamily
	t0 time.Time
}

// Start opens a span.
func (f *SpanFamily) Start() Span { return Span{f: f, t0: time.Now()} }

// End closes the span, recording its duration.
func (s Span) End() { s.EndWith("") }

// EndWith closes the span with a detail annotation kept in the recent-
// span ring (e.g. the chosen column groups of a reorganization).
func (s Span) EndWith(detail string) { s.end(spanEntry{rec: SpanRecord{Detail: detail}}) }

// EndWithCounts closes the span with a detail of three integers
// formatted by format, as EndWith(fmt.Sprintf(format, a, b, c)) would —
// but the integers are kept as they are and formatted only when a
// snapshot is taken, so a span on a hot path allocates no string.
func (s Span) EndWithCounts(format string, a, b, c int64) {
	s.end(spanEntry{format: format, args: [3]int64{a, b, c}})
}

// end records the closed span into its family's histogram and the ring.
func (s Span) end(e spanEntry) {
	if s.f == nil {
		return
	}
	d := time.Since(s.t0)
	s.f.h.Observe(d.Nanoseconds())
	e.rec.Name, e.rec.Start, e.rec.DurationNs = s.f.name, s.t0.UnixNano(), d.Nanoseconds()
	r := s.f.r
	r.spanMu.Lock()
	r.spans.put(e)
	r.spanMu.Unlock()
}

// spanEntry is one completed span in the ring: its record, and, from
// EndWithCounts, the detail's format and integers still unformatted.
type spanEntry struct {
	rec    SpanRecord
	format string
	args   [3]int64
}

// record returns the span as a snapshot shows it, its detail formatted.
func (e spanEntry) record() SpanRecord {
	if e.format != "" {
		e.rec.Detail = fmt.Sprintf(e.format, e.args[0], e.args[1], e.args[2])
	}
	return e.rec
}

// SpanRecord is one completed span in a snapshot.
type SpanRecord struct {
	Name       string `json:"name"`
	Start      int64  `json:"start_unix_ns"`
	DurationNs int64  `json:"duration_ns"`
	Detail     string `json:"detail,omitempty"`
}

// Event is one structural decision worth keeping (e.g. "core.adapt":
// which monitor snapshot triggered a reorg and what was chosen).
type Event struct {
	Time   int64  `json:"time_unix_ns"`
	Name   string `json:"name"`
	Detail string `json:"detail"`
}

// RecordEvent appends an event to the registry's bounded ring.
func (r *Registry) RecordEvent(name, detail string) {
	e := Event{Time: time.Now().UnixNano(), Name: name, Detail: detail}
	r.spanMu.Lock()
	r.events.put(e)
	r.spanMu.Unlock()
}

// RecordEvent appends an event to the default registry.
func RecordEvent(name, detail string) { Default.RecordEvent(name, detail) }

// ---------------------------------------------------------------------------
// Snapshots.

// HistogramSnapshot summarizes one histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	MaxNs int64 `json:"max_ns"`
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
}

// Snapshot is a point-in-time copy of every metric, recent span and
// event. It marshals to the JSON object /metrics serves and
// examples/metrics prints.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Spans      []SpanRecord                 `json:"spans,omitempty"`
	Events     []Event                      `json:"events,omitempty"`
}

// Counter returns a snapshotted counter value (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Snapshot copies the registry's current state.
//
// Two consistency guarantees hold even when the snapshot is taken in the
// middle of concurrent scans:
//
//   - Each histogram summary is internally consistent (Count equals the
//     bucket population its quantiles were computed from) via
//     Histogram.Snapshot's optimistic retry.
//   - Counter/histogram pairs written in the "observe latency, then
//     increment the op counter" order (the server and exec convention)
//     never tear backwards: counters are read before histograms here, so
//     a snapshot can only see a histogram count >= its paired counter,
//     never a counted op whose latency is missing.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	r.mu.Unlock()
	r.spanMu.Lock()
	spans := r.spans.appendTo(nil)
	s.Events = r.events.appendTo(nil)
	r.spanMu.Unlock()
	for _, e := range spans {
		s.Spans = append(s.Spans, e.record())
	}
	return s
}

// TakeSnapshot copies the default registry's state.
func TakeSnapshot() Snapshot { return Default.Snapshot() }

// Names returns the sorted metric names of one kind, for deterministic
// dumps.
func (s Snapshot) Names() (counters, histograms []string) {
	for n := range s.Counters {
		counters = append(counters, n)
	}
	for n := range s.Histograms {
		histograms = append(histograms, n)
	}
	sort.Strings(counters)
	sort.Strings(histograms)
	return counters, histograms
}

// WriteJSON writes the registry snapshot as indented JSON (the
// expvar-style dump used by examples/metrics).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
