package device

import (
	"fmt"
	"sync"

	"hybridstore/internal/obs"
)

// Stream observability: one span per Wait, annotated with the simulated
// charge.
var spStream = obs.NewSpanFamily("device.stream")

// DefaultStreamStages is the double-buffering depth of a stream: two
// staging slots, the classic cp.async ping-pong pipeline (one slice in
// flight on the bus while the previous one is being consumed by the
// kernel).
const DefaultStreamStages = 2

// Stream is an ordered asynchronous command queue on one GPU, the
// simulated counterpart of a CUDA stream. Commands execute eagerly — the
// software card computes real results, so enqueue calls return them
// directly — but their priced durations are not charged to the clock one
// by one. Instead they accumulate in two lanes, transfer and compute, and
// Wait charges the overlapped total perfmodel.OverlapNs(transfer,
// compute, stages): the longer lane plus a pipeline fill/drain bubble of
// the shorter lane divided by the stage count. With stages=2 a scan whose
// H2D copy and kernel are balanced costs ~max(transfer, compute) + half
// the shorter phase instead of their sum — the overlap win a
// double-buffered cp.async pipeline buys on real hardware.
//
// A Stream is not safe for concurrent use; like a CUDA stream it
// serializes the commands of one issuing thread. Create one stream per
// worker instead of sharing.
type Stream struct {
	gpu    *GPU
	stages int

	mu         sync.Mutex
	transferNs float64 // lane: bus crossings enqueued since creation
	computeNs  float64 // lane: kernel launches enqueued since creation
	chargedNs  float64 // watermark: overlapped ns already charged by Wait
	ops        int     // commands enqueued since the last Wait
}

// NewStream opens a stream with the default double-buffered pipeline
// depth.
func (g *GPU) NewStream() *Stream { return g.NewStreamDepth(DefaultStreamStages) }

// NewStreamDepth opens a stream with an explicit pipeline depth. Depth 1
// disables overlap (transfer and compute serialize, matching the
// synchronous GPU methods exactly); deeper pipelines shrink the fill/
// drain bubble.
func (g *GPU) NewStreamDepth(stages int) *Stream {
	if stages < 1 {
		stages = 1
	}
	return &Stream{gpu: g, stages: stages}
}

// addTransfer accumulates priced bus time in the transfer lane.
func (s *Stream) addTransfer(ns float64) {
	s.mu.Lock()
	s.transferNs += ns
	s.ops++
	s.mu.Unlock()
}

// addCompute accumulates priced kernel time in the compute lane.
func (s *Stream) addCompute(ns float64) {
	s.mu.Lock()
	s.computeNs += ns
	s.ops++
	s.mu.Unlock()
}

// CopyToDevice enqueues an async H2D copy. The copy is performed (and
// counted) immediately; its bus time lands in the transfer lane.
func (s *Stream) CopyToDevice(dst *Buffer, off int, src []byte) error {
	ns, err := s.gpu.copyToDevice(dst, off, src)
	if err != nil {
		return err
	}
	s.addTransfer(ns)
	return nil
}

// Scatter enqueues a scatter whose value bytes cross the bus H2D before
// the kernel runs: the transfer share lands in the transfer lane and the
// kernel share in the compute lane, so batched transactional writes
// (gputx) overlap their value shipping with the scatter kernels.
func (s *Stream) Scatter(v Vec, positions []int, vals []byte) error {
	ns, err := s.gpu.scatter(v, positions, vals)
	if err != nil {
		return err
	}
	transfer := s.gpu.prof.TransferNs(int64(len(vals)))
	s.mu.Lock()
	s.transferNs += transfer
	s.computeNs += ns - transfer
	s.ops++
	s.mu.Unlock()
	return nil
}

// Event marks a point in a stream's command order: a snapshot of both
// lanes at Record time. Waiting on the event charges the overlapped cost
// of everything enqueued before it, and nothing after.
type Event struct {
	stream                *Stream
	transferNs, computeNs float64
}

// Record snapshots the stream's lanes.
func (s *Stream) Record() Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Event{stream: s, transferNs: s.transferNs, computeNs: s.computeNs}
}

// Wait blocks until every enqueued command is complete (immediate on the
// simulated card) and charges the clock the overlapped total of both
// lanes since creation, minus what earlier Waits already charged.
func (s *Stream) Wait() {
	s.mu.Lock()
	t, c := s.transferNs, s.computeNs
	s.mu.Unlock()
	s.settle(t, c)
}

// WaitEvent charges up to the event's snapshot only.
func (s *Stream) WaitEvent(e Event) {
	if e.stream != s {
		return
	}
	s.settle(e.transferNs, e.computeNs)
}

// settle charges the clock so that the cumulative charge equals the
// overlap-priced cost of lanes (t, c). OverlapNs is monotone in both
// lanes, so the delta against the watermark is never negative for a
// later snapshot; an event from before the last Wait charges nothing.
func (s *Stream) settle(t, c float64) {
	sp := spStream.Start()
	s.mu.Lock()
	due := s.gpu.prof.OverlapNs(t, c, s.stages)
	delta := due - s.chargedNs
	ops := s.ops
	if delta > 0 {
		s.chargedNs = due
	}
	s.ops = 0
	s.mu.Unlock()
	if delta > 0 {
		s.gpu.charge(delta)
	}
	sp.EndWith(fmt.Sprintf("ops=%d charged_ns=%.0f", ops, delta))
}

// Lanes reports the accumulated (transfer, compute) lane totals, for
// tests and the perf panels.
func (s *Stream) Lanes() (transferNs, computeNs float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.transferNs, s.computeNs
}
