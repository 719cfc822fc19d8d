package device

import (
	"strconv"
	"sync"

	"hybridstore/internal/compress"
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
// double-buffered cp.async pipeline buys on real hardware. The lanes are
// sums, so an executor that uploads every image before its one launch is
// priced as if each copy had been issued right before its consumer.
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

// Reopen makes s what NewStream(g) returns — the default depth, empty
// lanes, nothing charged — for a caller that keeps a stream with its
// per-scan scratch instead of allocating one per scan. Whatever s
// enqueued and did not Wait for is dropped uncharged.
func (s *Stream) Reopen(g *GPU) *Stream {
	s.gpu, s.stages = g, DefaultStreamStages
	s.transferNs, s.computeNs, s.chargedNs = 0, 0, 0
	return s
}

// add accumulates priced time in the transfer and compute lanes.
func (s *Stream) add(transferNs, computeNs float64) {
	s.mu.Lock()
	s.transferNs += transferNs
	s.computeNs += computeNs
	s.mu.Unlock()
}

// CopyToDevice enqueues an async H2D copy. The copy is performed (and
// counted) immediately; its bus time lands in the transfer lane.
func (s *Stream) CopyToDevice(dst *Buffer, off int, src []byte) error {
	ns, err := s.gpu.copyToDevice(dst, off, src)
	if err != nil {
		return err
	}
	s.add(ns, 0)
	return nil
}

// CopyImageToDevice enqueues an async H2D copy of c's wire image,
// encoded by compress.Column.AppendMarshal straight into dst at off: the
// bytes and the charge of CopyToDevice(dst, off, c.AppendMarshal(nil)),
// without building the image on the host first.
func (s *Stream) CopyImageToDevice(dst *Buffer, off int, c *compress.Column) error {
	n := c.MarshaledBytes()
	w, err := dst.window(off, n)
	if err != nil {
		return err
	}
	c.AppendMarshal(w[:0])
	s.add(s.gpu.uploaded(n), 0)
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
	s.add(transfer, ns-transfer)
	return nil
}

// Wait blocks until every enqueued command is complete (immediate on the
// simulated card) and charges the clock the overlapped total of both
// lanes since creation, minus what earlier Waits already charged.
// OverlapNs is monotone in both lanes, so the delta against the
// watermark is never negative.
func (s *Stream) Wait() {
	sp := spStream.Start()
	s.mu.Lock()
	due := s.gpu.prof.OverlapNs(s.transferNs, s.computeNs, s.stages)
	delta := due - s.chargedNs
	if delta > 0 {
		s.chargedNs = due
	}
	s.mu.Unlock()
	if delta > 0 {
		s.gpu.charge(delta)
	}
	sp.EndWith(chargedDetail(delta))
}

// chargedDetail is Wait's span detail, the bytes of
// fmt.Sprintf("charged_ns=%.0f", ns) without fmt's boxing and parsing.
func chargedDetail(ns float64) string {
	var b [48]byte
	return string(strconv.AppendFloat(append(b[:0], "charged_ns="...), ns, 'f', 0, 64))
}
