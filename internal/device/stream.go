package device

import (
	"fmt"
	"slices"
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
// double-buffered cp.async pipeline buys on real hardware. An H2D copy's
// bus time enters the transfer lane when the first kernel reading its
// buffer launches (or at Wait, if none does): an executor that uploads
// every image before its first launch is priced as if each copy had
// been issued right before its consumer.
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
	staged     []staged
}

// staged is a copy whose bus time waits for the first kernel reading buf.
type staged struct {
	buf *Buffer
	ns  float64
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

// stage holds a copy into buf until its consumer launches.
func (s *Stream) stage(buf *Buffer, ns float64) {
	s.mu.Lock()
	s.staged = append(s.staged, staged{buf, ns})
	s.ops++
	s.mu.Unlock()
}

// consume moves the staged copies into the buffers k reads — all of
// them, for a nil k — into the transfer lane, in the order they were
// issued.
func (s *Stream) consume(k *Kernel) {
	s.mu.Lock()
	s.staged = slices.DeleteFunc(s.staged, func(c staged) bool {
		read := k == nil || c.buf == k.Keys.Buf || c.buf == k.Vals.Buf || c.buf == k.Comp
		if read {
			s.transferNs += c.ns
		}
		return read
	})
	s.mu.Unlock()
}

// CopyToDevice enqueues an async H2D copy. The copy is performed (and
// counted) immediately; its bus time lands in the transfer lane when
// its consumer launches.
func (s *Stream) CopyToDevice(dst *Buffer, off int, src []byte) error {
	ns, err := s.gpu.copyToDevice(dst, off, src)
	if err != nil {
		return err
	}
	s.stage(dst, ns)
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
	s.stage(dst, s.gpu.uploaded(n))
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

// Wait blocks until every enqueued command is complete (immediate on the
// simulated card) and charges the clock the overlapped total of both
// lanes since creation, minus what earlier Waits already charged.
// OverlapNs is monotone in both lanes, so the delta against the
// watermark is never negative.
func (s *Stream) Wait() {
	sp := spStream.Start()
	s.consume(nil)
	s.mu.Lock()
	due := s.gpu.prof.OverlapNs(s.transferNs, s.computeNs, s.stages)
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
