package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"hybridstore/internal/obs"
)

// Process-wide WAL counters.
var (
	mAppends   = obs.NewCounter("wal.appends")
	mFlushes   = obs.NewCounter("wal.flushes")
	mFsyncs    = obs.NewCounter("wal.fsyncs")
	mBytes     = obs.NewCounter("wal.bytes")
	mTornTail  = obs.NewCounter("wal.torn_tail_truncations")
	mGroupSize = obs.NewHistogram("wal.group_size")
)

// SyncPolicy selects when appended records are forced to stable storage.
type SyncPolicy int

// Fsync policies, cheapest first.
const (
	// SyncGrouped batches concurrent committers behind one flush leader:
	// the leader writes whatever arrived while the previous flush was in
	// flight and issues a single fsync for all of it.
	SyncGrouped SyncPolicy = iota
	// SyncAlways behaves as SyncGrouped (the leader never waits, so a
	// lone committer gets its own fsync under either); bench/ pins the name.
	SyncAlways
	// SyncNone writes to the OS on every Sync but never fsyncs: cheap,
	// survives process kill but not machine crash.
	SyncNone
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncGrouped:
		return "grouped"
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options configure a Log.
type Options struct {
	// Sync is the fsync policy (default SyncGrouped).
	Sync SyncPolicy
}

// frameHeaderSize is the per-record overhead: u32 length + u32 CRC.
const frameHeaderSize = 8

// Log is an append-only record log with CRC framing and group commit.
// Safe for concurrent use.
type Log struct {
	compactMu sync.Mutex // serializes Compact; never taken under mu
	mu        sync.Mutex
	cond      *sync.Cond
	f         *os.File
	path      string
	opts      Options
	buf       []byte // encoded frames appended but not yet written
	spare     []byte // the buffer the last flush wrote, the next flush's buf
	nextLSN   uint64 // LSN the next Append receives
	written   uint64 // highest LSN handed to the OS
	durable   uint64 // highest LSN known durable per policy
	flushing  bool   // a flush leader is running
	err       error  // sticky I/O error; poisons all later operations
	closed    bool
}

// Open opens (creating if absent) the log at path, validates every
// frame, truncates a torn tail, and returns the log positioned for
// appending plus the decoded records that survived validation. A
// CRC-valid frame that does not decode fails the open with ErrCorrupt
// and leaves the file as it was: truncating there would silently drop
// every acknowledged write behind it.
func Open(path string, opts Options) (*Log, []*Record, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	recs, good, err := scan(data)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	if good < int64(len(data)) {
		mTornTail.Inc()
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{f: f, path: path, opts: opts, nextLSN: uint64(len(recs)) + 1}
	l.written = l.nextLSN - 1
	l.durable = l.written
	l.cond = sync.NewCond(&l.mu)
	return l, recs, nil
}

// scan walks frames in data, returning the decoded records and the byte
// offset just past the last intact frame. Any framing or CRC damage
// stops the scan: everything after the last good frame is a torn tail.
// A frame whose CRC matches holds the bytes that were appended, so one
// that does not decode is an error, not a tail.
func scan(data []byte) ([]*Record, int64, error) {
	var recs []*Record
	off := 0
	for {
		if len(data)-off < frameHeaderSize {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n <= 0 || len(data)-off-frameHeaderSize < n {
			break
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, int64(off), fmt.Errorf("frame at offset %d (kind %d) has a valid CRC but does not decode: %w", off, payload[0], err)
		}
		recs = append(recs, rec)
		off += frameHeaderSize + n
	}
	return recs, int64(off), nil
}

// Append encodes rec straight into the pending buffer behind a
// reserved frame header, patches the header in place, and returns the
// record's log sequence number. The record is not durable until
// Sync(lsn) returns.
func (l *Log) Append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	start := len(l.buf)
	e := Encoder{buf: binary.LittleEndian.AppendUint64(l.buf, 0)}
	if err := rec.encode(&e); err != nil {
		return 0, err // l.buf keeps its length: the partial frame is dropped
	}
	frame := e.buf[start:]
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-frameHeaderSize))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[frameHeaderSize:]))
	l.buf = e.buf
	l.nextLSN++
	mAppends.Inc()
	return l.nextLSN - 1, nil
}

// Sync blocks until every record up to and including lsn is durable
// under the configured policy. Concurrent callers form a group: one
// becomes the flush leader, writes the whole pending buffer and fsyncs
// once; the rest wait on the result.
func (l *Log) Sync(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.err != nil {
			return l.err
		}
		if l.durable >= lsn {
			return nil
		}
		if l.closed {
			return fmt.Errorf("wal: log closed")
		}
		if !l.flushing {
			l.flushLocked()
			continue // re-check: our lsn may still be undurable on error
		}
		l.cond.Wait()
	}
}

// flushLocked is the group-commit leader body. Called with l.mu held;
// releases and reacquires it around the I/O.
func (l *Log) flushLocked() {
	l.flushing = true
	buf := l.buf
	l.buf = l.spare[:0]
	target := l.nextLSN - 1
	group := target - l.written
	l.mu.Unlock()

	var err error
	if len(buf) > 0 {
		_, err = l.f.Write(buf)
		mFlushes.Inc()
		mBytes.Add(int64(len(buf)))
		mGroupSize.Observe(int64(group))
	}
	if err == nil && l.opts.Sync != SyncNone {
		err = l.f.Sync()
		mFsyncs.Inc()
	}

	l.mu.Lock()
	l.flushing = false
	l.spare = buf
	if err != nil {
		l.err = fmt.Errorf("wal: flush: %w", err)
	} else {
		l.written = target
		l.durable = target
	}
	l.cond.Broadcast()
}

// Compact rewrites the log keeping only the records keep accepts — the
// checkpoint truncation path. keep sees each record's head only (Kind,
// Table, and Row or TS by kind; never Rec, Ops, Engine or Schema) in
// one Record that Compact reuses, and must not call into the log; the
// survivors are copied as the bytes that were appended. The bulk of the
// file is filtered without the log mutex, so appends and syncs run
// meanwhile; the mutex is taken again to filter the frames flushed
// since, and held while the survivors are fsynced, renamed over the log
// (the directory fsynced so the swap survives power loss) and reopened. Every frame in the file was written
// by this process after Open cut any torn tail, so a damaged one is
// ErrCorrupt and the log is left as it was. LSN numbering stays
// monotonic across Compact, so an Append that raced ahead of it can
// still Sync its pre-compact LSN afterwards.
func (l *Log) Compact(keep func(*Record) bool) error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.mu.Lock()
	f, end, err := l.drainLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}

	tmp := l.path + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	c := &compaction{keep: keep, r: bufio.NewReaderSize(nil, compactBufSize),
		w: bufio.NewWriterSize(out, compactBufSize), frame: make([]byte, frameHeaderSize)}
	fail := func(err error) error {
		out.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := c.filter(f, 0, end); err != nil {
		return fail(err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	f, tail, err := l.drainLocked()
	if err != nil {
		out.Close()
		os.Remove(tmp)
		return err
	}
	if err := c.filter(f, end, tail); err != nil {
		return fail(err)
	}
	if err := c.w.Flush(); err != nil {
		return fail(err)
	}
	if err := out.Sync(); err != nil {
		return fail(err)
	}
	if err := out.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := syncDir(filepath.Dir(l.path)); err != nil {
		// The rename may not be durably published; poison the log rather
		// than acknowledge writes against an uncertain file.
		l.err = err
		return l.err
	}
	nf, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		l.err = fmt.Errorf("wal: reopen after compact: %w", err)
		return l.err
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		l.err = fmt.Errorf("wal: %w", err)
		return l.err
	}
	f.Close()
	l.f = nf
	// LSN numbering must stay monotonic: writers that appended before we
	// took the lock may still hold their LSNs and Sync them after we
	// return. Everything appended so far is durable now — kept records
	// were fsynced into the compacted file, and dropped ones are covered
	// by the checkpoint image whose publication triggered this
	// truncation — so those Syncs return immediately instead of waiting
	// on numbering that restarted underneath them.
	l.written = l.nextLSN - 1
	l.durable = l.written
	l.cond.Broadcast()
	return nil
}

// drainLocked waits out a running flush, writes the pending buffer to
// the file (without an fsync) and returns the file and its length, so
// that every appended record is in its bytes. Called with l.mu held.
func (l *Log) drainLocked() (*os.File, int64, error) {
	for l.flushing {
		l.cond.Wait()
	}
	if l.err != nil {
		return nil, 0, l.err
	}
	if l.closed {
		return nil, 0, fmt.Errorf("wal: log closed")
	}
	if len(l.buf) > 0 {
		if _, err := l.f.Write(l.buf); err != nil {
			l.err = fmt.Errorf("wal: flush before compact: %w", err)
			return nil, 0, l.err
		}
		l.buf = l.buf[:0]
		l.written = l.nextLSN - 1
	}
	end, err := l.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	return l.f, end, nil
}

// compactBufSize is the read and write buffer of a compaction.
const compactBufSize = 64 << 10

// compaction is one Compact's frame filter: fixed buffers, one frame of
// scratch that grows to the largest frame, and the head keep is shown.
type compaction struct {
	keep  func(*Record) bool
	r     *bufio.Reader
	w     *bufio.Writer
	frame []byte
	head  Record
}

// filter walks the frames of f's bytes [from, to), checking each CRC
// and that each body decodes, and copies those whose head keep accepts
// to the output as they are.
func (c *compaction) filter(f *os.File, from, to int64) error {
	c.r.Reset(io.NewSectionReader(f, from, to-from))
	for off := from; off < to; {
		c.frame = c.frame[:frameHeaderSize]
		if _, err := io.ReadFull(c.r, c.frame); err != nil {
			return fmt.Errorf("reading frame at offset %d: %w", off, err)
		}
		n := int64(binary.LittleEndian.Uint32(c.frame))
		if n == 0 || n > to-off-frameHeaderSize {
			return fmt.Errorf("%w: frame at offset %d claims %d bytes, %d remain", ErrCorrupt, off, n, to-off-frameHeaderSize)
		}
		if need := frameHeaderSize + int(n); need > cap(c.frame) {
			c.frame = append(make([]byte, 0, need), c.frame...)
		}
		c.frame = c.frame[:frameHeaderSize+n]
		payload := c.frame[frameHeaderSize:]
		if _, err := io.ReadFull(c.r, payload); err != nil {
			return fmt.Errorf("reading frame at offset %d: %w", off, err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(c.frame[4:]) {
			return fmt.Errorf("%w: frame at offset %d fails its CRC", ErrCorrupt, off)
		}
		if err := checkRecord(payload, &c.head); err != nil {
			return fmt.Errorf("frame at offset %d (kind %d) has a valid CRC but does not decode: %w", off, payload[0], err)
		}
		if c.keep(&c.head) {
			if _, err := c.w.Write(c.frame); err != nil {
				return err
			}
		}
		off += frameHeaderSize + n
	}
	return nil
}

// Close flushes pending records (with a final fsync unless SyncNone)
// and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	var err error
	if l.err == nil && len(l.buf) > 0 {
		_, err = l.f.Write(l.buf)
		l.buf = nil
	}
	if err == nil && l.err == nil && l.opts.Sync != SyncNone {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return l.err
}
