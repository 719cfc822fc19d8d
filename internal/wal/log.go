package wal

import (
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
	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	path     string
	opts     Options
	buf      []byte // encoded frames appended but not yet written
	nextLSN  uint64 // LSN the next Append receives
	written  uint64 // highest LSN handed to the OS
	durable  uint64 // highest LSN known durable per policy
	flushing bool   // a flush leader is running
	err      error  // sticky I/O error; poisons all later operations
	closed   bool
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

// appendFrame appends payload to dst behind its frame header.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Append encodes and enqueues rec, returning its log sequence number.
// The record is not durable until Sync(lsn) returns.
func (l *Log) Append(rec *Record) (uint64, error) {
	var e Encoder
	if err := rec.encode(&e); err != nil {
		return 0, err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	l.buf = appendFrame(l.buf, e.Bytes())
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
	l.buf = nil
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
	if err != nil {
		l.err = fmt.Errorf("wal: flush: %w", err)
	} else {
		l.written = target
		l.durable = target
	}
	l.cond.Broadcast()
}

// Compact rewrites the log keeping only records for which keep returns
// true — the checkpoint truncation path. It drains any in-flight flush,
// writes the survivors to a temp file, fsyncs and atomically renames it
// over the log (fsyncing the directory so the swap survives power
// loss). Compact runs under concurrent writers: LSN numbering stays
// monotonic across it, so an Append that raced ahead of the compaction
// can still Sync its pre-compact LSN afterwards.
func (l *Log) Compact(keep func(*Record) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	// Flush the pending buffer so the file holds everything appended.
	if len(l.buf) > 0 {
		if _, err := l.f.Write(l.buf); err != nil {
			l.err = fmt.Errorf("wal: flush before compact: %w", err)
			return l.err
		}
		l.buf = nil
		l.written = l.nextLSN - 1
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	data, err := io.ReadAll(l.f)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	recs, _, err := scan(data)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}

	tmp := l.path + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	var e Encoder
	var frame []byte
	for _, rec := range recs {
		if !keep(rec) {
			continue
		}
		e.Reset()
		err := rec.encode(&e)
		if err == nil {
			frame = appendFrame(frame[:0], e.Bytes())
			_, err = out.Write(frame)
		}
		if err != nil {
			out.Close()
			os.Remove(tmp)
			return fmt.Errorf("wal: compact: %w", err)
		}
	}
	if err := out.Sync(); err != nil {
		out.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
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
	old := l.f
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		l.err = fmt.Errorf("wal: reopen after compact: %w", err)
		return l.err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		l.err = fmt.Errorf("wal: %w", err)
		return l.err
	}
	old.Close()
	l.f = f
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
