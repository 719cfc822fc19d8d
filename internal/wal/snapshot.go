package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// snapshotMagic heads every checkpoint file: "HSCK" + format version 1.
var snapshotMagic = [8]byte{'H', 'S', 'C', 'K', 1, 0, 0, 0}

// WriteSnapshotFile writes the payload — the concatenation of parts,
// each written as it is, never joined in memory — to path with a magic
// header and a trailing CRC-32, via a temp file and atomic rename,
// fsyncing the file before the swap and the parent directory after it.
// A crash mid-write leaves the previous snapshot (or none) intact; a
// torn file fails ReadSnapshotFile's checksum.
func WriteSnapshotFile(path string, parts ...[]byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	_, err = f.Write(snapshotMagic[:])
	var crc uint32
	for _, p := range parts {
		if err != nil {
			break
		}
		crc = crc32.Update(crc, crc32.IEEETable, p)
		_, err = f.Write(p)
	}
	if err == nil {
		_, err = f.Write(binary.LittleEndian.AppendUint32(nil, crc))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	// The rename must itself be durable before the caller drops the log
	// records this snapshot covers: fsyncing the file alone does not
	// persist its directory entry, and a power failure that kept the WAL
	// truncation but lost the rename would lose acknowledged writes.
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed file inside it is
// durably reachable after power failure.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: syncing dir %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: syncing dir %s: %w", dir, err)
	}
	return nil
}

// ReadSnapshotFile reads a snapshot written by WriteSnapshotFile,
// validating magic and checksum, and returns the payload. A missing
// file returns os.ErrNotExist (wrapped).
func ReadSnapshotFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	if len(data) < len(snapshotMagic)+4 {
		return nil, fmt.Errorf("%w: snapshot %s too short", ErrCorrupt, path)
	}
	for i, b := range snapshotMagic {
		if data[i] != b {
			return nil, fmt.Errorf("%w: snapshot %s bad magic", ErrCorrupt, path)
		}
	}
	payload := data[len(snapshotMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("%w: snapshot %s checksum mismatch", ErrCorrupt, path)
	}
	return payload, nil
}
