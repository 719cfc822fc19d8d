package layout

import (
	"fmt"

	"hybridstore/internal/stats"
)

// RestoreContent fills the fragment wholesale from a checkpointed byte
// image and sets its length — the recovery twin of Raw()+SetLen. Unlike
// SetLen it does NOT invalidate the zone maps: the caller restores the
// checkpointed zone snapshots immediately after via RestoreZone, so a
// warm restart re-seals nothing. raw must not exceed the fragment's
// block; n must fit the capacity.
func (f *Fragment) RestoreContent(raw []byte, n int) error {
	if n < 0 || n > f.Cap() {
		return fmt.Errorf("%w: len %d, capacity %d", ErrOutOfRange, n, f.Cap())
	}
	dst := f.block.Bytes()
	if len(raw) > len(dst) {
		return fmt.Errorf("%w: image %d bytes into %d-byte block", ErrOutOfRange, len(raw), len(dst))
	}
	copy(dst, raw)
	f.n = n
	f.version.Add(1)
	return nil
}

// RestoreZone installs a checkpointed zone snapshot for relation
// attribute c. Columns that carry no zone (anything but an 8-byte
// float64) reject the restore.
func (f *Fragment) RestoreZone(c int, s stats.Snapshot) error {
	p := f.colPos(c)
	if p < 0 || f.zones[p] == nil {
		return fmt.Errorf("%w: column %d carries no zone", ErrOutOfRange, c)
	}
	f.zones[p] = stats.FromSnapshot(s)
	return nil
}
