package exec

import "fmt"

// Host-side compressed-domain execution under the parallel policies:
// pieces carrying a sealed compressed image (Piece.Comp) are split off
// the raw list, whose byte kernels run partitioned over the workers,
// and go to compress.Column.Fold, the compressed-domain fold, in
// piece order (sumPieces). The sequential fold takes both kinds in one
// piece-order loop.

// splitComp partitions pieces into raw and compressed. The raw slice
// aliases the input when nothing is compressed, so the common all-raw
// case allocates nothing.
func splitComp(pieces []Piece) (raw, comp []Piece) {
	split := false
	for i, p := range pieces {
		if p.Comp == nil {
			if split {
				raw = append(raw, p)
			}
			continue
		}
		if !split {
			raw = append(raw, pieces[:i]...)
			split = true
		}
		comp = append(comp, p)
	}
	if !split {
		return pieces, nil
	}
	return raw, comp
}

// rejectComp guards operators without a compressed path.
func rejectComp(pieces []Piece, what string) error {
	for _, p := range pieces {
		if p.Comp != nil {
			return fmt.Errorf("%w: %s has no compressed-domain path", ErrBadColumn, what)
		}
	}
	return nil
}
