package exec

import (
	"fmt"
	"slices"
)

// Host-side compressed-domain execution under the parallel policies:
// pieces carrying a sealed compressed image (Piece.Comp) are left out of
// the raw list, whose byte kernels run partitioned over the workers,
// and go to compress.Column.Fold, the compressed-domain fold, in piece
// order. The sequential fold takes both kinds in one piece-order loop.

// isComp reports whether a piece carries a compressed image.
func isComp(p Piece) bool { return p.Comp != nil }

// rawOf returns the raw pieces, aliasing the input when nothing is
// compressed, so the common all-raw case allocates nothing.
func rawOf(pieces []Piece) []Piece {
	if !slices.ContainsFunc(pieces, isComp) {
		return pieces
	}
	return slices.DeleteFunc(slices.Clone(pieces), isComp)
}

// rejectComp guards operators without a compressed path.
func rejectComp(pieces []Piece, what string) error {
	if slices.ContainsFunc(pieces, isComp) {
		return fmt.Errorf("%w: %s has no compressed-domain path", ErrBadColumn, what)
	}
	return nil
}
