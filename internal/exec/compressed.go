package exec

import (
	"fmt"
	"sync"

	"hybridstore/internal/compress"
)

// Host-side compressed-domain execution. Pieces carrying a sealed
// compressed image (Piece.Comp) are split off the raw list and handed
// to the compressed-domain operators of internal/compress; raw pieces
// keep the fused byte kernels. Per-piece partials are computed
// independently — in parallel under MultiThreaded/MorselDriven, capped
// at the policy's worker count — and folded in piece order, which is
// exactly the order the sequential baseline accumulates per-piece
// partial sums in, so single-policy results stay bit-identical to
// decompress-then-scan.

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

// forEachComp runs kernel over every compressed piece — concurrently
// when the policy has workers to spare — and reports the first error.
// Kernels write their partials into per-piece slots, so callers fold
// results in piece order regardless of scheduling.
func forEachComp(cfg Config, pieces []Piece, kernel func(i int, c *compress.Column) error) error {
	th := cfg.threads()
	if th <= 1 || len(pieces) == 1 {
		for i, pc := range pieces {
			if err := kernel(i, pc.Comp); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(pieces))
	sem := make(chan struct{}, th)
	var wg sync.WaitGroup
	for i, pc := range pieces {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c *compress.Column) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = kernel(i, c)
		}(i, pc.Comp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// compFold runs one compressed-domain (sum, count) kernel per piece and
// folds the per-piece partials in piece order.
func compFold(cfg Config, pieces []Piece, kernel func(c *compress.Column) (float64, int64, error)) (float64, int64, error) {
	sums := make([]float64, len(pieces))
	counts := make([]int64, len(pieces))
	err := forEachComp(cfg, pieces, func(i int, c *compress.Column) (err error) {
		sums[i], counts[i], err = kernel(c)
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadColumn, err)
	}
	var sum float64
	var n int64
	for i := range sums {
		sum += sums[i]
		n += counts[i]
	}
	return sum, n, nil
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
