package exec

import (
	"cmp"
	"slices"
)

// SortGroupResults orders a group table by key. Group tables are the
// tail of every grouped-aggregate answer, so this runs on the serving
// hot path — slices.SortFunc compiles to a monomorphic comparison,
// where sort.Slice pays reflect.Swapper per element.
func SortGroupResults(out []GroupResult) {
	slices.SortFunc(out, func(a, b GroupResult) int { return cmp.Compare(a.Key, b.Key) })
}

// FoldGroups folds a partial group table into dst in place and returns
// it: both key-sorted, as drained tables are, with positive counts. A
// key both hold adds part's sum to dst's, one only part holds is
// inserted at its place — so dst grows, and moves, only for those — and
// an empty part costs nothing. The bits are a table merge's of dst,
// then part: a fresh group's -0 plus dst's sum is dst's sum exactly.
func FoldGroups(dst, part []GroupResult) []GroupResult {
	extra := 0
	for i, j := 0, 0; j < len(part); {
		switch {
		case i == len(dst) || dst[i].Key > part[j].Key:
			extra++
			j++
		case dst[i].Key < part[j].Key:
			i++
		default:
			dst[i].Sum += part[j].Sum
			dst[i].Count += part[j].Count
			i, j = i+1, j+1
		}
	}
	if extra == 0 {
		return dst
	}
	// Merge the keys only part holds in from the back, where the grown
	// tail gives them room.
	i, j := len(dst)-1, len(part)-1
	dst = slices.Grow(dst, extra)[:len(dst)+extra]
	for w := len(dst) - 1; j >= 0; w-- {
		switch {
		case i >= 0 && dst[i].Key > part[j].Key:
			dst[w] = dst[i]
			i--
		case i >= 0 && dst[i].Key == part[j].Key:
			dst[w] = dst[i] // summed above
			i, j = i-1, j-1
		default:
			dst[w] = part[j]
			j--
		}
	}
	return dst
}
