package device

import "sort"

// ResidentCol names one column of a table with at least one cache-
// resident device image, in the format it is resident in. Checkpoint
// manifests persist this list so a warm restart can re-prime the cache
// to the pre-crash working set without waiting for the first scans to
// miss.
type ResidentCol struct {
	// Col is the relation attribute index.
	Col int
	// Comp marks the compressed wire image rather than dense bytes.
	Comp bool
}

// ResidentColumns lists the distinct (column, format) pairs of one
// table with resident images, sorted by column then format. Pinned and
// unpinned images both count; versions are irrelevant — the list names
// what was warm, not which bytes were.
func (c *FragCache) ResidentColumns(table string) []ResidentCol {
	c.mu.Lock()
	seen := make(map[ResidentCol]bool)
	id, ok := c.names[table]
	for key := range c.entries {
		if ok && key.table == id {
			seen[ResidentCol{Col: key.col, Comp: key.comp}] = true
		}
	}
	c.mu.Unlock()
	out := make([]ResidentCol, 0, len(seen))
	for rc := range seen {
		out = append(out, rc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return !out[i].Comp && out[j].Comp
	})
	return out
}
