package workload

import (
	"sort"
	"sync"
)

// Monitor observes the access pattern of a relation at runtime: per-
// attribute point (record-centric) and scan (attribute-centric) counts
// plus a column co-access matrix. Responsive storage engines (HYRISE,
// H₂O, Peloton, and the reference engine in internal/core) feed their
// operations into a Monitor and periodically ask it for a fragmentation
// advice via SuggestGroups — the mechanism behind the paper's "layout
// adaptability: responsive" property.
//
// Monitor is safe for concurrent use.
type Monitor struct {
	mu      sync.Mutex
	arity   int
	point   []uint64   // per-column record-centric touches
	scan    []uint64   // per-column attribute-centric touches
	coAcc   [][]uint64 // co-access counts (upper triangle used)
	inserts uint64
	updates uint64
}

// NewMonitor creates a monitor for a relation of the given arity.
func NewMonitor(arity int) *Monitor {
	m := &Monitor{
		arity: arity,
		point: make([]uint64, arity),
		scan:  make([]uint64, arity),
		coAcc: make([][]uint64, arity),
	}
	for i := range m.coAcc {
		m.coAcc[i] = make([]uint64, arity)
	}
	return m
}

// Observe records one workload operation.
func (m *Monitor) Observe(op Op) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch op.Kind {
	case PointRead, PointUpdate:
		if op.Kind == PointUpdate {
			m.updates++
		}
		for _, c := range op.Cols {
			if c >= 0 && c < m.arity {
				m.point[c]++
			}
		}
		// Columns touched together in one record-centric operation
		// co-access pairwise.
		for i := 0; i < len(op.Cols); i++ {
			for j := i + 1; j < len(op.Cols); j++ {
				a, b := op.Cols[i], op.Cols[j]
				if a >= 0 && a < m.arity && b >= 0 && b < m.arity {
					if a > b {
						a, b = b, a
					}
					m.coAcc[a][b]++
				}
			}
		}
	case Insert:
		m.inserts++
	case ColumnScan:
		for _, c := range op.Cols {
			if c >= 0 && c < m.arity {
				m.scan[c]++
			}
		}
	}
}

// Reset clears all counters (engines call this after re-organizing, so
// the next advice reflects the post-adaptation workload only).
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.point {
		m.point[i], m.scan[i] = 0, 0
		for j := range m.coAcc[i] {
			m.coAcc[i][j] = 0
		}
	}
	m.inserts, m.updates = 0, 0
}

// Stats is a point-in-time summary of the observed pattern.
type Stats struct {
	// Point and Scan are per-column record-centric and attribute-centric
	// touch counts.
	Point, Scan []uint64
	// Inserts and Updates are write counters.
	Inserts, Updates uint64
	// AttrCentricRatio is scans / (scans + points) over all columns,
	// in [0,1]; 0 for an empty monitor.
	AttrCentricRatio float64
}

// Observations returns the total operations observed since the last
// Reset. Adaptive engines treat an empty monitor as "no evidence" and
// keep their current layout rather than reverting to the default advice.
func (m *Monitor) Observations() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for i := 0; i < m.arity; i++ {
		n += m.point[i] + m.scan[i]
	}
	return n + m.inserts + m.updates
}

// Snapshot returns the current statistics.
func (m *Monitor) Snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Point:   append([]uint64(nil), m.point...),
		Scan:    append([]uint64(nil), m.scan...),
		Inserts: m.inserts,
		Updates: m.updates,
	}
	var points, scans uint64
	for i := 0; i < m.arity; i++ {
		points += m.point[i]
		scans += m.scan[i]
	}
	if points+scans > 0 {
		s.AttrCentricRatio = float64(scans) / float64(points+scans)
	}
	return s
}

// SuggestGroups proposes a vertical fragmentation: attributes that
// co-access in record-centric operations more than affinity·max fuse
// into shared (NSM-leaning) groups, while scan-dominated attributes stay
// alone as thin (DSM) columns. The greedy agglomeration mirrors the
// attribute-affinity clustering used by HYRISE-style layout advisors.
// affinity must be in (0, 1]; groups come back sorted by first member.
func (m *Monitor) SuggestGroups(affinity float64) [][]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if affinity <= 0 || affinity > 1 {
		affinity = 0.5
	}
	// Find the strongest co-access count for normalization.
	var maxCo uint64
	for i := 0; i < m.arity; i++ {
		for j := i + 1; j < m.arity; j++ {
			if m.coAcc[i][j] > maxCo {
				maxCo = m.coAcc[i][j]
			}
		}
	}
	parent := make([]int, m.arity)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	if maxCo > 0 {
		threshold := affinity * float64(maxCo)
		for i := 0; i < m.arity; i++ {
			for j := i + 1; j < m.arity; j++ {
				co := float64(m.coAcc[i][j])
				if co < threshold {
					continue
				}
				// A column scanned much more often than it is point-read
				// stays thin even when record reads co-access it.
				if m.scanDominated(i) || m.scanDominated(j) {
					continue
				}
				union(i, j)
			}
		}
	}
	groups := make(map[int][]int)
	for c := 0; c < m.arity; c++ {
		r := find(c)
		groups[r] = append(groups[r], c)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// scanDominated reports whether column c's scans outnumber its point
// touches by more than 2:1. Callers hold m.mu.
func (m *Monitor) scanDominated(c int) bool {
	return m.scan[c] > 2*m.point[c]
}
