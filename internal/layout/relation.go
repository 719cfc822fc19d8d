package layout

import (
	"errors"
	"fmt"

	"hybridstore/internal/schema"
)

// ErrNoLayout is returned when a relation operation needs a layout and the
// relation has none.
var ErrNoLayout = errors.New("layout: relation has no layout")

// Relation is the logical object of the paper's terminology: a named
// schema with one or more alternative physical layouts and a row count.
// Engines own the policy of how layouts are kept coherent (replication or
// delegation, Section III "Fragment scheme"); Relation only carries the
// structure.
type Relation struct {
	name    string
	rel     *schema.Schema
	layouts []*Layout
	rows    uint64
}

// NewRelation creates a relation with no layouts yet.
func NewRelation(name string, s *schema.Schema) *Relation {
	return &Relation{name: name, rel: s}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation schema.
func (r *Relation) Schema() *schema.Schema { return r.rel }

// Rows returns the logical row count.
func (r *Relation) Rows() uint64 { return r.rows }

// SetRows updates the logical row count (engines call this after appends).
func (r *Relation) SetRows(n uint64) { r.rows = n }

// Layouts returns the layout list (shared slice; do not mutate).
func (r *Relation) Layouts() []*Layout { return r.layouts }

// AddLayout attaches a layout to the relation.
func (r *Relation) AddLayout(l *Layout) { r.layouts = append(r.layouts, l) }

// RemoveLayout detaches a layout (without freeing it).
func (r *Relation) RemoveLayout(l *Layout) {
	for i, x := range r.layouts {
		if x == l {
			r.layouts = append(r.layouts[:i], r.layouts[i+1:]...)
			return
		}
	}
}

// Primary returns the first layout, the conventional default for engines
// with a single layout.
func (r *Relation) Primary() (*Layout, error) {
	if len(r.layouts) == 0 {
		return nil, fmt.Errorf("%w: relation %q", ErrNoLayout, r.name)
	}
	return r.layouts[0], nil
}

// Free releases all layouts.
func (r *Relation) Free() {
	for _, l := range r.layouts {
		l.Free()
	}
	r.layouts = nil
	r.rows = 0
}

// String summarizes the relation.
func (r *Relation) String() string {
	return fmt.Sprintf("relation{%q, %d rows, %d layouts}", r.name, r.rows, len(r.layouts))
}
