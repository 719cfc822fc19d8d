package figures

import (
	"fmt"
	"strings"
)

// Column is one column of a Table. It names itself per rendered form; an
// empty header leaves the column out of that form, which is how a
// text-only derived cell ("sim speedup", "hits/misses") and a CSV-only
// raw value ("matched", "warm_comp_ns") share one column list.
type Column struct {
	// CSV and Text are the column's header in each form.
	CSV, Text string
	// CSVVerb and TextVerb are the fmt verbs applied to the column's
	// cells; empty means %v (floats as %g, integers as %d).
	CSVVerb, TextVerb string
}

// Table is the one rendered form every panel produces: a sweep keeps its
// typed result struct for tests and gates to read, and turns it into
// Tables for people (Text) and tools (CSV).
type Table struct {
	// Label names the table on a "# " line where several CSV tables share
	// a stream; the driver writes it, CSV does not.
	Label string
	// Caption and Footer are the lines the text form prints above and
	// below the grid.
	Caption, Footer []string
	// Columns declares the grid; every row holds one cell per column, nil
	// for an empty one.
	Columns []Column
	Rows    [][]any
}

// grid formats the header and every row of one form, or returns nil when
// no column is present in it.
func (t Table) grid(csv bool) [][]string {
	var cols []int
	var head, verbs []string
	for i, c := range t.Columns {
		h, verb := c.Text, c.TextVerb
		if csv {
			h, verb = c.CSV, c.CSVVerb
		}
		if h == "" {
			continue
		}
		if verb == "" {
			verb = "%v"
		}
		cols = append(cols, i)
		head = append(head, h)
		verbs = append(verbs, verb)
	}
	if len(cols) == 0 {
		return nil
	}
	out := [][]string{head}
	for _, row := range t.Rows {
		cells := make([]string, len(cols))
		for j, i := range cols {
			if row[i] != nil {
				cells[j] = fmt.Sprintf(verbs[j], row[i])
			}
		}
		out = append(out, cells)
	}
	return out
}

// Text renders the table for a terminal: the caption, a right-aligned
// fixed-width grid with a rule under the header, and the footer. A table
// with no text column renders as the empty string.
func (t Table) Text() string {
	rows := t.grid(false)
	if rows == nil {
		return ""
	}
	var b strings.Builder
	for _, line := range t.Caption {
		b.WriteString(line + "\n")
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for r, row := range rows {
		start := b.Len()
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			b.WriteString(cell)
		}
		if r == 0 {
			b.WriteString("\n" + strings.Repeat("-", b.Len()-start))
		}
		b.WriteByte('\n')
	}
	for _, line := range t.Footer {
		b.WriteString(line + "\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values under one header line;
// a comma inside a cell becomes a semicolon so every record keeps the
// header's field count. A table with no CSV column renders as the empty
// string.
func (t Table) CSV() string {
	var b strings.Builder
	for _, row := range t.grid(true) {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strings.ReplaceAll(cell, ",", ";"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
