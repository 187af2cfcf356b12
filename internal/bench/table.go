package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result grid, formatted like the paper's
// figures: one row per configuration, one numeric cell per category.
type Table struct {
	// ID is the experiment identifier ("fig5", "table1", ...).
	ID string
	// Title describes the table (figure caption).
	Title string
	// Columns are the cell headers (workload categories, cache sizes, ...).
	Columns []string
	// Rows are the result rows.
	Rows []Row
	// Notes carry free-form remarks appended after the grid.
	Notes []string
}

// Row is one labelled result line.
type Row struct {
	Label string
	Cells []float64
	// Text overrides numeric cells for non-numeric rows (Table 1 verdicts).
	Text []string
}

// AddRow appends a numeric row.
func (t *Table) AddRow(label string, cells ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// AddTextRow appends a textual row.
func (t *Table) AddTextRow(label string, cells ...string) {
	t.Rows = append(t.Rows, Row{Label: label, Text: cells})
}

// Cell returns the value at (rowLabel, column), or false when absent.
func (t *Table) Cell(rowLabel, column string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel && ci < len(r.Cells) {
			return r.Cells[ci], true
		}
	}
	return 0, false
}

// Format renders the table as fixed-width text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	labelW := len("row")
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := 8
	for _, c := range t.Columns {
		if len(c)+1 > colW {
			colW = len(c) + 1
		}
	}
	fmt.Fprintf(w, "%-*s", labelW+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%*s", colW, c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", labelW+2, r.Label)
		if r.Text != nil {
			for _, c := range r.Text {
				fmt.Fprintf(w, "%*s", colW, c)
			}
		} else {
			for _, c := range r.Cells {
				fmt.Fprintf(w, "%*.2f", colW, c)
			}
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// FormatMarkdown renders the table as a GitHub-flavoured markdown table
// (gcbench -markdown).
func (t *Table) FormatMarkdown(w io.Writer) {
	fmt.Fprintf(w, "**%s — %s**\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| |%s|\n", strings.Join(t.Columns, "|"))
	fmt.Fprint(w, "|---|")
	for range t.Columns {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "|%s|", r.Label)
		if r.Text != nil {
			for _, c := range r.Text {
				fmt.Fprintf(w, "%s|", c)
			}
		} else {
			for _, c := range r.Cells {
				fmt.Fprintf(w, "%.2f|", c)
			}
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n*%s*\n", n)
	}
	fmt.Fprintln(w)
}
