// Package report renders the tables cmd/drxbench prints: fixed-width
// ASCII for the terminal and CSV for machine consumption.
package report

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a simple column-oriented result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// New creates a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are stringified with %v.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = trimFloat(x)
		case time.Duration:
			row[i] = x.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote line printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.3f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Render writes the fixed-width table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	var header strings.Builder
	for i, c := range t.Columns {
		if i > 0 {
			header.WriteString("  ")
		}
		fmt.Fprintf(&header, "%-*s", widths[i], c)
	}
	fmt.Fprintln(w, header.String())
	fmt.Fprintln(w, strings.Repeat("-", len(header.String())))
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the table as CSV (title and notes as # comments).
func (t *Table) RenderCSV(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "# %s\n", t.Title)
	}
	fmt.Fprintln(w, strings.Join(csvEscape(t.Columns), ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(csvEscape(row), ","))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

func csvEscape(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		out[i] = c
	}
	return out
}

// Bytes renders a byte count in human units.
func Bytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Ratio renders a/b with a multiplication sign ("12.3x"), guarding b=0.
func Ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}
