package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result: a title, a header row, data rows
// and free-form notes. `dwssim -exp` and EXPERIMENTS.md use its text
// rendering.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += 2 + wd - 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", max(total, 8))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Render(&sb)
	return sb.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ms formats µs as milliseconds with one decimal.
func ms(us float64) string { return fmt.Sprintf("%.1f", us/1000) }

// ratio formats a normalised time.
func ratio(x float64) string { return fmt.Sprintf("%.2fx", x) }
