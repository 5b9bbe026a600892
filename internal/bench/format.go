package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// Renderer returns the Table writer a -format name selects: text (the
// aligned rendering EXPERIMENTS.md quotes), csv or json.
func Renderer(format string) (func(*Table, io.Writer) error, error) {
	switch format {
	case "text":
		return (*Table).Render, nil
	case "csv":
		return func(t *Table, w io.Writer) error { return t.WriteCSV(w, true) }, nil
	case "json":
		return (*Table).WriteJSON, nil
	}
	return nil, fmt.Errorf("bench: unknown format %q (have text, csv, json)", format)
}

// WriteCSV writes the table as CSV: a header row followed by data rows.
// Title and notes are emitted as comment-like leading records only when
// includeMeta is set.
func (t *Table) WriteCSV(w io.Writer, includeMeta bool) error {
	cw := csv.NewWriter(w)
	if includeMeta {
		if err := cw.Write([]string{"# " + t.Title}); err != nil {
			return err
		}
	}
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	if includeMeta {
		for _, n := range t.Notes {
			if err := cw.Write([]string{"# note: " + n}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// tableJSON is the stable JSON shape of a Table.
type tableJSON struct {
	Title  string              `json:"title"`
	Notes  []string            `json:"notes,omitempty"`
	Rows   []map[string]string `json:"rows"`
	Header []string            `json:"header"`
}

// WriteJSON writes the table as a JSON document with one object per row,
// keyed by the header cells.
func (t *Table) WriteJSON(w io.Writer) error {
	out := tableJSON{Title: t.Title, Notes: t.Notes, Header: t.Header}
	for _, row := range t.Rows {
		obj := make(map[string]string, len(row))
		for i, cell := range row {
			key := "col" // defensive: rows longer than the header
			if i < len(t.Header) {
				key = t.Header[i]
			}
			obj[key] = cell
		}
		out.Rows = append(out.Rows, obj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
