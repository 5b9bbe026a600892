package bench

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func sampleTable() *Table {
	return &Table{
		Title:  "sample",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
		Notes:  []string{"a note"},
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := sampleTable().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# sample") || !strings.Contains(out, "# note: a note") {
		t.Fatalf("missing metadata:\n%s", out)
	}
	// The data region parses back as CSV.
	r := csv.NewReader(strings.NewReader(out))
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 { // title + header + 2 rows + note
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1][0] != "a" || recs[2][1] != "2" {
		t.Fatalf("bad cells: %v", recs)
	}
}

func TestWriteJSON(t *testing.T) {
	var sb strings.Builder
	if err := sampleTable().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Title string              `json:"title"`
		Rows  []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Title != "sample" || len(decoded.Rows) != 2 {
		t.Fatalf("decoded %+v", decoded)
	}
	if decoded.Rows[0]["a"] != "1" || decoded.Rows[1]["b"] != "4" {
		t.Fatalf("row mapping wrong: %+v", decoded.Rows)
	}
}
