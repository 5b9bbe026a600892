package trace

import (
	"encoding/json"
	"testing"
)

// TestEventJSONRoundTrip: every kind marshals as its name and decodes back
// to itself; a name outside the vocabulary is refused.
func TestEventJSONRoundTrip(t *testing.T) {
	for k := Sleep; k <= Job; k++ {
		in := Event{AtUS: 7, Kind: k, Prog: 2, Core: -1}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]any
		if err := json.Unmarshal(b, &raw); err != nil {
			t.Fatal(err)
		}
		if raw["kind"] != k.String() || k.String() == "other" {
			t.Errorf("%d marshals as %v, want its name", int(k), raw["kind"])
		}
		var out Event
		if err := json.Unmarshal(b, &out); err != nil || out != in {
			t.Errorf("%s: round trip %+v, %v; want %+v", k, out, err, in)
		}
	}
	var ev Event
	if err := json.Unmarshal([]byte(`{"kind":"park"}`), &ev); err == nil {
		t.Error("unknown kind decoded without error")
	}
}
