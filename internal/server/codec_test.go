package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"testing"
	"testing/quick"
)

// FuzzJobRequest: on every input the job request decoder and
// json.Unmarshal agree on whether there is an error and on the value
// decoded, and the tenant-name check agrees with the pattern the 400
// quotes.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"a-1","kernel":"Cholesky","size":0.001}`,
		`{"tenant":"alice","kernel":"FFT","size":0.05,"deadline_ms":1,"weight":2,"slo_ms":30}`,
		` { "tenant" : "b" , "kernel":"SOR" , "size" : 1e-3 } `,
		`{"size":-0,"deadline_ms":-0,"weight":1E+2,"slo_ms":9223372036854775807}`,
		`{"deadline_ms":1.5}`,
		`{"deadline_ms":9223372036854775808}`,
		`{"size":1e400}`,
		`{"size":01}`,
		`{"size":.5}`,
		`{"size":"0.5"}`,
		`{"tenant":null}`,
		`{"Tenant":"a","KERNEL":"fft"}`,
		`{"tenant":"aé","kernel":"F\"FT"}`,
		`{"tenant":"a","extra":{"x":[1,2]}}`,
		`{"tenant":"a",}`,
		`{"tenant":"a"} x`,
		`{}`,
		`[]`,
		``,
		`{"tenant":"a","tenant":"b"}`,
	} {
		f.Add([]byte(seed))
	}
	nameRe := regexp.MustCompile(tenantNamePattern)
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want JobRequest
		gotErr := decodeJobRequest(body, &got)
		wantErr := json.Unmarshal(body, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder error %v, json.Unmarshal error %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !sameRequest(got, want) {
			t.Fatalf("%q: decoder %+v, json.Unmarshal %+v", body, got, want)
		}
		if gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: decoder error %q, json.Unmarshal error %q", body, gotErr, wantErr)
		}
		if validTenantName(got.Tenant) != nameRe.MatchString(got.Tenant) {
			t.Fatalf("tenant %q: validTenantName %v, %s disagrees", got.Tenant, validTenantName(got.Tenant), tenantNamePattern)
		}
	})
}

// sameRequest compares floats by bits, so -0 and 0 differ.
func sameRequest(a, b JobRequest) bool {
	return a.Tenant == b.Tenant && a.Kernel == b.Kernel &&
		math.Float64bits(a.Size) == math.Float64bits(b.Size) &&
		math.Float64bits(a.Weight) == math.Float64bits(b.Weight) &&
		a.DeadlineMS == b.DeadlineMS && a.SLOMs == b.SLOMs
}

// TestClientBodiesScanned: the bodies clients send — json.Marshal of a
// JobRequest — take the scanner, not the fallback.
func TestClientBodiesScanned(t *testing.T) {
	for _, want := range []JobRequest{
		{Tenant: "a-1", Kernel: "Cholesky", Size: 0.001},
		{Tenant: "alice", Kernel: "FFT", Size: 0.05, DeadlineMS: 1, Weight: 2, SLOMs: 30},
		{Tenant: "x", Kernel: "Mergesort"},
	} {
		body, _ := json.Marshal(want)
		var got JobRequest
		if !scanJobRequest(body, &got) || got != want {
			t.Errorf("%s: scanned %+v, want %+v", body, got, want)
		}
	}
}

// TestJobResultBytes: for random results the encoder writes exactly what
// json.NewEncoder(w).Encode writes.
func TestJobResultBytes(t *testing.T) {
	check := func(r JobResult) {
		t.Helper()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		if got := appendJobResult(nil, &r); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encoder moved from encoding/json:\n got %s\nwant %s", got, want.Bytes())
		}
	}
	// Zero and non-zero omitempty fields, and the float format's edges.
	check(JobResult{})
	check(JobResult{ID: 7, Tenant: "alice", Kernel: "FFT", Policy: "DWS", Cores: 4, Size: 0.25,
		Status: StatusOK, QueueMS: 1e-7, RunMS: 0.001, TotalMS: 1e21,
		Stats: Stats{Steals: 1, FailedSteals: 2, LocalSteals: 3, RemoteSteals: -4, Sleeps: 5,
			Wakes: 6, Evictions: 7, Claims: 8, Reclaims: 9, Runs: 10, DeadSweeps: 11, CoresRecovered: 12}})
	for _, f := range []float64{1e-7, 1e-6, 9.99e-7, 0.001, 1, 123456.789, 1e20, 1e21, 5e-324,
		math.MaxFloat64, -1e-7, -0.001, -1e21, math.Copysign(0, -1)} {
		check(JobResult{Size: f, QueueMS: f, RunMS: -f, TotalMS: f / 3})
	}
	check(JobResult{Tenant: `<a&b>"\` + " \x01\xff", Kernel: "ü", Policy: "\x7f"})

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v, ok := quick.Value(reflect.TypeOf(JobResult{}), rng)
		if !ok {
			t.Fatal("quick.Value cannot build a JobResult")
		}
		r := v.Interface().(JobResult)
		switch i % 4 { // the omitempty fields also at zero
		case 0:
			r.ID, r.Tenant = 0, ""
			r.Stats.LocalSteals, r.Stats.RemoteSteals, r.Stats.DeadSweeps, r.Stats.CoresRecovered = 0, 0, 0, 0
		case 1:
			r.Tenant, r.Kernel, r.Policy, r.Status = "t-1", "FFT", "DWS", StatusOK
			r.QueueMS, r.RunMS = rng.Float64()*1e-5, rng.Float64()*1e3
		}
		check(r)
	}

}
