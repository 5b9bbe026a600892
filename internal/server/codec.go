package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
)

// This file is the reflection-free path of the job wire format. A job's
// request and result are the only bodies on the served path; both take
// the shape the API documents without encoding/json's reflection, and
// fall back to encoding/json for anything else, so what is accepted, what
// it decodes to, the error texts and the bytes written are unchanged.

// tenantNamePattern is the rule a tenant name must meet, as a 400 states
// it; validTenantName checks it.
const tenantNamePattern = `^[a-zA-Z0-9._-]{1,64}$`

func validTenantName(s string) bool {
	if len(s) < 1 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// bufs recycles request and response body buffers; a result is written
// into a buffer's spare capacity.
var bufs = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 512)) }}

// putBuf returns b to bufs, unless one large body grew it.
func putBuf(b *bytes.Buffer) {
	if b.Cap() <= 64<<10 {
		bufs.Put(b)
	}
}

// decodeJobRequest decodes a POST /v1/jobs body. A flat object of the six
// documented keys, spelled as tagged, with escape-free ASCII strings and
// numbers, is scanned directly; every other input goes to json.Unmarshal.
func decodeJobRequest(body []byte, req *JobRequest) error {
	if scanJobRequest(body, req) {
		return nil
	}
	*req = JobRequest{}
	return json.Unmarshal(body, req)
}

// JobTenant returns the tenant of a POST /v1/jobs body, as json.Unmarshal
// into a struct of the tenant field alone returns it: a body of the flat
// shape is scanned, any other goes to that json.Unmarshal, whose error is
// returned. A front tier places a job by it without decoding the rest.
func JobTenant(body []byte) (string, error) {
	var req JobRequest
	if scanJobRequest(body, &req) {
		return req.Tenant, nil
	}
	var t struct {
		Tenant string `json:"tenant"`
	}
	err := json.Unmarshal(body, &t)
	return t.Tenant, err
}

// scanJobRequest decodes body into req if it has the flat shape, and
// reports whether it did; on false req holds partial values.
func scanJobRequest(b []byte, req *JobRequest) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	for {
		key, n, ok := scanString(b, i)
		if !ok {
			return false
		}
		if i = skipSpace(b, n); i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		switch string(key) {
		case "tenant", "kernel":
			s, n, ok := scanString(b, i)
			if !ok {
				return false
			}
			if key[0] == 't' {
				req.Tenant = string(s)
			} else {
				req.Kernel = string(s)
			}
			i = n
		case "size", "weight":
			num, n, ok := scanNumber(b, i)
			if !ok {
				return false
			}
			f, err := strconv.ParseFloat(string(num), 64)
			if err != nil {
				return false
			}
			if key[0] == 's' {
				req.Size = f
			} else {
				req.Weight = f
			}
			i = n
		case "deadline_ms", "slo_ms":
			num, n, ok := scanNumber(b, i)
			if !ok {
				return false
			}
			v, err := strconv.ParseInt(string(num), 10, 64)
			if err != nil {
				return false
			}
			if key[0] == 'd' {
				req.DeadlineMS = v
			} else {
				req.SLOMs = v
			}
			i = n
		default:
			return false
		}
		if i = skipSpace(b, i); i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return skipSpace(b, i+1) == len(b)
		default:
			return false
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString returns the contents of the string starting at b[i] and the
// index after it; ok is false unless it is an escape-free string of
// printable ASCII.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// scanNumber returns the JSON number literal starting at b[i] and the
// index after it: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.
func scanNumber(b []byte, i int) (num []byte, next int, ok bool) {
	digits := func(j int) int {
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		return j
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j == len(b):
		return nil, 0, false
	case b[j] == '0':
		j++
	case '1' <= b[j] && b[j] <= '9':
		j = digits(j)
	default:
		return nil, 0, false
	}
	if j < len(b) && b[j] == '.' {
		k := digits(j + 1)
		if k == j+1 {
			return nil, 0, false
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(j)
		if k == j {
			return nil, 0, false
		}
		j = k
	}
	return b[i:j], j, true
}

// appendJobResult appends r as json.NewEncoder(w).Encode(r) writes it,
// trailing newline included. r's floats must be finite, as a served job's
// are: three durations and a validated size.
func appendJobResult(b []byte, r *JobResult) []byte {
	b = append(b, '{')
	if r.ID != 0 {
		b = append(b, `"id":`...)
		b = strconv.AppendUint(b, r.ID, 10)
		b = append(b, ',')
	}
	if r.Tenant != "" {
		b = append(b, `"tenant":`...)
		b = appendString(b, r.Tenant)
		b = append(b, ',')
	}
	b = append(b, `"kernel":`...)
	b = appendString(b, r.Kernel)
	b = append(b, `,"policy":`...)
	b = appendString(b, r.Policy)
	b = append(b, `,"cores":`...)
	b = strconv.AppendInt(b, int64(r.Cores), 10)
	b = append(b, `,"size":`...)
	b = appendFloat(b, r.Size)
	b = append(b, `,"status":`...)
	b = appendString(b, r.Status)
	b = append(b, `,"queue_ms":`...)
	b = appendFloat(b, r.QueueMS)
	b = append(b, `,"run_ms":`...)
	b = appendFloat(b, r.RunMS)
	b = append(b, `,"total_ms":`...)
	b = appendFloat(b, r.TotalMS)
	st := &r.Stats
	b = appendInt(b, `,"stats":{"steals":`, st.Steals)
	b = appendInt(b, `,"failed_steals":`, st.FailedSteals)
	if st.LocalSteals != 0 {
		b = appendInt(b, `,"local_steals":`, st.LocalSteals)
	}
	if st.RemoteSteals != 0 {
		b = appendInt(b, `,"remote_steals":`, st.RemoteSteals)
	}
	b = appendInt(b, `,"sleeps":`, st.Sleeps)
	b = appendInt(b, `,"wakes":`, st.Wakes)
	b = appendInt(b, `,"evictions":`, st.Evictions)
	b = appendInt(b, `,"claims":`, st.Claims)
	b = appendInt(b, `,"reclaims":`, st.Reclaims)
	b = appendInt(b, `,"runs":`, st.Runs)
	if st.DeadSweeps != 0 {
		b = appendInt(b, `,"dead_sweeps":`, st.DeadSweeps)
	}
	if st.CoresRecovered != 0 {
		b = appendInt(b, `,"cores_recovered":`, st.CoresRecovered)
	}
	return append(b, "}}\n"...)
}

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendString quotes s as encoding/json does: a string of printable ASCII
// with nothing to escape verbatim, any other through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat formats a finite f as encoding/json does: shortest
// round-trip digits, exponent form outside [1e-6, 1e21), and a
// one-digit negative exponent without its leading zero.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
