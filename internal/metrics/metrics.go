// Package metrics is a minimal, dependency-free metrics registry with
// Prometheus text exposition (version 0.0.4), the format every scraper
// understands. It provides the three instrument kinds the job server
// needs — counters, gauges, and cumulative histograms — with optional
// labels, and renders them from an http.Handler.
//
// The package is deliberately tiny: no metric expiry, no exemplars, no
// protobuf. Series are created on first use and live for the registry's
// lifetime, which matches a daemon whose label sets (tenant, kernel,
// policy, core) are small and bounded.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// DefBuckets are the default histogram buckets, in seconds — the usual
// latency range from 1ms to ~100s.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 25, 50, 100}

// ExpBuckets returns n exponentially spaced histogram bucket bounds
// starting at start and growing by factor — the shape queue-wait
// distributions want (dense near zero, sparse in the tail), where
// DefBuckets' fixed latency grid wastes resolution. It panics on a
// non-positive start, a factor ≤ 1, or n < 1, mirroring the
// NewHistogram ascending-buckets contract.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: ExpBuckets(%v, %v, %d) invalid", start, factor, n))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed label schema.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
}

// series is one (family, label values) time series.
type series struct {
	labelVals []string

	mu    sync.Mutex
	val   float64  // counter/gauge value; histogram sum
	count uint64   // histogram observation count
	bkts  []uint64 // histogram per-bucket counts (cumulative at render)
}

func (r *Registry) family(name, help string, k kind, buckets []float64, labels []string) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRe.MatchString(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q", l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %s re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    k,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func (f *family) with(labelVals []string) *series {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d",
			f.name, len(f.labels), len(labelVals)))
	}
	// The series key is the values joined by NUL, built in a stack buffer:
	// looking up an existing series, the steady state, allocates nothing,
	// and only inserting one copies the key.
	var buf [128]byte
	key := buf[:0]
	for i, v := range labelVals {
		if i > 0 {
			key = append(key, 0)
		}
		key = append(key, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[string(key)]
	if !ok {
		s = &series{labelVals: append([]string(nil), labelVals...)}
		if f.kind == kindHistogram {
			s.bkts = make([]uint64, len(f.buckets))
		}
		f.series[string(key)] = s
	}
	return s
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Inc adds 1.
func (c Counter) Inc() { c.Add(1) }

// Add adds d (panics if negative — counters only go up).
func (c Counter) Add(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: counter decrement %v", d))
	}
	c.s.mu.Lock()
	c.s.val += d
	c.s.mu.Unlock()
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use).
func (v CounterVec) With(labelVals ...string) Counter { return Counter{v.f.with(labelVals)} }

// NewCounter registers (or fetches) a counter family.
func (r *Registry) NewCounter(name, help string, labels ...string) CounterVec {
	return CounterVec{r.family(name, help, kindCounter, nil, labels)}
}

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.val = v
	g.s.mu.Unlock()
}

// Add adjusts the gauge by d (may be negative).
func (g Gauge) Add(d float64) {
	g.s.mu.Lock()
	g.s.val += d
	g.s.mu.Unlock()
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v GaugeVec) With(labelVals ...string) Gauge { return Gauge{v.f.with(labelVals)} }

// NewGauge registers (or fetches) a gauge family.
func (r *Registry) NewGauge(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.family(name, help, kindGauge, nil, labels)}
}

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one observation.
func (h Histogram) Observe(v float64) {
	h.s.mu.Lock()
	h.s.val += v
	h.s.count++
	for i, ub := range h.buckets {
		if v <= ub {
			h.s.bkts[i]++
			break
		}
	}
	h.s.mu.Unlock()
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v HistogramVec) With(labelVals ...string) Histogram {
	return Histogram{v.f.with(labelVals), v.f.buckets}
}

// NewHistogram registers (or fetches) a histogram family. buckets must be
// sorted ascending; nil means DefBuckets. A +Inf bucket is implicit.
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: %s buckets not strictly ascending", name))
		}
	}
	return HistogramVec{r.family(name, help, kindHistogram, buckets, labels)}
}

// OnScrape registers f to run at the start of every exposition — the hook
// collectors use to refresh gauges from live state (queue depths, core
// occupancy) exactly when scraped.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	r.onScrape = append(r.onScrape, f)
	r.mu.Unlock()
}

// Handler returns an http.Handler serving the text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// WriteText renders every family in the Prometheus text format, sorted by
// family and series for deterministic output.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	hooks := append([]func(){}, r.onScrape...)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.write(w)
	}
}

func (f *family) write(w io.Writer) {
	f.mu.Lock()
	srs := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		srs = append(srs, s)
	}
	f.mu.Unlock()
	if len(srs) == 0 {
		return
	}
	sort.Slice(srs, func(i, j int) bool {
		return strings.Join(srs[i].labelVals, "\x00") < strings.Join(srs[j].labelVals, "\x00")
	})
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range srs {
		s.mu.Lock()
		val, count := s.val, s.count
		bkts := append([]uint64(nil), s.bkts...)
		s.mu.Unlock()
		switch f.kind {
		case kindCounter, kindGauge:
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.labelVals, "", ""), formatFloat(val))
		case kindHistogram:
			var cum uint64
			for i, ub := range f.buckets {
				cum += bkts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.labelVals, "le", formatFloat(ub)), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, s.labelVals, "le", "+Inf"), count)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
				labelString(f.labels, s.labelVals, "", ""), formatFloat(val))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name,
				labelString(f.labels, s.labelVals, "", ""), count)
		}
	}
}

// labelString renders {a="x",b="y"} with an optional extra pair (the
// histogram "le" label); it returns "" when there are no labels at all.
func labelString(names, vals []string, extraName, extraVal string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
