// Package telemetry is a small, dependency-free metrics library for the
// iris daemon: counters, gauges and histograms registered in a Registry
// and exposed in the Prometheus text format. It implements just the
// exposition subset the /metrics endpoint needs — no client library, no
// push, deterministic output ordering so tests can assert on it.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Registry holds named metric families. All methods are safe for
// concurrent use. Registration is single-shot: each metric name may be
// claimed exactly once per Registry, and claiming a name twice panics (a
// programming error, not an operational condition). The panic is what
// makes registries instance-scoped — two daemon instances handed the same
// Registry would otherwise silently alias their counters and corrupt both
// regions' numbers, so multi-instance supervisors (the fleet) give every
// instance its own Registry and merge scrapes with MergeText.
//
// A scrape does only the work its bytes need. Everything fixed is
// formatted once: a family's HELP and TYPE lines and its histogram
// buckets' le pairs at registration, a child's label pair when With first
// creates it. Families and children are kept in exposition order as they
// are added, in slices that are replaced, never written in place, so a
// scrape reads them with no sort and no copy.
type Registry struct {
	mu   sync.Mutex
	fams []*family // by name
}

type family struct {
	name, typ string
	label     string    // label key; "" for unlabeled families
	header    string    // the HELP and TYPE lines
	buckets   []float64 // histograms only, ascending
	les       []string  // histograms only: `le="bound"` per bucket, then +Inf
	mu        sync.Mutex
	children  []child // by label value
}

// child is one labeled series of a family.
type child struct {
	value  string
	labels string // `key="value"` escaped; "" for an unlabeled family
	c      collector
}

type collector interface {
	// appendText appends the family's sample lines for one child; labels
	// and extra are label pairs, either of them possibly empty.
	appendText(b []byte, f *family, labels, extra string) []byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// family claims a metric name. A name already present — same type or not —
// panics: collectors are single-instance per Registry, so a duplicate claim
// means two subsystem instances were wired to one Registry and their
// samples would silently alias.
func (r *Registry) family(name, help, typ, label string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, found := slices.BinarySearchFunc(r.fams, name, func(f *family, name string) int {
		return strings.Compare(f.name, name)
	})
	if found {
		f := r.fams[i]
		panic(fmt.Sprintf("telemetry: %s already registered (as %s/%q, now claimed as %s/%q) — collectors are single-instance per Registry; give each subsystem instance its own Registry and aggregate with MergeText",
			name, f.typ, f.label, typ, label))
	}
	f := &family{name: name, typ: typ, label: label,
		header: "# HELP " + name + " " + string(appendEscaped(nil, help, false)) + "\n# TYPE " + name + " " + typ + "\n"}
	if typ == "histogram" {
		f.buckets = slices.Clone(buckets)
		slices.Sort(f.buckets)
		for _, ub := range f.buckets {
			f.les = append(f.les, string(append(appendFloat([]byte(`le="`), ub), '"')))
		}
		f.les = append(f.les, `le="+Inf"`)
	}
	r.fams = slices.Insert(slices.Clip(r.fams), i, f)
	return f
}

// child returns the collector for one label value, creating it and
// formatting its label pair on first use. A new child replaces the
// children slice with a copy: a scrape may be reading the old one
// unlocked.
func (f *family) child(value string, mk func() collector) collector {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, found := slices.BinarySearchFunc(f.children, value, func(c child, v string) int {
		return strings.Compare(c.value, v)
	})
	if found {
		return f.children[i].c
	}
	ch := child{value: value, c: mk()}
	if f.label != "" {
		ch.labels = string(appendLabel(nil, f.label, value))
	}
	f.children = slices.Insert(slices.Clip(f.children), i, ch)
	return ch.c
}

// Counter is a monotonically increasing value.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d; negative deltas panic.
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("telemetry: counter decreased")
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

func (c *Counter) appendText(b []byte, f *family, labels, extra string) []byte {
	return appendSample(b, f.name, labels, extra, c.Value())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set assigns the gauge.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// value returns the current value.
func (g *Gauge) value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

func (g *Gauge) appendText(b []byte, f *family, labels, extra string) []byte {
	return appendSample(b, f.name, labels, extra, g.value())
}

// Histogram counts observations into cumulative buckets.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // its family's ascending upper bounds, +Inf implicit
	counts  []uint64  // per bucket (non-cumulative internally)
	inf     uint64
	sum     float64
	count   uint64
}

func newHistogram(f *family) *Histogram {
	return &Histogram{buckets: f.buckets, counts: make([]uint64, len(f.buckets))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
	h.inf++
}

func (h *Histogram) appendText(b []byte, f *family, labels, extra string) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Bucket labels compose with the family label: the le pairs were
	// formatted when the family was registered.
	var cum uint64
	for i, le := range f.les {
		if i < len(h.counts) {
			cum += h.counts[i]
		} else {
			cum += h.inf
		}
		b = appendSeries(b, f.name, "_bucket", labels, extra, le)
		b = append(strconv.AppendUint(b, cum, 10), '\n')
	}
	b = appendSeries(b, f.name, "_sum", labels, extra, "")
	b = append(appendFloat(b, h.sum), '\n')
	b = appendSeries(b, f.name, "_count", labels, extra, "")
	return append(strconv.AppendUint(b, h.count, 10), '\n')
}

// Counter registers and returns the unlabeled counter with the given
// name. Claiming a name twice panics — see Registry.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, "counter", "", nil)
	return f.child("", func() collector { return &Counter{} }).(*Counter)
}

// Gauge registers and returns the unlabeled gauge with the given name.
// Claiming a name twice panics — see Registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, "gauge", "", nil)
	return f.child("", func() collector { return &Gauge{} }).(*Gauge)
}

// Histogram registers and returns the unlabeled histogram with the given
// name and bucket upper bounds. Claiming a name twice panics — see
// Registry.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, "histogram", "", buckets)
	return f.child("", func() collector { return newHistogram(f) }).(*Histogram)
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// CounterVec registers and returns the labeled counter family with the
// given name and label key. Claiming a name twice panics; new label
// values via With remain dynamic.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{r.family(name, help, "counter", label, nil)}
}

// With returns the counter for one label value.
func (v *CounterVec) With(value string) *Counter {
	return v.f.child(value, func() collector { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ f *family }

// GaugeVec registers and returns the labeled gauge family with the given
// name and label key. Claiming a name twice panics; new label values via
// With remain dynamic.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{r.family(name, help, "gauge", label, nil)}
}

// With returns the gauge for one label value.
func (v *GaugeVec) With(value string) *Gauge {
	return v.f.child(value, func() collector { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ f *family }

// HistogramVec registers and returns the labeled histogram family with
// the given name, label key and bucket upper bounds. Claiming a name
// twice panics; new label values via With remain dynamic.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	return &HistogramVec{r.family(name, help, "histogram", label, buckets)}
}

// With returns the histogram for one label value.
func (v *HistogramVec) With(value string) *Histogram {
	return v.f.child(value, func() collector { return newHistogram(v.f) }).(*Histogram)
}

// snapshot returns the registry's families in name order. The slice is
// never written in place, so a scrape reads it unlocked.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fams
}

// appendChildren appends one family's sample lines, composing the family
// label with extra, an optional label pair ("" omits it). The extra label
// lets a supervisor stamp every sample of an instance-scoped registry
// with the instance's identity.
func (f *family) appendChildren(b []byte, extra string) []byte {
	f.mu.Lock()
	children := f.children
	f.mu.Unlock()
	for _, c := range children {
		b = c.c.appendText(b, f, c.labels, extra)
	}
	return b
}

// bufPool lends a scrape the buffer it renders into; a warmed scrape
// allocates nothing, however many series it renders.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeOnce hands b to w in one Write, holding no lock, and returns the
// buffer to the pool.
func writeOnce(w io.Writer, bp *[]byte, b []byte) error {
	var err error
	if len(b) > 0 {
		_, err = w.Write(b)
	}
	*bp = b[:0]
	bufPool.Put(bp)
	return err
}

// WriteText renders every registered family in the Prometheus text
// exposition format, families sorted by name and children by label value,
// in one Write.
func (r *Registry) WriteText(w io.Writer) error {
	bp := bufPool.Get().(*[]byte)
	b := *bp
	for _, f := range r.snapshot() {
		b = append(b, f.header...)
		b = f.appendChildren(b, "")
	}
	return writeOnce(w, bp, b)
}

// LabeledRegistry pairs an instance-scoped registry with the label value
// that identifies the instance in a merged exposition.
type LabeledRegistry struct {
	Value string
	Reg   *Registry
}

// MergeText renders several instance-scoped registries as one Prometheus
// exposition, stamping every sample with label=value identifying its
// source registry (composed after any family label, so
// iris_probe_failures_total{device="oss-3"} becomes
// iris_probe_failures_total{device="oss-3",region="r007"}). A family that
// appears in several registries is emitted once — HELP/TYPE from its
// first appearance — followed by every instance's samples in the order
// the registries are given. Registering the same family name with a
// different type or label key across instances is an error, because the
// merged exposition would be self-contradictory; nothing is written then.
//
// Each registry's families are already in name order, so the merge walks
// them side by side and writes once.
func MergeText(w io.Writer, label string, regs []LabeledRegistry) error {
	type source struct {
		fams  []*family // the families not yet written
		extra string    // label="value", formatted once per merge
	}
	srcs := make([]source, len(regs))
	var pair [64]byte
	for i, lr := range regs {
		srcs[i] = source{lr.Reg.snapshot(), string(appendLabel(pair[:0], label, lr.Value))}
	}

	bp := bufPool.Get().(*[]byte)
	b := *bp
	for {
		// The least name left in any registry, and the first registry
		// holding it: every earlier one has only greater names left.
		first := -1
		for i := range srcs {
			if len(srcs[i].fams) > 0 && (first < 0 || srcs[i].fams[0].name < srcs[first].fams[0].name) {
				first = i
			}
		}
		if first < 0 {
			break
		}
		head := srcs[first].fams[0]
		b = append(b, head.header...)
		for i := first; i < len(srcs); i++ {
			s := &srcs[i]
			if len(s.fams) == 0 || s.fams[0].name != head.name {
				continue
			}
			f := s.fams[0]
			if f.typ != head.typ || f.label != head.label {
				bufPool.Put(bp)
				return fmt.Errorf("telemetry: merge: %s is %s/%q in %s but %s/%q earlier",
					f.name, f.typ, f.label, regs[i].Value, head.typ, head.label)
			}
			b = f.appendChildren(b, s.extra)
			s.fams = s.fams[1:]
		}
	}
	return writeOnce(w, bp, b)
}

// appendSample appends one sample line: the series and its value.
func appendSample(b []byte, name, labels, extra string, v float64) []byte {
	b = appendSeries(b, name, "", labels, extra, "")
	return append(appendFloat(b, v), '\n')
}

// appendSeries appends a series name — name and suffix, then the
// non-empty label pairs of labels, extra and le in braces — and the space
// before its value.
func appendSeries(b []byte, name, suffix, labels, extra, le string) []byte {
	b = append(append(b, name...), suffix...)
	sep := byte('{')
	for _, p := range [3]string{labels, extra, le} {
		if p != "" {
			b = append(append(b, sep), p...)
			sep = ','
		}
	}
	if sep == ',' {
		b = append(b, '}')
	}
	return append(b, ' ')
}

// appendLabel appends the label pair key="value".
func appendLabel(b []byte, key, value string) []byte {
	b = append(append(b, key...), '=', '"')
	return append(appendEscaped(b, value, true), '"')
}

// appendEscaped appends s escaped as the text format says: a backslash
// as \\ and a line feed as \n, and in a label value (quoted) a double
// quote as \". Every other byte, a tab or a non-ASCII rune's too, is
// written as it is.
func appendEscaped(b []byte, s string, quoted bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b = append(b, '\\', '\\')
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '"' && quoted:
			b = append(b, '\\', '"')
		default:
			b = append(b, c)
		}
	}
	return b
}

func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
