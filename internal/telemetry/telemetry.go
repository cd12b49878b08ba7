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
	"sort"
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
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

type family struct {
	name, help, typ string
	label           string // label key; "" for unlabeled families
	mu              sync.Mutex
	children        map[string]collector // label value -> collector
	buckets         []float64            // histograms only
}

type collector interface {
	// write emits the family's sample lines for one child.
	write(w io.Writer, name, labels string) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family claims a metric name. A name already present — same type or not —
// panics: collectors are single-instance per Registry, so a duplicate claim
// means two subsystem instances were wired to one Registry and their
// samples would silently alias.
func (r *Registry) family(name, help, typ, label string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		panic(fmt.Sprintf("telemetry: %s already registered (as %s/%q, now claimed as %s/%q) — collectors are single-instance per Registry; give each subsystem instance its own Registry and aggregate with MergeText",
			name, f.typ, f.label, typ, label))
	}
	f := &family{name: name, help: help, typ: typ, label: label,
		children: make(map[string]collector), buckets: buckets}
	r.families[name] = f
	r.names = append(r.names, name)
	sort.Strings(r.names)
	return f
}

func (f *family) child(value string, mk func() collector) collector {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[value]; ok {
		return c
	}
	c := mk()
	f.children[value] = c
	return c
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

func (c *Counter) write(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(c.Value()))
	return err
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

func (g *Gauge) write(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.value()))
	return err
}

// Histogram counts observations into cumulative buckets.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // ascending upper bounds, +Inf implicit
	counts  []uint64  // per bucket (non-cumulative internally)
	inf     uint64
	sum     float64
	count   uint64
}

func newHistogram(buckets []float64) *Histogram {
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	return &Histogram{buckets: bs, counts: make([]uint64, len(bs))}
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

func (h *Histogram) write(w io.Writer, name, labels string) error {
	h.mu.Lock()
	buckets := append([]float64(nil), h.buckets...)
	counts := append([]uint64(nil), h.counts...)
	inf, sum, count := h.inf, h.sum, h.count
	h.mu.Unlock()

	// Bucket labels compose with the family label.
	le := func(bound string) string {
		if labels == "" {
			return fmt.Sprintf("{le=%q}", bound)
		}
		return strings.TrimSuffix(labels, "}") + fmt.Sprintf(",le=%q}", bound)
	}
	var cum uint64
	for i, ub := range buckets {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le(formatFloat(ub)), cum); err != nil {
			return err
		}
	}
	cum += inf
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
	return err
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
	return f.child("", func() collector { return newHistogram(f.buckets) }).(*Histogram)
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
	return v.f.child(value, func() collector { return newHistogram(v.f.buckets) }).(*Histogram)
}

// snapshot returns the registry's families in name order.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, len(r.names))
	for i, n := range r.names {
		fams[i] = r.families[n]
	}
	return fams
}

// writeChildren emits one family's sample lines, composing the family
// label with an optional extra label pair (extraKey == "" omits it). The
// extra label lets a supervisor stamp every sample of an instance-scoped
// registry with the instance's identity.
func (f *family) writeChildren(w io.Writer, extraKey, extraVal string) error {
	f.mu.Lock()
	values := make([]string, 0, len(f.children))
	for v := range f.children {
		values = append(values, v)
	}
	sort.Strings(values)
	children := make([]collector, len(values))
	for i, v := range values {
		children[i] = f.children[v]
	}
	f.mu.Unlock()
	for i, c := range children {
		// %q escapes backslash, quote and newline — exactly the Prometheus
		// label escaping rules.
		var pairs []string
		if f.label != "" {
			pairs = append(pairs, fmt.Sprintf("%s=%q", f.label, values[i]))
		}
		if extraKey != "" {
			pairs = append(pairs, fmt.Sprintf("%s=%q", extraKey, extraVal))
		}
		labels := ""
		if len(pairs) > 0 {
			labels = "{" + strings.Join(pairs, ",") + "}"
		}
		if err := c.write(w, f.name, labels); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders every registered family in the Prometheus text
// exposition format, families sorted by name and children by label value.
func (r *Registry) WriteText(w io.Writer) error {
	for _, f := range r.snapshot() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		if err := f.writeChildren(w, "", ""); err != nil {
			return err
		}
	}
	return nil
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
// merged exposition would be self-contradictory.
func MergeText(w io.Writer, label string, regs []LabeledRegistry) error {
	type famGroup struct {
		help, typ, labelKey string
		members             []int // indices into regs, in given order
	}
	groups := make(map[string]*famGroup)
	var order []string
	snaps := make([][]*family, len(regs))
	for i, lr := range regs {
		snaps[i] = lr.Reg.snapshot()
		for _, f := range snaps[i] {
			g, ok := groups[f.name]
			if !ok {
				groups[f.name] = &famGroup{help: f.help, typ: f.typ, labelKey: f.label, members: []int{i}}
				order = append(order, f.name)
				continue
			}
			if g.typ != f.typ || g.labelKey != f.label {
				return fmt.Errorf("telemetry: merge: %s is %s/%q in %s but %s/%q earlier",
					f.name, f.typ, f.label, lr.Value, g.typ, g.labelKey)
			}
			g.members = append(g.members, i)
		}
	}
	sort.Strings(order)
	for _, name := range order {
		g := groups[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, g.help, name, g.typ); err != nil {
			return err
		}
		for _, i := range g.members {
			for _, f := range snaps[i] {
				if f.name != name {
					continue
				}
				if err := f.writeChildren(w, label, regs[i].Value); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
