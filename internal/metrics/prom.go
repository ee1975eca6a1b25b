// Package metrics is the serving metrics registry: the counters, gauges
// and histograms chainlogd exposes on GET /metrics, with Prometheus
// text-exposition rendering. The implementation is deliberately tiny —
// lock-free atomics on the hot path, one mutex around registration — so
// the serving layer does not pull an external metrics dependency into
// the module.
package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into cumulative buckets, plus a sum
// and a count, matching the Prometheus histogram exposition. Observe is
// lock-free: one atomic add on the smallest bucket whose upper bound
// admits the value, one on the count, and a CAS loop folding the float
// sum.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf follows
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // math.Float64bits of the running sum
}

// DefBuckets are latency buckets in seconds, spanning 100µs to 10s —
// wide enough for a traversal that runs to a deadline.
var DefBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// NewHistogram returns a histogram over the given ascending upper
// bounds; nil means DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nue := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nue) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// metricKind tags a registered family for the # TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
	kindCounterFunc
)

// series is one exposed time series: a family member with a fixed label
// set.
type series struct {
	labels string // rendered label block, `{a="b"}` or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	f      func() float64
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string // label blocks in registration order
	series map[string]*series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Metric lookups after registration are lock-free
// (callers hold the returned *Counter/*Gauge/*Histogram); the registry
// lock guards only registration and rendering.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Labels renders a label set deterministically: pairs are (name, value)
// in the given order. Values are quoted.
func Labels(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(pairs[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// familyFor returns (creating if needed) the family, enforcing one kind
// per name.
func (r *Registry) familyFor(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as two different kinds", name))
	}
	return f
}

// seriesFor returns (creating if needed) the series for a label block.
func (f *family) seriesFor(labels string) *series {
	s, ok := f.series[labels]
	if !ok {
		s = &series{labels: labels}
		f.series[labels] = s
		f.order = append(f.order, labels)
	}
	return s
}

// Counter registers (or fetches) a counter series. labels is a rendered
// label block from Labels, or "".
func (r *Registry) Counter(name, help, labels string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.familyFor(name, help, kindCounter).seriesFor(labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.familyFor(name, help, kindGauge).seriesFor(labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge series whose value is read at scrape time —
// for values another subsystem already tracks (plan-cache stats, store
// sizes).
func (r *Registry) GaugeFunc(name, help, labels string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyFor(name, help, kindGaugeFunc).seriesFor(labels).f = f
}

// CounterFunc registers a counter series whose value is read at scrape
// time — for monotonic totals another subsystem already tracks (the
// engine's plan re-optimization count).
func (r *Registry) CounterFunc(name, help, labels string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyFor(name, help, kindCounterFunc).seriesFor(labels).f = f
}

// Histogram registers (or fetches) a histogram series; nil bounds means
// DefBuckets.
func (r *Registry) Histogram(name, help, labels string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.familyFor(name, help, kindHistogram).seriesFor(labels)
	if s.h == nil {
		s.h = NewHistogram(bounds)
	}
	return s.h
}

// WriteText renders every registered family in the Prometheus text
// exposition format, families in registration order. The rendering
// happens into a buffer so the registry lock — which a request that ends
// in a status other than 200 takes to look up its counter — is never held
// across a write to a (possibly slow) scrape connection.
func (r *Registry) WriteText(w io.Writer) error {
	var buf bytes.Buffer
	if err := r.renderLocked(&buf); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

func (r *Registry) renderLocked(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		typ := "counter"
		switch f.kind {
		case kindGauge, kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, typ); err != nil {
			return err
		}
		for _, labels := range f.order {
			s := f.series[labels]
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", name, labels, s.c.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %d\n", name, labels, s.g.Value())
			case kindGaugeFunc, kindCounterFunc:
				_, err = fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(s.f()))
			case kindHistogram:
				err = writeHistogram(w, name, labels, s.h)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders the cumulative _bucket series plus _sum and
// _count, splicing the le label into any existing label block.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	withLE := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return labels[:len(labels)-1] + `,le="` + le + `"}`
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE("+Inf"), cum); err != nil {
		return err
	}
	sum := math.Float64frombits(h.sum.Load())
	_, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", name, labels, formatFloat(sum), name, labels, h.count.Load())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
