// Package telemetry is the simulator's observability subsystem: a
// low-overhead metric registry (gauge callbacks and histograms), a pluggable
// Sink interface for structured trace events and per-interval time-series
// samples, and a Collector that owns the per-run sampling state.
//
// Design constraints (see DESIGN.md "Telemetry"):
//
//   - The disabled path is free: a core with no Collector attached pays one
//     nil check per hook site.
//   - The null-sink path is allocation-free: all Event/Interval values are
//     scratch structs owned by the Collector and reused across emissions;
//     sinks that retain data (ring, recorder) copy what they keep.
//   - Sinks are not synchronized. One Collector (and therefore one Sink
//     instance) belongs to exactly one simulated core; parallel experiment
//     runs must use one sink per run.
package telemetry

import "sort"

// Histogram counts observations into fixed buckets. Bucket i counts
// observations <= Bounds[i]; one extra bucket counts the overflow.
type Histogram struct {
	bounds []float64
	counts []uint64
	count  uint64
	sum    float64
}

// NewHistogram builds a histogram over the given ascending bucket bounds.
func NewHistogram(bounds ...float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must be ascending")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (tens) and the common case hits
	// an early bucket; binary search is not worth the branch misses.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Buckets visits each bucket as (upper bound, count); the overflow bucket
// reports +Inf semantics via ok=false on bound.
func (h *Histogram) Buckets(visit func(bound float64, bounded bool, count uint64)) {
	for i, c := range h.counts {
		if i < len(h.bounds) {
			visit(h.bounds[i], true, c)
		} else {
			visit(0, false, c)
		}
	}
}

// Registry holds named metrics in registration order: gauge callbacks that
// expose a component's existing state, and histograms. Registration is
// idempotent by name within a kind; registering the same name as two
// different kinds panics (a programming error, not a runtime condition).
//
// Registry is not synchronized: it belongs to one simulated core, like the
// Collector that owns it.
type Registry struct {
	names []string
	kinds map[string]metricKind

	hists map[string]*Histogram
	funcs map[string]func() float64
}

type metricKind uint8

const (
	kindHistogram metricKind = iota
	kindFunc
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds: make(map[string]metricKind),
		hists: make(map[string]*Histogram),
		funcs: make(map[string]func() float64),
	}
}

func (r *Registry) register(name string, k metricKind) bool {
	if have, ok := r.kinds[name]; ok {
		if have != k {
			panic("telemetry: metric " + name + " registered twice with different kinds")
		}
		return false
	}
	r.kinds[name] = k
	r.names = append(r.names, name)
	return true
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds if needed (bounds are ignored on re-registration).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r.register(name, kindHistogram) {
		r.hists[name] = NewHistogram(bounds...)
	}
	return r.hists[name]
}

// GaugeFunc registers a callback sampled at every interval boundary. The
// callback form costs nothing on the hot path: components expose existing
// state (queue occupancies, cache counters) without maintaining a second
// counter. Re-registering a name replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.register(name, kindFunc)
	r.funcs[name] = fn
}

// value returns the current value of the named metric (histograms report
// their mean).
func (r *Registry) value(name string) float64 {
	switch r.kinds[name] {
	case kindHistogram:
		return r.hists[name].Mean()
	case kindFunc:
		return r.funcs[name]()
	}
	return 0
}

// Visit calls visit for every metric's current value, in registration
// order. Histograms visit as their mean; use Histogram directly for bucket
// detail.
func (r *Registry) Visit(visit func(name string, value float64)) {
	for _, name := range r.names {
		visit(name, r.value(name))
	}
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.names) }
