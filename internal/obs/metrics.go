// Package obs is the repository's observability layer: a lock-cheap metrics
// registry (atomic counters and fixed-bucket histograms, snapshot-able as
// JSON and publishable through expvar) plus a bounded structured event ring
// with a Chrome-trace-format exporter, so a whole multicast can be opened as
// a timeline in chrome://tracing or Perfetto.
//
// The paper's evaluation (§4.4–4.5, Table 1, Fig. 5) is entirely a story of
// where time goes — setup vs. send-busy vs. send-wait vs. copy — and the
// production systems RDMC grew into (Derecho, and the NCCL-style collective
// stacks) are debugged through exactly this combination of counters and an
// event timeline. This package provides both without ever touching the data
// plane's behaviour: instrumentation points throughout the engine, mesh, NIC
// providers, and planner hold pre-resolved *Counter / *Histogram / *Ring
// references, and every recording method is nil-safe, so a disabled deployment
// (nil observer) pays a single predictable branch and zero allocations —
// proven by BenchmarkDisabledPath — and the simulator's virtual-time results
// stay byte-identical whether or not observability is on.
package obs

import (
	"encoding/json"
	"expvar"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter discards every operation, which is the
// disabled-instrumentation fast path.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (zero on a nil receiver).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level — a value that goes up and down, like the
// number of in-flight bytes or queued bytes. The zero value is
// ready to use; a nil *Gauge discards every operation, matching Counter's
// disabled-instrumentation fast path.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the level by d (which may be negative). No-op on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Load returns the current level (zero on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of int64 observations (latencies in
// nanoseconds, sizes in bytes or elements). Bounds are inclusive upper bucket
// edges; one implicit overflow bucket catches everything beyond the last
// bound. A nil *Histogram discards observations.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1, last is overflow
	sum    atomic.Int64
	n      atomic.Uint64
}

// Observe records one value. No-op on a nil receiver. Lock-free: one binary
// search over the (immutable) bounds plus two atomic adds.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations (zero on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations (zero on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Pow2Buckets returns bucket bounds 1, 2, 4, ... covering n doublings —
// the natural shape for batch sizes and element counts.
func Pow2Buckets(n int) []int64 {
	bounds := make([]int64, n)
	for i := range bounds {
		bounds[i] = 1 << i
	}
	return bounds
}

// ExpBuckets returns n bounds starting at start, each factor times the
// previous — the natural shape for latencies and byte sizes.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	bounds := make([]int64, n)
	v := float64(start)
	for i := range bounds {
		bounds[i] = int64(v)
		v *= factor
	}
	return bounds
}

// Registry is a process- or deployment-wide table of named counters and
// histograms. Instruments are registered (or re-fetched) by name with
// Counter/Histogram; instrumentation sites resolve their instruments once at
// wiring time and hold the pointers, so steady-state recording never touches
// the registry lock. A nil *Registry returns nil instruments from every
// lookup, which makes wiring code unconditional: resolve through a possibly-
// nil registry, record through possibly-nil instruments.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds on
// first use (later calls ignore bounds and return the existing instrument).
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]int64(nil), bounds...)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the JSON form of one histogram: Counts[i] holds the
// observations ≤ Bounds[i]; the final entry is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    int64    `json:"sum"`
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current values. Safe to call concurrently
// with recording (individual loads are atomic; the snapshot is not a
// consistent cut, which is fine for monitoring). Returns an empty snapshot on
// a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counts {
		s.Counters[name] = c.Load()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Load()
		}
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: h.bounds,
			Counts: make([]uint64, len(h.counts)),
			Count:  h.n.Load(),
			Sum:    h.sum.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// MarshalJSON renders the registry snapshot, so a *Registry can be passed
// anywhere a json.Marshaler is expected.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// published maps each expvar name Publish has claimed to the registry that
// name currently reads. expvar refuses a second variable under one name, so
// each name gets one expvar.Func, and a later Publish re-points it.
var (
	publishMu sync.Mutex
	published = make(map[string]*atomic.Pointer[Registry])
)

// Publish exposes the registry under name through the expvar interface, so a
// tcpnic deployment that serves http (expvar's /debug/vars) exports its
// metrics with no further wiring. Publishing a name again re-points it at
// this registry: the last publisher wins. The name must not be taken by an
// expvar variable published some other way (expvar panics). No-op on a nil
// registry.
func (r *Registry) Publish(name string) {
	if r == nil {
		return
	}
	publishMu.Lock()
	defer publishMu.Unlock()
	p, ok := published[name]
	if !ok {
		p = new(atomic.Pointer[Registry])
		published[name] = p
		expvar.Publish(name, expvar.Func(func() any { return p.Load().Snapshot() }))
	}
	p.Store(r)
}
