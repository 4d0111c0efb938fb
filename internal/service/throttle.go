package service

import (
	"fmt"
	"sync"

	"rdmc/internal/core"
	"rdmc/internal/obs"
)

// WFQThrottle is a weighted-fair implementation of core.SendThrottle: one
// instance per NIC port rations a byte budget (bytes of block payload in
// flight at once) across classes, one class per tenant. Under contention the
// class with the least normalized service (bytes sent divided by weight) is
// admitted first, so a tenant with weight 3 drains three bytes for every byte
// a weight-1 tenant drains — the classic WFQ virtual-time argument, with the
// engine's own block completions as the clock.
//
// Everything is deterministic given call order: classes are scanned in
// creation order, ties in normalized service go to the earliest-created
// class, and per-class waiters are FIFO. The simulator's single-threaded
// event loop therefore produces byte-identical schedules run to run, which
// the scenario goldens rely on.
var _ core.SendThrottle = (*WFQThrottle)(nil)

type WFQThrottle struct {
	mu       sync.Mutex
	capacity int
	inFlight int
	classes  []*throttleClass // creation order; index breaks served ties
	byName   map[string]*throttleClass
	byGroup  map[core.GroupID]*throttleClass
	spans    []classSpan
	grants   map[core.GroupID]grant
	def      *throttleClass

	gauge *obs.Gauge // bytes in flight, when metrics are wired
}

// throttleClass is one tenant's share of the budget.
type throttleClass struct {
	name    string
	weight  int
	served  float64 // bytes granted / weight — the WFQ virtual clock
	waiters []waiter
}

// waiter is one stalled group: a group stalls at most one block at a time
// (the pump stops at the first refusal), so each group has at most one entry.
type waiter struct {
	g      core.GroupID
	bytes  int
	resume func()
}

// grant is budget reserved for a woken waiter that has not re-Acquired yet.
// Without the reservation another group could steal the freed bytes between
// the resume callback firing and the re-Acquire, starving the waiter forever.
type grant struct {
	bytes int
	class *throttleClass
}

// classSpan maps a contiguous group-id range to a class. Sessions mint a new
// group id per epoch (session id + epoch), so per-id binding cannot cover
// them; a span binds the whole range once.
type classSpan struct {
	base core.GroupID
	span uint32
	c    *throttleClass
}

// NewWFQThrottle builds a throttle admitting up to capacity bytes of block
// payload in flight at once. Groups bound to no class share a default class
// of weight 1. A group whose single block exceeds capacity is still admitted
// when the port is idle (inFlight == 0), so capacity never deadlocks a
// transfer — it only serializes one.
func NewWFQThrottle(capacity int) *WFQThrottle {
	if capacity <= 0 {
		capacity = 1
	}
	t := &WFQThrottle{
		capacity: capacity,
		byName:   make(map[string]*throttleClass),
		byGroup:  make(map[core.GroupID]*throttleClass),
		grants:   make(map[core.GroupID]grant),
	}
	t.def = t.addClassLocked("_default", 1)
	return t
}

// SetMetrics exports the throttle's in-flight gauge
// (service.throttle_inflight_bytes) on the registry.
func (t *WFQThrottle) SetMetrics(r *obs.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gauge = r.Gauge("service.throttle_inflight_bytes")
	t.gauge.Set(int64(t.inFlight))
}

func (t *WFQThrottle) addClassLocked(name string, weight int) *throttleClass {
	if weight <= 0 {
		weight = 1
	}
	c := &throttleClass{name: name, weight: weight}
	t.classes = append(t.classes, c)
	t.byName[name] = c
	return c
}

// AddClass registers a tenant class with the given weight. Re-adding a name
// updates its weight in place (service before served is unaffected).
func (t *WFQThrottle) AddClass(name string, weight int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.byName[name]; ok {
		if weight <= 0 {
			weight = 1
		}
		c.weight = weight
		return nil
	}
	t.addClassLocked(name, weight)
	return nil
}

// BindGroup routes a single group id to a class.
func (t *WFQThrottle) BindGroup(g core.GroupID, class string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.byName[class]
	if !ok {
		return fmt.Errorf("service: unknown throttle class %q", class)
	}
	t.byGroup[g] = c
	return nil
}

// BindSpan routes every group id in [base, base+span) to a class — how a
// session (whose epoch groups use ids ID+1, ID+2, ...) is bound once for all
// its epochs. Per-id bindings win over spans; overlapping spans resolve to
// the earliest bound.
func (t *WFQThrottle) BindSpan(base core.GroupID, span uint32, class string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.byName[class]
	if !ok {
		return fmt.Errorf("service: unknown throttle class %q", class)
	}
	t.spans = append(t.spans, classSpan{base: base, span: span, c: c})
	return nil
}

func (t *WFQThrottle) classOf(g core.GroupID) *throttleClass {
	if c, ok := t.byGroup[g]; ok {
		return c
	}
	for _, s := range t.spans {
		if g >= s.base && uint32(g-s.base) < s.span {
			return s.c
		}
	}
	return t.def
}

// Acquire implements core.SendThrottle.
func (t *WFQThrottle) Acquire(g core.GroupID, bytes int, resume func()) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.classOf(g)
	if gr, ok := t.grants[g]; ok {
		delete(t.grants, g)
		if gr.bytes == bytes {
			// The drain reserved exactly these bytes and already charged
			// the class; just hand them over.
			t.setGauge()
			return true
		}
		// The group re-planned between wakeup and re-Acquire (block size
		// changed); refund the reservation and fall through to the normal
		// admission path with the real size.
		t.inFlight -= gr.bytes
		gr.class.served -= float64(gr.bytes) / float64(gr.class.weight)
	}
	if len(c.waiters) == 0 && (t.inFlight == 0 || t.inFlight+bytes <= t.capacity) {
		t.admitLocked(c, g, bytes, false)
		return true
	}
	for i := range c.waiters {
		if c.waiters[i].g == g {
			c.waiters[i] = waiter{g: g, bytes: bytes, resume: resume}
			return false
		}
	}
	c.waiters = append(c.waiters, waiter{g: g, bytes: bytes, resume: resume})
	return false
}

// admitLocked charges an admission to the class's virtual clock. reserve
// marks the bytes as a grant to be claimed by a later re-Acquire.
func (t *WFQThrottle) admitLocked(c *throttleClass, g core.GroupID, bytes int, reserve bool) {
	t.inFlight += bytes
	c.served += float64(bytes) / float64(c.weight)
	if reserve {
		t.grants[g] = grant{bytes: bytes, class: c}
	}
	t.setGauge()
}

// Release implements core.SendThrottle.
func (t *WFQThrottle) Release(g core.GroupID, bytes int) []func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inFlight -= bytes
	if t.inFlight < 0 {
		t.inFlight = 0
	}
	t.setGauge()
	return t.drainLocked()
}

// Forget implements core.SendThrottle: a departed group's waiter, grant, and
// binding all go away, and whatever its grant was pinning is redistributed.
func (t *WFQThrottle) Forget(g core.GroupID) []func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gr, ok := t.grants[g]; ok {
		delete(t.grants, g)
		t.inFlight -= gr.bytes
		gr.class.served -= float64(gr.bytes) / float64(gr.class.weight)
	}
	c := t.classOf(g)
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.g != g {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
	delete(t.byGroup, g)
	t.setGauge()
	return t.drainLocked()
}

// drainLocked wakes stalled groups while budget lasts, least-served class
// first. Woken bytes are reserved (see grant) so the wakeup cannot lose a
// race for them; the resume callbacks are returned for the caller to run
// outside every lock.
func (t *WFQThrottle) drainLocked() []func() {
	var cbs []func()
	for {
		var best *throttleClass
		for _, c := range t.classes {
			if len(c.waiters) == 0 {
				continue
			}
			if best == nil || c.served < best.served {
				best = c
			}
		}
		if best == nil {
			break
		}
		w := best.waiters[0]
		if t.inFlight > 0 && t.inFlight+w.bytes > t.capacity {
			break
		}
		best.waiters = best.waiters[1:]
		t.admitLocked(best, w.g, w.bytes, true)
		cbs = append(cbs, w.resume)
	}
	return cbs
}

func (t *WFQThrottle) setGauge() {
	if t.gauge != nil {
		t.gauge.Set(int64(t.inFlight))
	}
}

// InFlight reports the bytes currently admitted (including unclaimed grants).
func (t *WFQThrottle) InFlight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inFlight
}

// Waiting reports how many groups are stalled across all classes.
func (t *WFQThrottle) Waiting() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.classes {
		n += len(c.waiters)
	}
	return n
}
