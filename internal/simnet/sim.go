// Package simnet is a deterministic discrete-event network simulator used as
// the substitute for RDMA hardware in this reproduction of RDMC (DSN 2018).
//
// It has three layers:
//
//   - an event engine with a virtual clock (this file),
//   - a fluid-flow fabric that models full-duplex NIC ports, shared switch
//     trunks, and max-min fair bandwidth allocation (fluid.go), which is the
//     steady state that datacenter congestion control (DCQCN, TIMELY)
//     converges to, and
//   - a per-node CPU model that accounts for software overheads, completion
//     delivery modes (polling / interrupt / hybrid), and injected scheduling
//     delays (cpu.go).
//
// All time is float64 seconds of virtual time. A simulation run is fully
// deterministic for a fixed seed: simultaneous events fire in the order they
// were scheduled.
package simnet

import (
	"math/rand"
	"time"
)

// Sim is a discrete-event simulation engine with a virtual clock.
type Sim struct {
	now    float64
	seq    int64
	events []entry // binary min-heap ordered by (time, seq)
	rng    *rand.Rand
}

// entry is one queued callback, held by value so the heap's sifts compare
// times and sequence numbers without dereferencing anything. ev is the
// cancellation handle, nil for callbacks scheduled without one.
type entry struct {
	time float64
	seq  int64
	fn   func()
	ev   *Event
}

func (e *entry) before(o *entry) bool {
	return e.time < o.time || (e.time == o.time && e.seq < o.seq)
}

func (e *entry) cancelled() bool { return e.ev != nil && e.ev.cancelled }

// NewSim returns an engine whose clock starts at zero. The seed fixes all
// randomness used by delay injectors and workload generators attached to it.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// NowDuration returns the current virtual time as a time.Duration.
func (s *Sim) NowDuration() time.Duration {
	return time.Duration(s.now * float64(time.Second))
}

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// runs the event at the current time (events never travel backwards).
func (s *Sim) At(t float64, fn func()) *Event {
	ev := &Event{}
	ev.time = s.push(t, fn, ev)
	return ev
}

// After schedules fn to run d seconds of virtual time from now.
func (s *Sim) After(d float64, fn func()) *Event {
	return s.At(s.now+d, fn)
}

// schedule is At for callers that never cancel: it allocates no handle.
func (s *Sim) schedule(t float64, fn func()) { s.push(t, fn, nil) }

// after is After for callers that never cancel.
func (s *Sim) after(d float64, fn func()) { s.push(s.now+d, fn, nil) }

// push queues fn at t, clamped to the present, and returns the time used.
func (s *Sim) push(t float64, fn func(), ev *Event) float64 {
	if t < s.now {
		t = s.now
	}
	s.events = append(s.events, entry{time: t, seq: s.seq, fn: fn, ev: ev})
	s.seq++
	h := s.events
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return t
}

// pop removes the earliest entry; the queue must be non-empty.
func (s *Sim) pop() entry {
	h := s.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = entry{}
	h = h[:n]
	i := 0
	for {
		l, m := 2*i+1, i
		if l >= n {
			break
		}
		if h[l].before(&h[m]) {
			m = l
		}
		if r := l + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.events = h
	return top
}

// Run executes events until the queue is empty and returns the final time.
func (s *Sim) Run() float64 {
	for s.Step() {
	}
	return s.now
}

// RunUntil executes events with time ≤ deadline; remaining events stay queued.
// It reports whether the queue was drained.
func (s *Sim) RunUntil(deadline float64) bool {
	for {
		if !s.dropCancelled() {
			return true
		}
		if s.events[0].time > deadline {
			s.now = deadline
			return false
		}
		s.Step()
	}
}

// Step executes the single earliest pending event. It reports whether an
// event was executed.
func (s *Sim) Step() bool {
	if !s.dropCancelled() {
		return false
	}
	e := s.pop()
	s.now = e.time
	e.fn()
	return true
}

// Pending reports the number of live queued events.
func (s *Sim) Pending() int {
	n := 0
	for i := range s.events {
		if !s.events[i].cancelled() {
			n++
		}
	}
	return n
}

// dropCancelled discards cancelled entries at the head of the queue and
// reports whether a live one remains.
func (s *Sim) dropCancelled() bool {
	for len(s.events) > 0 {
		if !s.events[0].cancelled() {
			return true
		}
		s.pop()
	}
	return false
}

// Event is a handle to a scheduled callback; it can be cancelled before it
// fires.
type Event struct {
	time      float64
	cancelled bool
}

// Cancel prevents the event from firing. Cancelling an already-fired event is
// a no-op.
func (e *Event) Cancel() { e.cancelled = true }

// Time returns the virtual time the event is scheduled for.
func (e *Event) Time() float64 { return e.time }
