package nicbase

import (
	"sync"

	"rdmc/internal/rdma"
)

// Ring is a bounded completion ring: the io_uring-style buffer behind
// ring-mode CompletionQueues. Producers (a transport's reader and writer
// goroutines) push completions one at a time or in batches; one consumer (the
// CQ dispatcher) drains everything queued in a single pass per wakeup, so the
// per-wakeup costs downstream — the handler's group lock, the futex to wake
// the dispatcher — are paid once per drained run instead of once per
// completion. Since a drain always empties the ring, entries are simply the
// queued prefix of the storage, and the storage grows on demand, doubling,
// up to the capacity: a quiet provider keeps a small ring.
//
// Push blocks while the ring holds capacity entries (the transport-side
// analogue of a full hardware CQ exerting backpressure on the doorbell) and
// returns false only once the ring is closed. Drain blocks while the ring is
// empty and keeps returning queued entries after Close until the ring is
// dry, so no completion posted before Close is lost.
type Ring struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	q        []rdma.Completion // queued entries, oldest first
	capacity int
	closed   bool
}

// ringInitial is the storage a ring starts with.
const ringInitial = 16

// NewRing builds a ring holding up to capacity completions (zero or negative
// selects 1024, matching the historical channel-mode buffer).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1024
	}
	r := &Ring{q: make([]rdma.Completion, 0, min(ringInitial, capacity)), capacity: capacity}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	return r
}

// Capacity returns the most entries the ring holds.
func (r *Ring) Capacity() int { return r.capacity }

// room waits until the ring has space and returns how many entries fit in
// its storage now, doubling the storage when it is full but the ring is
// not; it returns 0 once the ring is closed.
func (r *Ring) room() int {
	for len(r.q) == r.capacity && !r.closed {
		r.notFull.Wait()
	}
	if r.closed {
		return 0
	}
	if len(r.q) == cap(r.q) {
		grown := make([]rdma.Completion, len(r.q), min(2*cap(r.q), r.capacity))
		copy(grown, r.q)
		r.q = grown
	}
	return cap(r.q) - len(r.q)
}

// Push enqueues one completion, blocking while the ring is full. It returns
// false when the ring has been closed (the completion is dropped, matching a
// destroyed hardware CQ).
func (r *Ring) Push(c rdma.Completion) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.room() == 0 {
		return false
	}
	r.q = append(r.q, c)
	if len(r.q) == 1 {
		r.notEmpty.Signal()
	}
	return true
}

// PushBatch enqueues a run of completions in order, blocking for space as
// needed (a batch larger than the ring lands in capacity-sized waves). It
// returns false when the ring closed before every entry was queued; entries
// already queued still drain.
func (r *Ring) PushBatch(cs []rdma.Completion) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(cs) > 0 {
		n := min(r.room(), len(cs))
		if n == 0 {
			return false
		}
		wasEmpty := len(r.q) == 0
		r.q = append(r.q, cs[:n]...)
		cs = cs[n:]
		if wasEmpty {
			r.notEmpty.Signal()
		}
	}
	return true
}

// Drain appends everything queued to dst in FIFO order — the whole ring in
// one pass — blocking while the ring is empty. It returns ok=false only when
// the ring is closed AND dry, so a Close never truncates queued completions.
func (r *Ring) Drain(dst []rdma.Completion) ([]rdma.Completion, bool) {
	r.mu.Lock()
	for len(r.q) == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	if len(r.q) == 0 {
		r.mu.Unlock()
		return dst, false
	}
	wasFull := len(r.q) == r.capacity
	dst = append(dst, r.q...)
	clear(r.q)
	r.q = r.q[:0]
	if wasFull {
		r.notFull.Broadcast()
	}
	r.mu.Unlock()
	return dst, true
}

// Close marks the ring closed: blocked pushers return false, and the consumer
// drains what is queued and then sees ok=false. Idempotent.
func (r *Ring) Close() {
	r.mu.Lock()
	r.closed = true
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
	r.mu.Unlock()
}
