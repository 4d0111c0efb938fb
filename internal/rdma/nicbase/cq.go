package nicbase

import (
	"sync"

	"rdmc/internal/obs"
	"rdmc/internal/rdma"
)

// maxBatch bounds how many completions one dispatcher wakeup hands to a
// batch handler. Large enough to amortize the consumer's per-batch work
// (the engine takes one group lock per same-group run), small enough that a
// slow handler cannot starve the ring producers behind a giant drain.
const maxBatch = 256

// CompletionQueue serializes a node's completions into its single installed
// handler — the explicit object behind rdma.Provider.SetHandler and the
// analogue of the paper's one shared hardware completion queue per node.
//
// Two dispatch disciplines cover the two kinds of provider:
//
//   - NewEventCQ hands each delivery to a submit hook supplied by the
//     provider, for transports that already run on a serial event loop
//     (simnic routes deliveries through the simulated CPU model);
//   - NewRingCQ queues completions on a fixed-capacity Ring drained by one
//     dispatcher goroutine, for transports whose queue pairs complete work
//     on independent goroutines (tcpnic's per-connection readers and
//     writers, shmnic's synchronous intra-host deliveries).
//
// Either way the handler observes completions serially, which is the
// contract the protocol engine is written against. Region watchers run on
// the same context (Base.ApplyWrite).
//
// A consumer may install a batch handler instead (SetBatchHandler): ring
// mode then drains the whole ring per wakeup and hands it over in slices of
// up to maxBatch, so the consumer's per-batch overhead (a group lock, say)
// is paid once per drained run rather than once per completion. Event mode
// delivers the PostBatch grouping as posted (single-element batches for
// Post) — its submit hook is already the serialization point and there is
// no queue to drain.
type CompletionQueue struct {
	// Instrumentation, nil by default; installed through Base.SetObserver
	// before any activity (see obs.go).
	completions *obs.Counter
	batchSize   *obs.Histogram
	ringBatches *obs.Counter

	mu      sync.Mutex
	handler func(rdma.Completion)
	batch   func([]rdma.Completion)

	// Event mode.
	submit func(fn func())
	free   []*carrier // carriers whose delivery has returned

	// Ring mode.
	ring *Ring
	wg   sync.WaitGroup
	land func(rdma.Completion) // applies a landing (Base.ApplyWrite)
}

// NewEventCQ builds a completion queue for event-loop transports: each
// delivery rides a carrier — the completions, the consumer installed at post
// time, and a run func bound once — whose run func is handed to submit,
// which must run funcs serially (the simulation's CPU model already does).
// Carriers are recycled once their delivery returns, so a steady stream of
// posts allocates nothing.
func NewEventCQ(submit func(fn func())) *CompletionQueue {
	return &CompletionQueue{submit: submit}
}

// carrier is one event-mode delivery waiting in the provider's loop.
type carrier struct {
	q   *CompletionQueue
	cs  []rdma.Completion
	h   func(rdma.Completion)
	bh  func([]rdma.Completion)
	run func()
}

// deliver hands the carried completions to the consumer and then returns
// the carrier to the free list. Not before: the consumer may post again,
// and that post must not take this carrier.
func (k *carrier) deliver() {
	if k.bh != nil {
		k.bh(k.cs)
	} else {
		for _, c := range k.cs {
			k.h(c)
		}
	}
	clear(k.cs) // drop payload references
	k.cs, k.h, k.bh = k.cs[:0], nil, nil
	q := k.q
	q.mu.Lock()
	q.free = append(q.free, k)
	q.mu.Unlock()
}

// submitEvent hands cs to the provider's loop for the consumer installed
// now: as one batch to a batch handler, one submit per completion to a
// per-completion handler.
func (q *CompletionQueue) submitEvent(cs []rdma.Completion) {
	q.mu.Lock()
	h, bh := q.handler, q.batch
	q.mu.Unlock()
	switch {
	case bh != nil:
		q.batchSize.Observe(int64(len(cs)))
		k := q.carrier()
		k.bh = bh
		k.cs = append(k.cs, cs...)
		q.submit(k.run)
	case h != nil:
		for _, c := range cs {
			k := q.carrier()
			k.h = h
			k.cs = append(k.cs, c)
			q.submit(k.run)
		}
	}
}

// carrier takes a free carrier or makes one.
func (q *CompletionQueue) carrier() *carrier {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := len(q.free); n > 0 {
		k := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return k
	}
	k := &carrier{q: q}
	k.run = k.deliver
	return k
}

// NewRingCQ builds a completion queue whose producers post into a
// fixed-capacity submission ring drained whole by one dispatcher goroutine;
// capacity sizes the ring (zero selects 1024). Close stops the dispatcher
// after draining what is queued.
func NewRingCQ(capacity int) *CompletionQueue {
	q := &CompletionQueue{ring: NewRing(capacity)}
	q.wg.Add(1)
	go q.dispatch()
	return q
}

// SetHandler installs the per-completion consumer, replacing any batch
// handler.
func (q *CompletionQueue) SetHandler(h func(rdma.Completion)) {
	q.mu.Lock()
	q.handler = h
	q.batch = nil
	q.mu.Unlock()
}

// SetBatchHandler installs a batch consumer, replacing any per-completion
// handler. See CompletionQueue's comment for the delivery discipline.
func (q *CompletionQueue) SetBatchHandler(h func([]rdma.Completion)) {
	q.mu.Lock()
	q.batch = h
	q.handler = nil
	q.mu.Unlock()
}

// HasHandler reports whether a handler is installed (providers gate posting
// on it, returning rdma.ErrNoHandler otherwise).
func (q *CompletionQueue) HasHandler() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.handler != nil || q.batch != nil
}

// Post delivers one completion. Event mode submits it to the provider's
// loop; ring mode enqueues it for the dispatcher (dropping it only when
// the queue has been closed, matching a destroyed hardware CQ).
func (q *CompletionQueue) Post(c rdma.Completion) {
	q.completions.Inc()
	if q.submit != nil {
		// Event mode has no queue to drain: every batch is one element.
		q.submitEvent([]rdma.Completion{c})
		return
	}
	q.ring.Push(c)
}

// PostBatch delivers a run of completions in order with one ring operation —
// the producer-side half of completion coalescing (tcpnic's writer retires a
// whole writev batch this way). Event mode keeps the grouping and submits
// the run as one batch.
func (q *CompletionQueue) PostBatch(cs []rdma.Completion) {
	if len(cs) == 0 {
		return
	}
	q.completions.Add(uint64(len(cs)))
	if q.submit != nil {
		q.submitEvent(cs)
		return
	}
	q.ring.PushBatch(cs)
}

// dispatch drains the ring serially; on Close it delivers whatever is still
// queued and exits. Every wakeup slurps the whole ring in one pass into a
// reused backing slice — so steady-state dispatch allocates nothing — and
// hands it to the consumer in slices of up to maxBatch. The slice grows to
// the longest drain seen, not the ring's capacity, so a quiet provider keeps
// its dispatcher small.
func (q *CompletionQueue) dispatch() {
	defer q.wg.Done()
	var buf []rdma.Completion
	for {
		var ok bool
		buf, ok = q.ring.Drain(buf[:0])
		if len(buf) > 0 {
			q.ringBatches.Inc()
			q.deliver(buf)
		}
		if !ok {
			return
		}
	}
}

// deliver hands one drained run to the installed consumer, in slices of up
// to maxBatch, and applies each landing (Base.ApplyWrite) at its place.
func (q *CompletionQueue) deliver(run []rdma.Completion) {
	q.mu.Lock()
	h, bh := q.handler, q.batch
	q.mu.Unlock()
	for len(run) > 0 {
		n := 0
		for n < len(run) && n < maxBatch && run[n].Op != opLand {
			n++
		}
		switch {
		case n == 0:
			q.land(run[0])
			n = 1
		case bh != nil:
			q.batchSize.Observe(int64(n))
			bh(run[:n])
		case h != nil:
			for _, c := range run[:n] {
				h(c)
			}
		}
		run = run[n:]
	}
}

// Close stops a ring-mode dispatcher after a final drain pass and waits for
// it to exit; event-mode queues have nothing to stop. Close is idempotent
// only through the owning Base, which guards it with its closed flag.
func (q *CompletionQueue) Close() {
	if q.submit != nil {
		return
	}
	q.ring.Close()
	q.wg.Wait()
}
