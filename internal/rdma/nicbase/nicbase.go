// Package nicbase is the shared runtime under every rdma.Provider: the
// bookkeeping a NIC needs regardless of what actually moves the bytes. It
// owns the queue-pair table, the pending-connect rendezvous, the registered
// memory regions with their watchers, and the serial completion dispatch
// (CompletionQueue), so that a transport — simnic's virtual-time fabric,
// tcpnic's sockets, or a future ibverbs or io_uring backend — implements
// only the wire: how a work request becomes bytes and how bytes become
// completions.
package nicbase

import (
	"fmt"
	"sync"

	"rdmc/internal/obs"
	"rdmc/internal/rdma"
)

// QPKey identifies a queue pair within one provider: the remote endpoint
// plus the rendezvous token both sides agreed on out of band.
type QPKey struct {
	Peer  rdma.NodeID
	Token uint64
}

// Base is the provider-independent half of an rdma.Provider. Transports
// embed it and delegate NodeID, SetHandler, the region calls, and the
// closed/handler gating of posts; Base never calls back into the transport
// except through the queue pairs it is asked to break on Close.
type Base struct {
	id rdma.NodeID
	cq *CompletionQueue

	// posts counts admitted work requests; nil (the default) discards them.
	// Installed via SetObserver before any activity.
	posts *obs.Counter

	mu       sync.Mutex
	regions  map[rdma.RegionID][]byte
	watchers map[rdma.RegionID]func(int, int)
	byKey    map[QPKey]rdma.QueuePair
	qps      []rdma.QueuePair
	closed   bool

	pool *BufPool // ring mode only
}

// Init wires the base to its identity and completion queue. Providers call
// it once at construction (Base is embedded, so there is no constructor).
func (b *Base) Init(id rdma.NodeID, cq *CompletionQueue) {
	b.id = id
	b.cq = cq
	if cq.submit == nil {
		b.pool = new(BufPool)
		cq.land = func(l rdma.Completion) {
			b.land(l)
			b.pool.Put(l.Data)
		}
	}
	b.regions = make(map[rdma.RegionID][]byte)
	b.watchers = make(map[rdma.RegionID]func(int, int))
	b.byKey = make(map[QPKey]rdma.QueuePair)
}

// Pool is the node's buffer pool: early arrivals, inbound write payloads
// and their ring landings draw from it, and transports co-hosting
// endpoints of another (package shmnic) share it, so one set of size
// classes serves the whole node. It is nil in event mode, which lands
// writes inline and stages nothing, so a simulated cluster of hundreds of
// nodes does not carry a pool per node.
func (b *Base) Pool() *BufPool { return b.pool }

// NodeID implements rdma.Provider.
func (b *Base) NodeID() rdma.NodeID { return b.id }

// SetHandler implements rdma.Provider.
func (b *Base) SetHandler(h func(rdma.Completion)) { b.cq.SetHandler(h) }

// SetBatchHandler implements rdma.Provider: completions are drained to
// the handler in slices (ring-mode dispatch) or in the batches the producer
// posted (event-mode dispatch), replacing any per-completion handler.
func (b *Base) SetBatchHandler(h func([]rdma.Completion)) { b.cq.SetBatchHandler(h) }

// Complete posts one completion to the node's queue.
func (b *Base) Complete(c rdma.Completion) { b.cq.Post(c) }

// CompleteBatch posts a run of completions in order with one queue
// operation — the completion-coalescing half of the ring pair (tcpnic's
// writer retires a whole writev batch this way).
func (b *Base) CompleteBatch(cs []rdma.Completion) { b.cq.PostBatch(cs) }

// CheckPost is the shared gate in front of every work-request post: the
// provider must be open and a completion handler installed.
func (b *Base) CheckPost() error {
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return rdma.ErrClosed
	}
	if !b.cq.HasHandler() {
		return rdma.ErrNoHandler
	}
	b.posts.Inc()
	return nil
}

// Closed reports whether the provider has been closed.
func (b *Base) Closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// EnsureQP returns the queue pair registered under key, creating and
// registering create()'s result if none exists. It reports whether the
// queue pair was created by this call (tcpnic's Connect/accept rendezvous:
// whichever side arrives first parks the endpoint for the other to find).
func (b *Base) EnsureQP(key QPKey, create func() rdma.QueuePair) (rdma.QueuePair, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, false, rdma.ErrClosed
	}
	if qp, ok := b.byKey[key]; ok {
		return qp, false, nil
	}
	qp := create()
	b.byKey[key] = qp
	b.qps = append(b.qps, qp)
	return qp, true, nil
}

// AddQP registers a queue pair without table deduplication, for transports
// whose rendezvous pairs endpoints elsewhere (simnic allows several live
// queue pairs per (peer, token), e.g. both ends of a self-connection). The
// first registration per key still lands in the lookup table.
func (b *Base) AddQP(key QPKey, qp rdma.QueuePair) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return rdma.ErrClosed
	}
	if _, ok := b.byKey[key]; !ok {
		b.byKey[key] = qp
	}
	b.qps = append(b.qps, qp)
	return nil
}

// RemoveQP forgets a closed queue pair, so a later Connect under the same
// key builds a fresh one and the table holds only live queue pairs. It is a
// no-op unless key still maps to qp: a close racing a re-connect never
// evicts its successor.
func (b *Base) RemoveQP(key QPKey, qp rdma.QueuePair) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.byKey[key] != qp {
		return
	}
	delete(b.byKey, key)
	for i, q := range b.qps {
		if q == qp {
			b.qps = append(b.qps[:i], b.qps[i+1:]...)
			break
		}
	}
}

// Shutdown marks the base closed and hands back every registered queue pair
// exactly once, for the transport to break. The second result is false when
// the base was already closed (Close must be idempotent).
func (b *Base) Shutdown() ([]rdma.QueuePair, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, false
	}
	b.closed = true
	qps := b.qps
	b.qps = nil
	return qps, true
}

// CloseCQ stops the completion dispatcher (ring mode only). Transports
// call it after breaking their queue pairs so broken-status completions
// still drain.
func (b *Base) CloseCQ() { b.cq.Close() }

// RegisterRegion implements rdma.Provider.
func (b *Base) RegisterRegion(id rdma.RegionID, buf []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return rdma.ErrClosed
	}
	b.regions[id] = buf
	return nil
}

// UnregisterRegion withdraws a region and its watcher: later inbound writes
// to the id are dropped silently (the sender's completion still succeeds, as
// with a real NIC racing a deregistration) and the watcher closure is
// released. Session-style layers that register a region per instance must
// call this on teardown or every churned-through instance stays reachable
// from the provider through its watcher.
func (b *Base) UnregisterRegion(id rdma.RegionID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.regions, id)
	delete(b.watchers, id)
}

// Region implements rdma.Provider.
func (b *Base) Region(id rdma.RegionID) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.regions[id]
}

// WatchRegion implements rdma.Provider.
func (b *Base) WatchRegion(id rdma.RegionID, fn func(offset, length int)) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return rdma.ErrClosed
	}
	if _, ok := b.regions[id]; !ok {
		return rdma.ErrUnknownRegion
	}
	b.watchers[id] = fn
	return nil
}

// opLand marks a landing in the completion ring (see ApplyWrite).
const opLand rdma.OpType = -1

// ApplyWrite lands an inbound one-sided write: payload (when real bytes
// moved — nil for metadata-only writes) is copied into the registered
// region, then the region's watcher fires, on the completion dispatch
// context: inline in event mode, and in ring mode through the ring, in order
// with completions, from a pooled copy of payload. A write outside a
// registered region's bounds is a protocol violation and returns an error
// for the transport to surface as a broken connection.
func (b *Base) ApplyWrite(id rdma.RegionID, offset, length int, payload []byte) error {
	if payload != nil && b.cq.submit == nil {
		payload = append(b.pool.Get(length)[:0], payload[:length]...)
	}
	return b.ApplyPooledWrite(id, offset, length, payload)
}

// ApplyPooledWrite is ApplyWrite for a ring-mode transport that hands over
// a payload taken from Pool(), such as the buffer it read the write off the
// wire into: the ring carries that buffer itself, and the landing returns
// it to the pool once copied into the region. A refused write leaves it to
// the collector.
func (b *Base) ApplyPooledWrite(id rdma.RegionID, offset, length int, payload []byte) error {
	b.mu.Lock()
	mem := b.regions[id]
	b.mu.Unlock()
	if mem != nil && payload != nil && (offset < 0 || offset+length > len(mem)) {
		return fmt.Errorf("nicbase: write [%d,%d) outside region %d of %d bytes", offset, offset+length, id, len(mem))
	}
	l := rdma.Completion{Op: opLand, Token: uint64(id), WRID: uint64(offset), Bytes: length, Data: payload}
	switch {
	case b.cq.submit != nil:
		b.land(l)
	case mem != nil:
		b.cq.ring.Push(l)
	}
	return nil
}

// land applies one landing, looking the region and watcher up again: a
// landing queued before UnregisterRegion or Shutdown writes nothing and
// fires nothing. The watcher runs without Base's lock, so it may re-enter
// the provider.
func (b *Base) land(l rdma.Completion) {
	id, offset := rdma.RegionID(l.Token), int(l.WRID)
	b.mu.Lock()
	mem, watcher, closed := b.regions[id], b.watchers[id], b.closed
	b.mu.Unlock()
	if closed || (l.Data != nil && offset+l.Bytes > len(mem)) {
		return // withdrawn, or re-registered smaller, since the write arrived
	}
	if l.Data != nil {
		copy(mem[offset:], l.Data[:l.Bytes])
	}
	if watcher != nil {
		watcher(offset, l.Bytes)
	}
}
