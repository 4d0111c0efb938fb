// Package shmnic implements the rdma.Provider contract for ranks that share
// one operating-system process: co-located endpoints exchange blocks through
// direct memory copies — one memcpy from the sender's posted buffer into the
// receiver's posted buffer, the intra-host analogue of a DMA — skipping the
// kernel socket entirely. It is the building block the many-group
// multi-tenancy work needs for large single-process simulations with
// realistic co-location: the data plane between co-located ranks costs a
// lock and a copy instead of two syscalls and two kernel copies.
//
// The package has two faces:
//
//   - a standalone Provider, used directly and by the conformance suite:
//     every queue pair the provider creates is an in-process endpoint;
//   - the Exchange + Host plumbing that lets another transport co-host
//     intra-host endpoints: tcpnic registers its providers in an Exchange
//     and routes Connect calls for co-located peers to shared-memory
//     endpoints, while socket queue pairs keep serving remote peers.
//
// Semantics match the other providers: FIFO per queue pair, early arrivals
// staged (by copy, through the host's buffer pool) until a receive is
// posted, one-sided writes landed by the target's completion dispatcher,
// and break-on-failure — closing either end fails the outstanding work
// requests of both with StatusBroken. Send buffers are referenced zero-copy
// until the send completion fires, per the ownership contract on
// rdma.QueuePair; because delivery happens inside the post call, the
// payload has always been copied out (to the peer's buffer or to staging)
// by the time the completion is observable.
//
// Locking: each queue pair has one lock, held by both halves for every
// post, match, copy and break, so copies on different queue pairs run in
// parallel. Lock order: Base.mu → Exchange.mu when pairing, pair lock →
// Base.mu on posts; Exchange.mu is never held across a copy.
package shmnic

import (
	"fmt"
	"sync"

	"rdmc/internal/rdma"
	"rdmc/internal/rdma/nicbase"
)

// Host is the provider-side surface an endpoint needs from whichever NIC
// owns it: the standalone shmnic Provider, or a transport like tcpnic
// co-hosting intra-host endpoints next to its sockets. nicbase.Base
// supplies all of it.
type Host interface {
	NodeID() rdma.NodeID
	CheckPost() error
	Closed() bool
	Complete(rdma.Completion)
	ApplyWrite(id rdma.RegionID, offset, length int, payload []byte) error
	EnsureQP(key nicbase.QPKey, create func() rdma.QueuePair) (rdma.QueuePair, bool, error)
	RemoveQP(key nicbase.QPKey, qp rdma.QueuePair)
	// Pool stages early arrivals; co-hosting transports share their own so
	// one set of size classes serves the whole node.
	Pool() *nicbase.BufPool
}

// Exchange is one intra-host communication domain: the set of hosts whose
// ranks reach each other through shared memory. Its mutex guards only the
// host registry and the pair table and is never held across a copy. Lock
// order: Base.mu → Exchange.mu when pairing (EnsureQP creates endpoints
// under the host's lock), pair lock → Base.mu on posts (CheckPost).
// Completions and region writes are queued after the pair lock drops: a
// full completion ring blocks its producer, and the dispatcher draining it
// may need the pair lock to post.
type Exchange struct {
	mu    sync.Mutex
	hosts map[rdma.NodeID]Host
	pairs map[pairKey]*pair
}

// pairKey names one queue pair from either end: (lower node, higher node,
// token).
type pairKey struct {
	lo, hi rdma.NodeID
	token  uint64
}

// keyOf returns the pair key of the half owned by local, and which slot of
// the pair record that half occupies.
func keyOf(local, peer rdma.NodeID, token uint64) (pairKey, int) {
	if local < peer {
		return pairKey{lo: local, hi: peer, token: token}, 0
	}
	return pairKey{lo: peer, hi: local, token: token}, 1
}

// pair is one intra-host queue pair: the lock both halves hold for every
// state transition, and the halves themselves. The record lives in the
// exchange's table from the first half's creation until both halves close.
type pair struct {
	mu   sync.Mutex
	half [2]*endpoint // guarded by Exchange.mu
	free []*effects   // effects sets whose run has returned; guarded by mu
}

// NewExchange creates an empty intra-host domain.
func NewExchange() *Exchange {
	return &Exchange{hosts: make(map[rdma.NodeID]Host), pairs: make(map[pairKey]*pair)}
}

// Register adds a host to the domain. Co-located hosts must all register
// before any of them connects, so both sides of a pair agree the peer is
// intra-host.
func (x *Exchange) Register(h Host) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, dup := x.hosts[h.NodeID()]; dup {
		return fmt.Errorf("shmnic: node %d already registered in exchange", h.NodeID())
	}
	x.hosts[h.NodeID()] = h
	return nil
}

// Deregister removes a host (typically on provider close).
func (x *Exchange) Deregister(h Host) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.hosts[h.NodeID()] == h {
		delete(x.hosts, h.NodeID())
	}
}

// Has reports whether peer is reachable through this domain.
func (x *Exchange) Has(peer rdma.NodeID) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	_, ok := x.hosts[peer]
	return ok
}

// NewEndpoint creates the local half of an intra-host queue pair owned by
// h and joins it to the pair record both halves share. The caller registers
// it in the host's queue-pair table (EnsureQP) and then calls Pair to link
// it with the peer's half once both exist.
func (x *Exchange) NewEndpoint(h Host, peer rdma.NodeID, token uint64) rdma.QueuePair {
	k, side := keyOf(h.NodeID(), peer, token)
	x.mu.Lock()
	defer x.mu.Unlock()
	p := x.pairs[k]
	if p == nil {
		p = new(pair)
		x.pairs[k] = p
	}
	ep := &endpoint{x: x, p: p, h: h, peer: peer, token: token}
	p.half[side] = ep
	return ep
}

// leave drops a closed half from its pair record, and the record from the
// table once both halves have left. Idempotent.
func (x *Exchange) leave(e *endpoint) {
	k, side := keyOf(e.h.NodeID(), e.peer, e.token)
	x.mu.Lock()
	defer x.mu.Unlock()
	p := e.p
	if p.half[side] == e {
		p.half[side] = nil
	}
	if p.half[0] == nil && p.half[1] == nil && x.pairs[k] == p {
		delete(x.pairs, k)
	}
}

// Pair links ep with the matching endpoint on the peer host, creating (and
// parking) the peer's half if its Connect has not run yet — the same
// whichever-side-arrives-first rendezvous tcpnic's accept path performs.
// Posts queued before pairing flush in order. Pair is idempotent.
func (x *Exchange) Pair(qp rdma.QueuePair) {
	ep, ok := qp.(*endpoint)
	if !ok {
		return
	}
	x.mu.Lock()
	rh := x.hosts[ep.peer]
	x.mu.Unlock()
	if rh == nil || rh.Closed() {
		return // peer not up yet; its Connect (or Register+Connect) pairs
	}
	rqp, _, err := rh.EnsureQP(
		nicbase.QPKey{Peer: ep.h.NodeID(), Token: ep.token},
		func() rdma.QueuePair { return x.NewEndpoint(rh, ep.h.NodeID(), ep.token) },
	)
	if err != nil {
		return // peer closed between lookup and rendezvous
	}
	remote, ok := rqp.(*endpoint)
	if !ok || remote.p != ep.p {
		return // key held by another transport's queue pair, or by a closing earlier one
	}

	p := ep.p
	p.mu.Lock()
	if ep.remote != nil || remote.remote != nil || ep.broken || remote.broken {
		p.mu.Unlock()
		return
	}
	ep.remote = remote
	remote.remote = ep
	fx := p.effectsLocked()
	ep.flushLocked(fx)
	remote.flushLocked(fx)
	p.mu.Unlock()
	fx.run()
}

// Config describes one standalone shared-memory provider.
type Config struct {
	// NodeID is the local identity within the exchange's domain.
	NodeID rdma.NodeID
	// Exchange is the intra-host domain to join; required.
	Exchange *Exchange
}

// Provider is a shared-memory NIC for one rank of an intra-host domain.
type Provider struct {
	nicbase.Base
	ex *Exchange
}

var _ rdma.Provider = (*Provider)(nil)
var _ Host = (*Provider)(nil)

// New joins the exchange and starts dispatching completions.
func New(cfg Config) (*Provider, error) {
	if cfg.Exchange == nil {
		return nil, fmt.Errorf("shmnic: node %d needs an exchange", cfg.NodeID)
	}
	p := &Provider{ex: cfg.Exchange}
	p.Init(cfg.NodeID, nicbase.NewRingCQ(0))
	if err := cfg.Exchange.Register(p); err != nil {
		p.CloseCQ()
		return nil, err
	}
	return p, nil
}

// Connect implements rdma.Provider. Both sides call Connect with the same
// token; whichever arrives second completes the pairing and flushes queued
// work requests.
func (p *Provider) Connect(peer rdma.NodeID, token uint64) (rdma.QueuePair, error) {
	if peer == p.NodeID() {
		return nil, fmt.Errorf("shmnic: node %d cannot connect to itself", peer)
	}
	qp, _, err := p.EnsureQP(
		nicbase.QPKey{Peer: peer, Token: token},
		func() rdma.QueuePair { return p.ex.NewEndpoint(p, peer, token) },
	)
	if err != nil {
		return nil, err
	}
	p.ex.Pair(qp)
	return qp, nil
}

// Close implements rdma.Provider: every endpoint breaks (failing the
// outstanding work of both halves), the completion queue drains, and the
// node leaves the exchange.
func (p *Provider) Close() error {
	qps, first := p.Shutdown()
	if !first {
		return nil
	}
	for _, qp := range qps {
		_ = qp.Close()
	}
	p.CloseCQ()
	p.ex.Deregister(p)
	return nil
}
