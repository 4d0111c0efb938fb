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
// posted, one-sided writes applied to the target's registered region with
// the watcher fired, and break-on-failure — closing either end fails the
// outstanding work requests of both with StatusBroken. Send buffers are
// referenced zero-copy until the send completion fires, per the ownership
// contract on rdma.QueuePair; because delivery happens inside the post
// call, the payload has always been copied out (to the peer's buffer or to
// staging) by the time the completion is observable.
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
// supplies everything but Pool.
type Host interface {
	NodeID() rdma.NodeID
	CheckPost() error
	Closed() bool
	Complete(rdma.Completion)
	ApplyWrite(id rdma.RegionID, offset, length int, payload []byte) error
	EnsureQP(key nicbase.QPKey, create func() rdma.QueuePair) (rdma.QueuePair, bool, error)
	// Pool stages early arrivals; co-hosting transports share their own so
	// one set of size classes serves the whole node.
	Pool() *nicbase.BufPool
}

// Exchange is one intra-host communication domain: the set of hosts whose
// ranks reach each other through shared memory. Its mutex serializes every
// endpoint state transition in the domain — pairing, posting, matching,
// breaking — which keeps the cross-endpoint delivery logic free of lock
// ordering concerns; completions and region writes are applied after the
// lock drops so the completion queue and region watchers can re-enter the
// providers.
type Exchange struct {
	mu    sync.Mutex
	hosts map[rdma.NodeID]Host
}

// NewExchange creates an empty intra-host domain.
func NewExchange() *Exchange {
	return &Exchange{hosts: make(map[rdma.NodeID]Host)}
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
// h. The caller registers it in the host's queue-pair table (EnsureQP) and
// then calls Pair to link it with the peer's half once both exist.
func (x *Exchange) NewEndpoint(h Host, peer rdma.NodeID, token uint64) rdma.QueuePair {
	return &endpoint{x: x, h: h, peer: peer, token: token}
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
	if !ok {
		return // key occupied by another transport's queue pair
	}

	x.mu.Lock()
	if ep.remote != nil || remote.remote != nil || ep.broken || remote.broken {
		x.mu.Unlock()
		return
	}
	ep.remote = remote
	remote.remote = ep
	fx := newEffects()
	ep.flushLocked(fx)
	remote.flushLocked(fx)
	x.mu.Unlock()
	fx.run(x)
}

// Config describes one standalone shared-memory provider.
type Config struct {
	// NodeID is the local identity within the exchange's domain.
	NodeID rdma.NodeID
	// Exchange is the intra-host domain to join; required.
	Exchange *Exchange
	// CompletionBuffer sizes the completion ring; zero selects 1024.
	CompletionBuffer int
}

// Provider is a shared-memory NIC for one rank of an intra-host domain.
type Provider struct {
	nicbase.Base
	ex   *Exchange
	pool nicbase.BufPool
}

var _ rdma.Provider = (*Provider)(nil)
var _ Host = (*Provider)(nil)

// New joins the exchange and starts dispatching completions.
func New(cfg Config) (*Provider, error) {
	if cfg.Exchange == nil {
		return nil, fmt.Errorf("shmnic: node %d needs an exchange", cfg.NodeID)
	}
	p := &Provider{ex: cfg.Exchange}
	p.Init(cfg.NodeID, nicbase.NewRingCQ(cfg.CompletionBuffer))
	if err := cfg.Exchange.Register(p); err != nil {
		p.CloseCQ()
		return nil, err
	}
	return p, nil
}

// Pool implements Host.
func (p *Provider) Pool() *nicbase.BufPool { return &p.pool }

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
