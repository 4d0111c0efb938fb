// Package rdmc is a Go implementation of RDMC — the reliable RDMA multicast
// for large objects from Behrens, Jha, Birman and Tremel (DSN 2018). It maps
// each multicast onto an efficient deterministic pattern of reliable unicast
// block transfers (sequential, chain, binomial tree, binomial pipeline, or a
// topology-aware hybrid), executed asynchronously with the paper's
// receiver-paced gating rules, and offers the reliability semantics of N
// side-by-side TCP links: messages arrive uncorrupted, in sender order,
// without duplication, or the group reports failure to every survivor.
//
// The library runs over two interchangeable transports:
//
//   - a deterministic virtual-time simulation of an RDMA fabric
//     (NewSimCluster), substituting for the Mellanox hardware of the paper's
//     testbeds and used by the benchmark harness to reproduce the paper's
//     tables and figures; and
//   - real TCP sockets (NewTCPNode / NewLocalCluster), realizing the
//     paper's §5.3 "RDMC on TCP" direction for genuinely runnable
//     deployments.
//
// The API mirrors the paper's Figure 1: create a group whose first member is
// the only sender, send messages, destroy the group. A successful Destroy on
// the root guarantees every message reached every member (§4.6).
package rdmc

import (
	"errors"
	"fmt"
	"time"

	"rdmc/internal/core"
	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/schedule"
)

// Algorithm selects the multicast-to-unicast mapping (§4.3 of the paper).
type Algorithm int

// Multicast algorithms, in the paper's order of increasing effectiveness.
const (
	// SequentialSend unicasts the full message to each receiver in turn —
	// the datacenter status quo the paper argues against.
	SequentialSend Algorithm = iota + 1
	// ChainSend relays blocks down a bucket brigade (chain replication).
	ChainSend
	// BinomialTree relays the whole message along a binomial tree.
	BinomialTree
	// BinomialPipeline is the paper's main algorithm: blocks are relayed
	// concurrently over a virtual hypercube, so every NIC sends and
	// receives simultaneously. This is the default.
	BinomialPipeline
	// MPIBcast is the MVAPICH-style comparator: binomial scatter followed
	// by a ring allgather.
	MPIBcast
	// HybridBinomial runs one binomial pipeline across rack leaders and
	// another within each rack (§4.3); it requires GroupConfig.RackOf.
	HybridBinomial
	// Adaptive picks the schedule per transfer from a live congestion
	// signal: uncontended groups run the static plan (hybrid when RackOf is
	// set, binomial pipeline otherwise) bit-for-bit, while saturated trunks
	// reroute leader traffic around the hot rack and host contention falls
	// back to a chain.
	Adaptive
)

func (a Algorithm) String() string {
	switch a {
	case HybridBinomial:
		return "hybrid binomial pipeline"
	case Adaptive:
		return "adaptive"
	}
	return a.base().String()
}

func (a Algorithm) base() schedule.Algorithm {
	switch a {
	case SequentialSend:
		return schedule.Sequential
	case ChainSend:
		return schedule.Chain
	case BinomialTree:
		return schedule.BinomialTree
	case BinomialPipeline, 0:
		return schedule.BinomialPipeline
	case MPIBcast:
		return schedule.MPIScatterAllgather
	default:
		return schedule.Algorithm(0)
	}
}

// Callbacks notify the application of group events (the paper's Figure 1
// callback pair plus failure notification).
type Callbacks struct {
	// Incoming runs on receivers when a transfer is announced; it returns
	// the buffer the message lands in (at least size bytes), or nil to
	// run the transfer metadata-only (simulation studies).
	Incoming func(size int) []byte
	// Completion runs when a message is locally complete and its memory
	// may be reused; this can precede other receivers finishing (§4.1).
	Completion func(seq int, data []byte, size int)
	// Failure runs at most once if the group fails.
	Failure func(err error)
}

// GroupConfig carries per-group parameters.
type GroupConfig struct {
	// BlockSize is the relaying granularity for large messages; zero
	// selects 1 MiB, the paper's usual operating point.
	BlockSize int
	// Algorithm selects the schedule; zero selects BinomialPipeline.
	Algorithm Algorithm
	// RackOf maps each member rank to a rack index, required by
	// HybridBinomial and optional for Adaptive (without it the adaptive
	// planner treats the fabric as flat).
	RackOf []int
	// SendWindow is how many block sends each member keeps in flight
	// concurrently; sends still post in schedule order. Zero selects the
	// default of 4 (see the design notes in DESIGN.md).
	SendWindow int
	// RecvWindow is how many receives each member keeps posted ahead of
	// its arrivals; zero matches SendWindow so the pipeline widens at
	// both ends together (see the design notes in DESIGN.md — 1 keeps
	// the pipeline in lockstep).
	RecvWindow int
	// RecordStats captures per-message timings (Table 1 / Figure 5).
	RecordStats bool
}

func (c GroupConfig) coreConfig(cbs Callbacks) (core.GroupConfig, error) {
	if c.BlockSize == 0 {
		c.BlockSize = 1 << 20
	}
	var gen schedule.Generator
	switch {
	case c.Algorithm == HybridBinomial:
		if c.RackOf == nil {
			return core.GroupConfig{}, errors.New("rdmc: HybridBinomial requires RackOf")
		}
		gen = schedule.HybridGen{RackOf: c.RackOf}
	case c.Algorithm == Adaptive:
		gen = schedule.AdaptiveGen{RackOf: c.RackOf}
	case c.Algorithm.base() == schedule.Algorithm(0):
		return core.GroupConfig{}, fmt.Errorf("rdmc: unknown algorithm %d", c.Algorithm)
	default:
		gen = schedule.New(c.Algorithm.base())
	}
	return core.GroupConfig{
		BlockSize:   c.BlockSize,
		Generator:   gen,
		SendWindow:  c.SendWindow,
		RecvWindow:  c.RecvWindow,
		RecordStats: c.RecordStats,
		Callbacks: core.Callbacks{
			Incoming:   cbs.Incoming,
			Completion: cbs.Completion,
			Failure:    cbs.Failure,
		},
	}, nil
}

// Node is one process's RDMC endpoint over some transport.
type Node struct {
	engine *core.Engine
	id     int
	// provider is the node's NIC, kept for layers that need their own
	// queue pairs beside the engine's (sessions' status tables).
	provider rdma.Provider
	observer *obs.Obs
	closers  []func() error
	registry *Registry
}

// ID returns the node's identity.
func (n *Node) ID() int { return n.id }

// CreateGroup creates the local endpoint of group id with the given member
// list (members[0] is the root). Every member must call CreateGroup with the
// same id and member list, as in the paper.
func (n *Node) CreateGroup(id int, members []int, cfg GroupConfig, cbs Callbacks) (*Group, error) {
	if id < 0 || int64(id) > int64(^uint32(0)) {
		return nil, fmt.Errorf("rdmc: group id %d outside 32-bit range", id)
	}
	cc, err := cfg.coreConfig(cbs)
	if err != nil {
		return nil, err
	}
	ids := make([]rdma.NodeID, len(members))
	for i, m := range members {
		ids[i] = rdma.NodeID(m)
	}
	g, err := n.engine.CreateGroup(core.GroupID(id), ids, cc)
	if err != nil {
		return nil, err
	}
	return &Group{inner: g}, nil
}

// Close releases the node's transports. Active groups fail.
func (n *Node) Close() error {
	err := n.engine.Close()
	for _, fn := range n.closers {
		if cerr := fn(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Group is one RDMC multicast session.
type Group struct {
	inner *core.Group
}

// Rank returns the local rank; rank 0 is the root (the only sender).
func (g *Group) Rank() int { return g.inner.Rank() }

// Err returns the group's failure, if any.
func (g *Group) Err() error { return g.inner.Err() }

// Delivered returns the number of locally completed messages.
func (g *Group) Delivered() int { return g.inner.Delivered() }

// Send multicasts data to the group; only the root may call it. The buffer
// must remain untouched until the Completion callback fires for it.
func (g *Group) Send(data []byte) error { return g.inner.Send(data) }

// SendSized multicasts a metadata-only message of the given size (the full
// protocol runs, no user bytes move) — the tool for simulation studies.
func (g *Group) SendSized(size int) error { return g.inner.SendSized(size) }

// Destroy tears the group down asynchronously. On the root, done receives
// nil only if every message reached every member (§4.6's close guarantee).
// Simulation deployments observe done after driving the cluster's clock.
func (g *Group) Destroy(done func(err error)) { g.inner.Destroy(done) }

// DestroyWait runs Destroy and blocks for the outcome, up to the timeout.
// It suits real-transport deployments; on a simulated cluster use Destroy
// and drive the clock instead.
func (g *Group) DestroyWait(timeout time.Duration) error {
	ch := make(chan error, 1)
	g.inner.Destroy(func(err error) { ch <- err })
	select {
	case err := <-ch:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("rdmc: destroy timed out after %v", timeout)
	}
}

// Stats returns the timing record of the most recent completed message when
// GroupConfig.RecordStats is set, else nil.
func (g *Group) Stats() *core.TransferStats { return g.inner.LastStats() }
