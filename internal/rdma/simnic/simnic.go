// Package simnic implements the rdma.Provider interface over the simnet
// fluid-flow fabric. It is the stand-in for the Mellanox RDMA NICs used in
// the RDMC paper: queue pairs are FIFO and transmit their work requests one
// at a time, in post order, as an RC queue pair does; completions fire at
// the virtual time the last byte arrives, software costs go through the
// simnet CPU model, and link or node failures surface as StatusBroken
// completions.
//
// The queue-pair table, region registry, watchers, and serial completion
// dispatch live in the shared runtime (package nicbase); this package
// contributes only the wire — how a work request becomes a simulated flow
// and how a flow's completion becomes a delivery.
//
// Everything runs on the simulation's single event-loop thread; providers are
// not goroutine-safe and must only be touched from simulation callbacks (or
// before the simulation starts).
package simnic

import (
	"fmt"

	"rdmc/internal/rdma"
	"rdmc/internal/rdma/nicbase"
	"rdmc/internal/simnet"
)

// Network creates providers that share one simulated cluster and pairs their
// queue-pair endpoints by (node, node, token) rendezvous.
type Network struct {
	cluster    *simnet.Cluster
	rendezvous *nicbase.Rendezvous[*queuePair]
	providers  map[rdma.NodeID]*Provider
	tolerant   bool
}

// NewNetwork wraps a simulated cluster.
func NewNetwork(cluster *simnet.Cluster) *Network {
	return &Network{
		cluster:    cluster,
		rendezvous: nicbase.NewRendezvous[*queuePair](),
		providers:  make(map[rdma.NodeID]*Provider),
	}
}

// SetTolerant flips queue pairs created after the call into loss-tolerant
// delivery, the UD-like wire a selective-retransmit layer (rdma/reliab)
// builds on instead of the RC default:
//
//   - a frame dropped by a lossy fabric path (simnet.OutcomeLost) silently
//     vanishes — the local send still completes StatusOK when its bytes
//     leave the NIC, the receiver just never sees it — instead of breaking
//     the connection as RC retry exhaustion would;
//   - arrivals are delivered at actual arrival time, so a reordering fabric
//     is observable, while local send completions keep post order.
//
// Severed paths and torn-down peers still surface StatusBroken: tolerance
// covers frame loss, not endpoint failure.
func (n *Network) SetTolerant(on bool) { n.tolerant = on }

// Cluster returns the underlying simulated cluster.
func (n *Network) Cluster() *simnet.Cluster { return n.cluster }

// Provider returns the NIC of the given node; a node has exactly one, so
// repeated calls return the same instance.
func (n *Network) Provider(id rdma.NodeID) *Provider {
	if p, ok := n.providers[id]; ok {
		return p
	}
	p := &Provider{net: n}
	p.Init(id, nicbase.NewEventCQ(p.submit))
	n.providers[id] = p
	return p
}

// Provider is a simulated NIC.
type Provider struct {
	nicbase.Base
	net     *Network
	offload bool
}

var _ rdma.Provider = (*Provider)(nil)

// SetOffload toggles CORE-Direct-style cross-channel offload (§2, Figure 12
// of the paper): with it on, posting and completion handling bypass the CPU
// model entirely, as if the precomputed data-flow graph executed on the NIC.
func (p *Provider) SetOffload(on bool) { p.offload = on }

// submit routes a completion delivery through the CPU model (or straight
// through under offload); it is the provider's completion-queue dispatch
// hook.
func (p *Provider) submit(fn func()) {
	if p.offload {
		p.sim().After(0, fn)
		return
	}
	p.cpu().Deliver(fn)
}

// Connect implements rdma.Provider. Unlike socket transports, rendezvous is
// in-memory and per-call: each Connect creates a fresh endpoint, so a node
// may hold both ends of a self-connection under one token.
func (p *Provider) Connect(peer rdma.NodeID, token uint64) (rdma.QueuePair, error) {
	if int(peer) < 0 || int(peer) >= p.net.cluster.Config().Nodes {
		return nil, fmt.Errorf("simnic: peer %d outside cluster of %d nodes", peer, p.net.cluster.Config().Nodes)
	}
	qp := &queuePair{local: p, peer: peer, token: token, tolerant: p.net.tolerant}
	if err := p.AddQP(nicbase.QPKey{Peer: peer, Token: token}, qp); err != nil {
		return nil, err
	}
	if other, ok := p.net.rendezvous.Match(p.NodeID(), peer, token, qp); ok {
		qp.remote, other.remote = other, qp
		qp.maybeStart()
		other.maybeStart()
	}
	return qp, nil
}

// Close implements rdma.Provider.
func (p *Provider) Close() error {
	qps, _ := p.Shutdown()
	for _, qp := range qps {
		_ = qp.Close()
	}
	return nil
}

func (p *Provider) cpu() *simnet.CPU { return p.net.cluster.CPU(simnet.NodeID(p.NodeID())) }

func (p *Provider) sim() *simnet.Sim { return p.net.cluster.Sim() }

type sendWR struct {
	buf   rdma.Buffer
	imm   uint32
	wrID  uint64
	write bool
	// one-sided write fields
	region rdma.RegionID
	offset int
	data   []byte
}

type recvWR struct {
	buf  rdma.Buffer
	wrID uint64
}

type arrival struct {
	bytes int
	imm   uint32
	data  []byte
	write bool
	// write fields
	region rdma.RegionID
	offset int
}

// sendEntry is one launched work request awaiting in-order delivery. The
// queue pair's lane puts its frames on the wire in post order, but a frame
// can still land out of order — a reordering fabric delays it after its
// flow, and a broken frame surfaces only after the retry timeout — so
// completion and arrival are held until every earlier entry has landed: the
// FIFO delivery an RC queue pair guarantees.
type sendEntry struct {
	wr   sendWR
	done bool
	// lost marks a tolerant-mode frame the fabric dropped: the local send
	// completes normally (the bytes left the NIC) but no arrival is
	// delivered.
	lost bool

	// The entry's launch and the fabric's completion callback for the queue
	// pair's wire, bound to this entry once: a drained entry is recycled for
	// a later launch.
	start       func()
	landed      func(broken bool)
	frameLanded func(simnet.Outcome)
	next        *sendEntry // spare list link
}

// queuePair is one simulated RC endpoint. Every posted work request is
// launched at once: its post cost and latency hop overlap those of the work
// requests ahead of it, while its lane puts it on the wire only after the
// previous one has crossed, as an RC queue pair transmits its send queue.
// Completions and arrivals are delivered strictly in post order; receives
// match arrivals in order. Its queues are rings of values reused across work
// requests, and launched entries are recycled with their callbacks bound, so
// a work request allocates nothing once the queues have grown to their peak
// depth.
type queuePair struct {
	local    *Provider
	peer     rdma.NodeID
	token    uint64
	tolerant bool
	broken   bool
	remote   *queuePair
	lane     simnet.Lane
	pending  fifo[sendWR]     // posted, not yet launched
	flight   fifo[*sendEntry] // launched, in post order (reorder buffer)
	spare    *sendEntry       // drained entries awaiting reuse
	recvs    fifo[recvWR]
	arrivals fifo[arrival]
}

var _ rdma.QueuePair = (*queuePair)(nil)

// Peer implements rdma.QueuePair.
func (q *queuePair) Peer() rdma.NodeID { return q.peer }

// Token implements rdma.QueuePair.
func (q *queuePair) Token() uint64 { return q.token }

// PostSend implements rdma.QueuePair.
func (q *queuePair) PostSend(buf rdma.Buffer, imm uint32, wrID uint64) error {
	if err := q.postCheck(); err != nil {
		return err
	}
	q.pending.push(sendWR{buf: buf, imm: imm, wrID: wrID})
	q.maybeStart()
	return nil
}

// PostWrite implements rdma.QueuePair. The payload is referenced, not
// copied — data stays owned by the provider until the write completion
// fires (the ownership contract on rdma.QueuePair), which is what lets the
// simulated NIC stay allocation-free per write.
func (q *queuePair) PostWrite(region rdma.RegionID, offset int, data []byte, wrID uint64) error {
	if err := q.postCheck(); err != nil {
		return err
	}
	q.pending.push(sendWR{
		write:  true,
		region: region,
		offset: offset,
		data:   data,
		buf:    rdma.SizeBuffer(len(data)),
		wrID:   wrID,
	})
	q.maybeStart()
	return nil
}

// PostRecv implements rdma.QueuePair.
func (q *queuePair) PostRecv(buf rdma.Buffer, wrID uint64) error {
	if err := q.postCheck(); err != nil {
		return err
	}
	if q.arrivals.len() > 0 {
		a := q.arrivals.at(0)
		if a.data != nil && buf.Data != nil && len(buf.Data) < len(a.data) {
			q.breakBoth()
			return rdma.ErrBufferTooSmall
		}
		q.completeRecv(recvWR{buf: buf, wrID: wrID}, q.arrivals.pop())
		return nil
	}
	q.recvs.push(recvWR{buf: buf, wrID: wrID})
	return nil
}

// Close implements rdma.QueuePair.
func (q *queuePair) Close() error {
	q.breakConn()
	return nil
}

func (q *queuePair) postCheck() error {
	if q.broken {
		return rdma.ErrBroken
	}
	return q.local.CheckPost()
}

// maybeStart launches every queued send once the endpoints are paired. Each
// launch pays the software post cost through the CPU model (offload bypasses
// it) and then goes to the queue pair's lane.
func (q *queuePair) maybeStart() {
	if q.broken || q.remote == nil {
		return
	}
	for q.pending.len() > 0 {
		e := q.entry()
		e.wr = q.pending.pop()
		q.flight.push(e)
		if q.local.offload {
			e.start()
			continue
		}
		q.local.cpu().Exec(q.local.cpu().Config().PostCost, e.start)
	}
}

// entry returns a recycled flight entry, or a new one with its callbacks
// bound.
func (q *queuePair) entry() *sendEntry {
	if e := q.spare; e != nil {
		q.spare, e.next = e.next, nil
		return e
	}
	e := &sendEntry{}
	e.start = func() { q.transmit(e) }
	if q.tolerant {
		e.frameLanded = func(o simnet.Outcome) { q.onFrameLanded(e, o) }
	} else {
		e.landed = func(broken bool) { q.onLanded(e, broken) }
	}
	return e
}

// transmit hands a launched entry to the fabric.
func (q *queuePair) transmit(e *sendEntry) {
	if q.broken {
		return
	}
	src := simnet.NodeID(q.local.NodeID())
	dst := simnet.NodeID(q.peer)
	if q.tolerant {
		// Loss-tolerant wire: a dropped frame vanishes instead of breaking
		// the pair, and arrivals land at actual arrival time so a reordering
		// fabric is observable. Local send completions still drain in post
		// order — the NIC reports its own work FIFO either way.
		q.local.net.cluster.TransferFrameOn(&q.lane, src, dst, float64(e.wr.buf.Len), e.frameLanded)
		return
	}
	q.local.net.cluster.TransferOn(&q.lane, src, dst, float64(e.wr.buf.Len), e.landed)
}

func (q *queuePair) onFrameLanded(e *sendEntry, o simnet.Outcome) {
	if q.broken {
		return
	}
	if o == simnet.OutcomeBroken {
		q.breakBoth()
		return
	}
	e.done = true
	switch {
	case o == simnet.OutcomeLost:
		e.lost = true
	case q.remote == nil || q.remote.broken:
		// A frame into a torn-down peer vanishes; drainFlight
		// surfaces the breakage when this entry reaches the head.
		e.lost = true
	default:
		q.remote.onArrival(arrivalOf(&e.wr), e.wr.data)
	}
	q.drainFlight()
}

func (q *queuePair) onLanded(e *sendEntry, broken bool) {
	if q.broken {
		return
	}
	if broken {
		q.breakBoth()
		return
	}
	e.done = true
	q.drainFlight()
}

func arrivalOf(wr *sendWR) arrival {
	return arrival{
		bytes:  wr.buf.Len,
		imm:    wr.imm,
		data:   wr.buf.Data,
		write:  wr.write,
		region: wr.region,
		offset: wr.offset,
	}
}

// drainFlight delivers finished flows in post order: completion to the local
// node, arrival to the remote, oldest entry first. A flow that landed
// ahead of an unfinished predecessor waits in the reorder buffer. Delivering
// into a peer endpoint that was closed unilaterally breaks this end instead —
// the RC behavior when retries against a torn-down QP exhaust — so a sender
// learns its peer is gone the same way it would on the TCP transport.
func (q *queuePair) drainFlight() {
	for !q.broken && q.flight.len() > 0 && (*q.flight.at(0)).done {
		if q.remote != nil && q.remote.broken {
			q.breakConn()
			return
		}
		e := q.flight.pop()
		wr := e.wr
		*e = sendEntry{start: e.start, landed: e.landed, frameLanded: e.frameLanded, next: q.spare}
		q.spare = e
		op := rdma.OpSend
		if wr.write {
			op = rdma.OpWrite
		}
		q.local.Complete(rdma.Completion{
			Op:     op,
			Status: rdma.StatusOK,
			Peer:   q.peer,
			Token:  q.token,
			WRID:   wr.wrID,
			Bytes:  wr.buf.Len,
		})
		if q.tolerant {
			// The arrival (if the fabric delivered it) already landed at
			// flow-completion time; lost frames produce no arrival at all.
			continue
		}
		q.remote.onArrival(arrivalOf(&wr), wr.data)
	}
}

func (q *queuePair) onArrival(a arrival, writeData []byte) {
	if q.broken {
		return
	}
	if a.write {
		if err := q.local.ApplyWrite(a.region, a.offset, a.bytes, writeData); err != nil {
			q.breakBoth()
		}
		return
	}
	if q.recvs.len() == 0 {
		q.arrivals.push(a)
		return
	}
	q.completeRecv(q.recvs.pop(), a)
}

func (q *queuePair) completeRecv(wr recvWR, a arrival) {
	c := rdma.Completion{
		Op:     rdma.OpRecv,
		Status: rdma.StatusOK,
		Peer:   q.peer,
		Token:  q.token,
		WRID:   wr.wrID,
		Imm:    a.imm,
		Bytes:  a.bytes,
	}
	if a.data != nil && wr.buf.Data != nil {
		if len(wr.buf.Data) < len(a.data) {
			q.breakBoth()
			return
		}
		copy(wr.buf.Data, a.data)
		c.Data = wr.buf.Data[:len(a.data)]
	}
	q.local.Complete(c)
}

// breakBoth fails this endpoint and, when paired, its remote.
func (q *queuePair) breakBoth() {
	q.breakConn()
	if q.remote != nil {
		q.remote.breakConn()
	}
}

// breakConn fails every outstanding work request on this endpoint, launched
// entries first (post order), then unlaunched sends.
func (q *queuePair) breakConn() {
	if q.broken {
		return
	}
	q.broken = true
	// Completions are delivered through the CQ's submit hook, never from
	// inside Complete, so draining the queues while failing them is safe.
	for q.flight.len() > 0 {
		q.failSend(q.flight.pop().wr)
	}
	for q.pending.len() > 0 {
		q.failSend(q.pending.pop())
	}
	for q.recvs.len() > 0 {
		q.local.Complete(rdma.Completion{
			Op:     rdma.OpRecv,
			Status: rdma.StatusBroken,
			Peer:   q.peer,
			Token:  q.token,
			WRID:   q.recvs.pop().wrID,
		})
	}
}

func (q *queuePair) failSend(wr sendWR) {
	op := rdma.OpSend
	if wr.write {
		op = rdma.OpWrite
	}
	q.local.Complete(rdma.Completion{
		Op:     op,
		Status: rdma.StatusBroken,
		Peer:   q.peer,
		Token:  q.token,
		WRID:   wr.wrID,
	})
}

// fifo is a queue of values in a ring buffer that grows to the queue's peak
// depth and is then reused: a push allocates nothing, and a pop frees its
// slot instead of re-slicing the head away.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (f *fifo[T]) len() int { return f.n }

// at returns the i-th queued value, the head being 0.
func (f *fifo[T]) at(i int) *T { return &f.buf[(f.head+i)%len(f.buf)] }

func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		buf := make([]T, max(1, 2*len(f.buf)))
		for i := 0; i < f.n; i++ {
			buf[i] = *f.at(i)
		}
		f.buf, f.head = buf, 0
	}
	*f.at(f.n) = v
	f.n++
}

func (f *fifo[T]) pop() T {
	p := &f.buf[f.head]
	v := *p
	var zero T
	*p = zero
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	return v
}
