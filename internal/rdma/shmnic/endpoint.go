package shmnic

import (
	"rdmc/internal/rdma"
	"rdmc/internal/rdma/nicbase"
)

// endpoint is one half of an intra-host queue pair. All mutable state is
// guarded by the pair's lock, which both halves share; posts deliver
// synchronously into the peer half while the lock is held, and the side
// effects bound for a completion queue — completions and region writes —
// are collected in an effects set and run after the lock drops.
type endpoint struct {
	x     *Exchange
	p     *pair
	h     Host
	peer  rdma.NodeID
	token uint64

	// Guarded by p.mu.
	remote   *endpoint
	pending  []outWR // posts queued before the halves paired, FIFO
	recvs    fifo[recvWR]
	arrivals fifo[arrival]
	broken   bool
}

// fifo is a slice-backed queue that recycles its backing array: popping
// advances a head index instead of re-slicing (which shrinks capacity and
// forces a reallocation every few push/pop cycles), so the steady-state
// post/match churn stops allocating once the array reaches its high-water
// mark. Popped and compacted-over slots are zeroed to drop buffer
// references.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		var zero T
		n := copy(f.buf, f.buf[f.head:])
		for i := n; i < len(f.buf); i++ {
			f.buf[i] = zero
		}
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

func (f *fifo[T]) peek() T { return f.buf[f.head] }

func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v
}

var _ rdma.QueuePair = (*endpoint)(nil)

type outWR struct {
	write  bool
	buf    rdma.Buffer // sends
	imm    uint32
	region rdma.RegionID // writes
	offset int
	data   []byte
	wrID   uint64
}

type recvWR struct {
	buf  rdma.Buffer
	wrID uint64
}

// arrival is a send that reached this endpoint before a receive was posted.
// Real payloads are staged by copy through the host's pool: the sender's
// completion has already fired, so the sender owns its buffer again.
type arrival struct {
	data   []byte
	pooled bool
	imm    uint32
	bytes  int
}

// emit is one completion bound for a host's completion queue.
type emit struct {
	h Host
	c rdma.Completion
}

// apply is one one-sided write bound for a host's registered region. The
// payload is the poster's slice: applies run before completions, and
// ApplyWrite copies it before returning, so the poster cannot observe the
// write completion and reuse the buffer before its bytes are captured.
type apply struct {
	src    *endpoint
	h      Host
	region rdma.RegionID
	offset int
	length int
	data   []byte
}

// effects accumulates the provider re-entrant side effects of a locked
// state transition. Instances cycle through their pair's free list — the
// struct is handed across non-inlined calls and self-references its slices,
// so a stack instance would escape and cost an allocation per post, and a
// sync.Pool may drop what it is handed (the race detector drops a quarter
// on purpose); the free list keeps the steady-state data plane
// allocation-free in every build.
type effects struct {
	p       *pair
	comps   []emit
	applies []apply
}

// effectsLocked takes a free effects set or makes one. The caller holds
// p.mu.
func (p *pair) effectsLocked() *effects {
	if n := len(p.free); n > 0 {
		fx := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return fx
	}
	return &effects{p: p}
}

func (fx *effects) complete(e *endpoint, c rdma.Completion) {
	c.Peer, c.Token = e.peer, e.token
	fx.comps = append(fx.comps, emit{h: e.h, c: c})
}

// run executes the collected side effects with no locks held: region writes
// first (mirroring the hardware, where the write lands before its completion
// is observable), completions second; the target's dispatcher runs the
// watcher. A write that misses its target region breaks the pair, exactly
// as a real NIC fails the connection on an invalid remote access. fx
// returns to its pair's free list; it must not be used after run.
func (fx *effects) run() {
	for _, a := range fx.applies {
		if err := a.h.ApplyWrite(a.region, a.offset, a.length, a.data); err != nil {
			a.src.breakBoth()
		}
	}
	for _, e := range fx.comps {
		e.h.Complete(e.c)
	}
	for i := range fx.comps {
		fx.comps[i] = emit{}
	}
	for i := range fx.applies {
		fx.applies[i] = apply{}
	}
	fx.comps, fx.applies = fx.comps[:0], fx.applies[:0]
	p := fx.p
	p.mu.Lock()
	p.free = append(p.free, fx)
	p.mu.Unlock()
}

// Peer implements rdma.QueuePair.
func (e *endpoint) Peer() rdma.NodeID { return e.peer }

// Token implements rdma.QueuePair.
func (e *endpoint) Token() uint64 { return e.token }

// PostSend implements rdma.QueuePair.
func (e *endpoint) PostSend(buf rdma.Buffer, imm uint32, wrID uint64) error {
	return e.post(outWR{buf: buf, imm: imm, wrID: wrID})
}

// PostWrite implements rdma.QueuePair.
func (e *endpoint) PostWrite(region rdma.RegionID, offset int, data []byte, wrID uint64) error {
	return e.post(outWR{write: true, region: region, offset: offset, data: data, wrID: wrID})
}

func (e *endpoint) post(wr outWR) error {
	e.p.mu.Lock()
	if e.broken {
		e.p.mu.Unlock()
		return rdma.ErrBroken
	}
	if err := e.h.CheckPost(); err != nil {
		e.p.mu.Unlock()
		return err
	}
	if e.remote == nil {
		e.pending = append(e.pending, wr)
		e.p.mu.Unlock()
		return nil
	}
	fx := e.p.effectsLocked()
	e.deliverLocked(wr, fx)
	e.p.mu.Unlock()
	fx.run()
	return nil
}

// PostRecv implements rdma.QueuePair.
func (e *endpoint) PostRecv(buf rdma.Buffer, wrID uint64) error {
	e.p.mu.Lock()
	if e.broken {
		e.p.mu.Unlock()
		return rdma.ErrBroken
	}
	if err := e.h.CheckPost(); err != nil {
		e.p.mu.Unlock()
		return err
	}
	if e.arrivals.len() > 0 {
		fx := e.p.effectsLocked()
		a := e.arrivals.peek()
		if a.data != nil && buf.Data != nil && len(buf.Data) < len(a.data) {
			e.breakBothLocked(fx)
			e.p.mu.Unlock()
			fx.run()
			return rdma.ErrBufferTooSmall
		}
		e.arrivals.pop()
		e.completeRecvLocked(recvWR{buf: buf, wrID: wrID}, a.data, a.imm, a.bytes, fx)
		if a.pooled {
			e.h.Pool().Put(a.data)
		}
		e.p.mu.Unlock()
		fx.run()
		return nil
	}
	e.recvs.push(recvWR{buf: buf, wrID: wrID})
	e.p.mu.Unlock()
	return nil
}

// Close implements rdma.QueuePair: both halves break and every outstanding
// work request on either side completes with StatusBroken. The half then
// leaves its host's table and its pair record.
func (e *endpoint) Close() error {
	e.breakBoth()
	e.h.RemoveQP(nicbase.QPKey{Peer: e.peer, Token: e.token}, e)
	e.x.leave(e)
	return nil
}

func (e *endpoint) breakBoth() {
	e.p.mu.Lock()
	fx := e.p.effectsLocked()
	e.breakBothLocked(fx)
	e.p.mu.Unlock()
	fx.run()
}

// deliverLocked moves one work request into the paired half: writes become
// deferred region applies; sends match the peer's oldest posted receive (one
// copy, posted buffer to posted buffer) or stage through the peer's pool.
// The send or write completion fires unconditionally — acceptance, like a
// NIC reporting DMA-done once the payload left the source buffer.
func (e *endpoint) deliverLocked(wr outWR, fx *effects) {
	r := e.remote
	if wr.write {
		fx.applies = append(fx.applies, apply{
			src: e, h: r.h,
			region: wr.region, offset: wr.offset, length: len(wr.data), data: wr.data,
		})
		fx.complete(e, rdma.Completion{Op: rdma.OpWrite, Status: rdma.StatusOK, WRID: wr.wrID, Bytes: len(wr.data)})
		return
	}
	fx.complete(e, rdma.Completion{Op: rdma.OpSend, Status: rdma.StatusOK, WRID: wr.wrID, Bytes: wr.buf.Len})
	var payload []byte
	if wr.buf.Data != nil {
		payload = wr.buf.Data[:wr.buf.Len]
	}
	if r.recvs.len() > 0 {
		r.completeRecvLocked(r.recvs.pop(), payload, wr.imm, wr.buf.Len, fx)
		return
	}
	a := arrival{imm: wr.imm, bytes: wr.buf.Len}
	if payload != nil {
		st := r.h.Pool().Get(len(payload))
		copy(st, payload)
		a.data = st[:len(payload)]
		a.pooled = true
	}
	r.arrivals.push(a)
}

// completeRecvLocked lands a payload in a matched receive. A posted buffer
// too small for real arriving bytes breaks the pair — the receive never
// completes, matching the simulated and socket transports.
func (r *endpoint) completeRecvLocked(rv recvWR, payload []byte, imm uint32, bytes int, fx *effects) {
	c := rdma.Completion{Op: rdma.OpRecv, Status: rdma.StatusOK, WRID: rv.wrID, Imm: imm, Bytes: bytes}
	if payload != nil && rv.buf.Data != nil {
		if len(rv.buf.Data) < len(payload) {
			r.breakBothLocked(fx)
			return
		}
		copy(rv.buf.Data, payload)
		c.Data = rv.buf.Data[:len(payload)]
	}
	fx.complete(r, c)
}

// flushLocked delivers the posts queued before pairing, in post order. A
// delivery can break the pair mid-flush (undersized posted receive); the
// remainder then completes Broken, preserving exactly-once completion.
func (e *endpoint) flushLocked(fx *effects) {
	pend := e.pending
	e.pending = nil
	for _, wr := range pend {
		if e.broken {
			op := rdma.OpSend
			if wr.write {
				op = rdma.OpWrite
			}
			fx.complete(e, rdma.Completion{Op: op, Status: rdma.StatusBroken, WRID: wr.wrID})
			continue
		}
		e.deliverLocked(wr, fx)
	}
}

func (e *endpoint) breakBothLocked(fx *effects) {
	e.breakLocked(fx)
	if e.remote != nil {
		e.remote.breakLocked(fx)
	}
}

// breakLocked fails every outstanding work request on this half — queued
// posts in post order, then posted receives — and releases staged arrivals
// back to the pool.
func (e *endpoint) breakLocked(fx *effects) {
	if e.broken {
		return
	}
	e.broken = true
	for _, wr := range e.pending {
		op := rdma.OpSend
		if wr.write {
			op = rdma.OpWrite
		}
		fx.complete(e, rdma.Completion{Op: op, Status: rdma.StatusBroken, WRID: wr.wrID})
	}
	e.pending = nil
	for e.recvs.len() > 0 {
		rv := e.recvs.pop()
		fx.complete(e, rdma.Completion{Op: rdma.OpRecv, Status: rdma.StatusBroken, WRID: rv.wrID})
	}
	for e.arrivals.len() > 0 {
		a := e.arrivals.pop()
		if a.pooled {
			e.h.Pool().Put(a.data)
		}
	}
}
