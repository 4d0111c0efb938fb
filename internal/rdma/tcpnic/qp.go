package tcpnic

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"rdmc/internal/rdma"
	"rdmc/internal/rdma/nicbase"
)

// frame header layout: type(1) virtual(1) imm(4) aux(8) length(4).
// For data frames aux is unused; for write frames aux packs the region id
// (high 32 bits) and offset (low 32 bits). virtual=1 marks a metadata-only
// payload that is not carried on the wire.
const headerLen = 18

const idleWRID = ^uint64(0) // the WRID of an idle queue pair's break event

// The submission rings. Work requests land in bounded rings (the io_uring
// shape: power-of-two storage, free-running head/tail indices masked on
// access): posting is a slot store, the writer selects a whole run of
// queued sends per pass, and a full ring exerts backpressure by blocking the
// poster — the transport-side analogue of a NIC send queue running out of
// WQEs. Storage starts at ringInitial slots and doubles on demand up to the
// capacity, so a queue pair that posts little keeps little.
const (
	sendRingCap = 256
	recvRingCap = 256
	ringInitial = 8
)

// at returns the slot of free-running index i in power-of-two ring storage.
func at[T any](ring []T, i uint64) *T { return &ring[i&uint64(len(ring)-1)] }

// grow doubles ring storage (or allocates the initial storage), re-homing
// the queued entries [head, tail) at their indices masked by the new size.
func grow[T any](ring []T, head, tail uint64) []T {
	grown := make([]T, max(ringInitial, 2*len(ring)))
	for i := head; i != tail; i++ {
		*at(grown, i) = *at(ring, i)
	}
	return grown
}

// sendWR references the caller's memory zero-copy: the payload is not
// staged, and the buffer remains owned by the provider until the send
// completion fires (see the ownership contract on rdma.QueuePair).
type sendWR struct {
	data   []byte // caller's payload; nil marks a virtual (metadata-only) frame
	length int
	imm    uint32
	wrID   uint64
	write  bool
	region rdma.RegionID
	offset int
}

type recvWR struct {
	buf  rdma.Buffer
	wrID uint64
}

type arrival struct {
	imm     uint32
	length  int
	payload []byte // nil for virtual frames
	pooled  bool   // payload came from the provider's buffer pool
}

// queuePair is one TCP-backed reliable connection endpoint.
type queuePair struct {
	p     *Provider
	peer  rdma.NodeID
	token uint64

	mu   sync.Mutex
	cond *sync.Cond
	conn net.Conn

	// Send submission ring. Slots in [sendHead, sendTail) are queued and
	// immutable: posters fill free slots at the tail, only the writer
	// advances the head (after its writev), and growth copies entries into
	// new storage, so the writer may read a queued run from the storage it
	// saw under the lock while the writev runs without it.
	sends    []sendWR
	sendHead uint64
	sendTail uint64

	// Receive ring, same discipline; the reader is the only consumer. The
	// ring and arrivals are never both non-empty: a posted receive takes the
	// oldest arrival first, and an arrival only waits while no receive is
	// posted.
	recvs    []recvWR
	recvHead uint64
	recvTail uint64

	arrivals []arrival
	broken   bool
}

var _ rdma.QueuePair = (*queuePair)(nil)

func newQueuePair(p *Provider, peer rdma.NodeID, token uint64) *queuePair {
	qp := &queuePair{p: p, peer: peer, token: token}
	qp.cond = sync.NewCond(&qp.mu)
	return qp
}

// Peer implements rdma.QueuePair.
func (q *queuePair) Peer() rdma.NodeID { return q.peer }

// Token implements rdma.QueuePair.
func (q *queuePair) Token() uint64 { return q.token }

// PostSend implements rdma.QueuePair. The payload is referenced, not
// copied: buf stays owned by the provider until the send completion.
func (q *queuePair) PostSend(buf rdma.Buffer, imm uint32, wrID uint64) error {
	return q.enqueue(sendWR{data: buf.Data, length: buf.Len, imm: imm, wrID: wrID})
}

// PostWrite implements rdma.QueuePair. Like PostSend it references the
// caller's memory zero-copy — no pooled staging copy, no shadow buffer —
// so data must stay untouched until the write completion fires.
func (q *queuePair) PostWrite(region rdma.RegionID, offset int, data []byte, wrID uint64) error {
	return q.enqueue(sendWR{
		write:  true,
		region: region,
		offset: offset,
		data:   data,
		length: len(data),
		wrID:   wrID,
	})
}

func (q *queuePair) enqueue(wr sendWR) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.sendTail-q.sendHead == sendRingCap && !q.broken {
		q.cond.Wait()
	}
	if q.broken {
		return rdma.ErrBroken
	}
	if err := q.p.CheckPost(); err != nil {
		return err
	}
	if q.sendTail-q.sendHead == uint64(len(q.sends)) {
		q.sends = grow(q.sends, q.sendHead, q.sendTail)
	}
	*at(q.sends, q.sendTail) = wr
	q.sendTail++
	q.cond.Broadcast()
	return nil
}

// PostRecv implements rdma.QueuePair.
func (q *queuePair) PostRecv(buf rdma.Buffer, wrID uint64) error {
	q.mu.Lock()
	if q.broken {
		q.mu.Unlock()
		return rdma.ErrBroken
	}
	if err := q.p.CheckPost(); err != nil {
		q.mu.Unlock()
		return err
	}
	for {
		if len(q.arrivals) > 0 {
			a := q.arrivals[0]
			q.arrivals = q.arrivals[1:]
			q.mu.Unlock()
			if err := q.completeRecv(recvWR{buf: buf, wrID: wrID}, a); err != nil {
				q.fail(true)
				return err
			}
			return nil
		}
		if q.recvTail-q.recvHead < recvRingCap {
			break
		}
		q.cond.Wait()
		if q.broken {
			q.mu.Unlock()
			return rdma.ErrBroken
		}
	}
	if q.recvTail-q.recvHead == uint64(len(q.recvs)) {
		q.recvs = grow(q.recvs, q.recvHead, q.recvTail)
	}
	*at(q.recvs, q.recvTail) = recvWR{buf: buf, wrID: wrID}
	q.recvTail++
	q.mu.Unlock()
	return nil
}

// Close implements rdma.QueuePair: the connection breaks and the queue pair
// leaves the provider's table. Outstanding work completes with StatusBroken,
// but an idle pair raises no event and withdraws one still queued: its
// owner closed it and already knows.
func (q *queuePair) Close() error {
	q.fail(false)
	key := nicbase.QPKey{Peer: q.peer, Token: q.token}
	q.p.idle.CompareAndDelete(key, q)
	q.p.RemoveQP(key, q)
	return nil
}

// dial establishes the connection from the higher-id side, retrying briefly
// to ride out listener startup races.
func (q *queuePair) dial(addr string) {
	var (
		conn net.Conn
		err  error
	)
	for attempt := 0; attempt < 5; attempt++ {
		q.mu.Lock()
		dead := q.broken
		q.mu.Unlock()
		if dead {
			return
		}
		conn, err = net.DialTimeout("tcp", addr, 2*time.Second)
		if err == nil {
			break
		}
		time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
	}
	if err != nil {
		q.fail(true)
		return
	}
	var hs [12]byte
	binary.BigEndian.PutUint32(hs[0:4], uint32(q.p.NodeID()))
	binary.BigEndian.PutUint64(hs[4:12], q.token)
	if _, err := conn.Write(hs[:]); err != nil {
		_ = conn.Close()
		q.fail(true)
		return
	}
	q.attach(conn)
}

// attach binds the live connection and starts the reader and writer loops.
// Go enables TCP_NODELAY on every TCP connection, so the 18-byte frame
// headers never wait in Nagle's buffer behind a block payload.
func (q *queuePair) attach(conn net.Conn) {
	q.mu.Lock()
	if q.broken || q.conn != nil {
		q.mu.Unlock()
		_ = conn.Close()
		return
	}
	q.conn = conn
	q.cond.Broadcast()
	q.mu.Unlock()

	q.p.wg.Add(2)
	go func() {
		defer q.p.wg.Done()
		q.writer(conn)
	}()
	go func() {
		defer q.p.wg.Done()
		q.reader(conn)
	}()
}

// maxCoalesceBytes bounds the payload one vectored write carries. The frame
// count is ring-sized — the writer folds everything queued into one writev —
// but the byte cap keeps large blocks going out one or two at a time:
// measured on loopback, writev bursts past a few hundred KB stall in the
// kernel's socket-buffer accounting and cost more than the saved syscalls.
const maxCoalesceBytes = 256 << 10

// writer drains the send ring in FIFO order, coalescing a whole queued run
// (bounded in bytes, up to the full ring in frames) into a single vectored
// write: headers and payloads interleave in one writev, so a full send
// window of blocks costs one syscall instead of one per block. The run's
// completions retire through one batched CQ operation. Header, vector and
// completion storage grows to the longest run written and is reused across
// batches, so steady-state writing allocates nothing, and a queue pair that
// sends little or nothing keeps next to no writer memory.
func (q *queuePair) writer(conn net.Conn) {
	defer q.clearSends()
	var (
		hdrs  [][headerLen]byte
		vec   = &writerVec{}
		comps []rdma.Completion
	)
	for {
		q.mu.Lock()
		for q.sendHead == q.sendTail && !q.broken {
			q.cond.Wait()
		}
		if q.broken {
			q.mu.Unlock()
			return
		}
		head, sends := q.sendHead, q.sends
		avail := int(q.sendTail - head)
		n, bytes := 1, at(sends, head).length
		for n < avail {
			next := at(sends, head+uint64(n)).length
			if bytes+next > maxCoalesceBytes {
				break
			}
			bytes += next
			n++
		}
		q.mu.Unlock()

		if n > len(hdrs) {
			hdrs = make([][headerLen]byte, min(max(n, 2*len(hdrs)), sendRingCap))
		}
		q.p.obsCoalesce.Observe(int64(n))
		zc, err := writeFrames(conn, sends, head, n, hdrs, vec)
		if err != nil {
			q.fail(true)
			return
		}
		q.p.obsZeroCopy.Add(zc)

		q.mu.Lock()
		if q.broken {
			// fail already completed these entries with StatusBroken.
			q.mu.Unlock()
			return
		}
		comps = comps[:0]
		for i := 0; i < n; i++ {
			wr := at(q.sends, head+uint64(i))
			op := rdma.OpSend
			if wr.write {
				op = rdma.OpWrite
			}
			comps = append(comps, rdma.Completion{
				Op:     op,
				Status: rdma.StatusOK,
				Peer:   q.peer,
				Token:  q.token,
				WRID:   wr.wrID,
				Bytes:  wr.length,
			})
			*wr = sendWR{}
		}
		q.sendHead = head + uint64(n)
		q.cond.Broadcast()
		q.mu.Unlock()

		q.p.CompleteBatch(comps)
	}
}

// clearSends drops the payload references still queued when the writer
// exits, so a broken queue pair does not pin its callers' buffers until the
// provider itself is released. The writer is the only unlocked reader of
// ring slots, so clearing under the lock after it stops is safe.
func (q *queuePair) clearSends() {
	q.mu.Lock()
	for i := q.sendHead; i != q.sendTail; i++ {
		*at(q.sends, i) = sendWR{}
	}
	q.mu.Unlock()
}

// writerVec owns the writer's scatter list across wakeups. WriteTo has a
// pointer receiver (it consumes the vector in place as segments drain), so
// calling it on a stack-local net.Buffers makes the slice header escape —
// one heap allocation per writev. Keeping the consumable view as a field of
// this heap-resident struct, with base retaining the backing array for
// rebuilds and clearing, pins the steady-state writer at zero allocations.
type writerVec struct {
	base net.Buffers // full backing array, reused per wakeup
	view net.Buffers // the consumable slice WriteTo advances
}

// writeFrames emits entries [head, head+n) of the send ring storage sends in
// one vectored write and returns how many frames carried a zero-copy payload
// reference. Entries stay queued in the ring while the writev runs — slots
// in [sendHead, sendTail) are immutable once posted, growth leaves the old
// storage as it was, and the head only advances after this call returns —
// so fail can still complete them exactly once.
// net.Buffers consumes the vector in place as segments drain, so the vector
// is rebuilt (and its entries cleared for the garbage collector) per call.
func writeFrames(conn net.Conn, sends []sendWR, head uint64, n int, hdrs [][headerLen]byte, vec *writerVec) (uint64, error) {
	bufs := vec.base[:0]
	var zc uint64
	for i := 0; i < n; i++ {
		wr := at(sends, head+uint64(i))
		hdr := &hdrs[i]
		kind := byte(frameData)
		if wr.write {
			kind = frameWrite
			binary.BigEndian.PutUint64(hdr[6:14], uint64(wr.region)<<32|uint64(uint32(wr.offset)))
		} else {
			binary.BigEndian.PutUint64(hdr[6:14], 0)
		}
		virtual := byte(0)
		if wr.data == nil {
			virtual = 1
		}
		hdr[0] = kind
		hdr[1] = virtual
		binary.BigEndian.PutUint32(hdr[2:6], wr.imm)
		binary.BigEndian.PutUint32(hdr[14:18], uint32(wr.length))
		bufs = append(bufs, hdr[:])
		if virtual == 0 && wr.length > 0 {
			bufs = append(bufs, wr.data[:wr.length])
			zc++
		}
	}
	vec.base = bufs
	vec.view = bufs
	_, err := vec.view.WriteTo(conn)
	vec.view = nil
	bufs = vec.base[:cap(vec.base)]
	for i := range bufs {
		bufs[i] = nil
	}
	vec.base = bufs[:0]
	return zc, err
}

// errBadFrame reports a frame header no writer produces.
var errBadFrame = errors.New("tcpnic: malformed frame header")

// frameReader decodes the inbound frame stream one frame at a time: the
// header, then the payload routed by kind — straight into the oldest posted
// receive, into a staging buffer for an early arrival, or into a pooled
// buffer for a one-sided write. Frames sit back to back on the stream, so
// the bytes after a payload are always the next frame's header: on Linux
// every payload read is a two-segment readv whose second segment is hdr, and
// whatever part of the next header the socket already holds arrives in the
// same syscall. readHeader then reads only the bytes still missing, so a
// pipelined run of frames costs one read per frame instead of two.
type frameReader struct {
	q    *queuePair
	conn net.Conn
	vr   *vectorReader // nil off Linux and for connections without an fd
	hdr  [headerLen]byte
	have int // bytes of the next header already in hdr
}

// reader decodes frames until the connection fails, then breaks the queue
// pair.
func (q *queuePair) reader(conn net.Conn) {
	fr := frameReader{q: q, conn: conn, vr: newVectorReader(conn)}
	for fr.frame() == nil {
	}
	q.fail(true)
}

// readHeader completes the next frame header, reading only the bytes the
// previous payload read did not already bring in.
func (fr *frameReader) readHeader() error {
	if fr.have < headerLen {
		if _, err := io.ReadFull(fr.conn, fr.hdr[fr.have:]); err != nil {
			return err
		}
	}
	fr.have = 0
	return nil
}

// readPayload fills p. Through the vector reader, the read that completes p
// runs on into hdr, which is free by then: the current header has been
// decoded.
func (fr *frameReader) readPayload(p []byte) error {
	if fr.vr == nil {
		_, err := io.ReadFull(fr.conn, p)
		return err
	}
	for len(p) > 0 {
		n, err := fr.vr.readv(p, fr.hdr[:])
		if err != nil {
			return err
		}
		if n >= len(p) {
			fr.have = n - len(p)
			return nil
		}
		p = p[n:]
	}
	return nil
}

// frame decodes one frame. Any error is fatal to the connection.
func (fr *frameReader) frame() error {
	if err := fr.readHeader(); err != nil {
		return err
	}
	var (
		kind    = fr.hdr[0]
		virtual = fr.hdr[1] == 1
		imm     = binary.BigEndian.Uint32(fr.hdr[2:6])
		aux     = binary.BigEndian.Uint64(fr.hdr[6:14])
		length  = int(binary.BigEndian.Uint32(fr.hdr[14:18]))
	)
	switch {
	case length < 0 || length > maxFrame:
		return errBadFrame
	case kind == frameWrite:
		return fr.applyWrite(aux, length, virtual)
	case kind == frameData:
		return fr.deliver(arrival{imm: imm, length: length}, virtual)
	default:
		return errBadFrame
	}
}

// deliver lands a data frame. With a receive posted, the payload reads
// straight into its buffer — no staging, no copy. Otherwise the frame is an
// early arrival: it stages in a pooled buffer and pays one copy when its
// receive is posted.
// A receive stays at the head of the ring until its payload is in, so a
// break mid-frame leaves it to fail, which completes it with StatusBroken
// ahead of the receives behind it — after closing the socket, which waits
// out a read in progress, so the reader is done with the buffer.
func (fr *frameReader) deliver(a arrival, virtual bool) error {
	q := fr.q
	if wr, ok := q.headRecv(); ok {
		if !virtual {
			if wr.buf.Data == nil || len(wr.buf.Data) < a.length {
				return rdma.ErrBufferTooSmall // no place to put real bytes
			}
			if err := fr.readPayload(wr.buf.Data[:a.length]); err != nil {
				return err
			}
			a.payload = wr.buf.Data[:a.length]
			q.p.obsDirect.Inc()
		}
		if _, ok := q.takeRecv(nil); !ok {
			return rdma.ErrBroken // fail has completed the receive
		}
		return q.completeRecv(wr, a)
	}
	if !virtual {
		a.payload, a.pooled = q.p.Pool().Get(a.length), true
		if err := fr.readPayload(a.payload); err != nil {
			q.p.Pool().Put(a.payload)
			return err
		}
		q.p.obsStaged.Inc()
		q.p.obsStagedBytes.Add(uint64(a.length))
	}
	// A receive posted while the payload was read found no arrival to take
	// and joined the ring: it is the one this frame belongs to.
	if wr, ok := q.takeRecv(&a); ok {
		return q.completeRecv(wr, a)
	}
	return nil
}

// headRecv returns the oldest posted receive without taking it. Only the
// reader takes receives, so until it does, only fail can remove this one.
func (q *queuePair) headRecv() (wr recvWR, ok bool) {
	q.mu.Lock()
	if ok = q.recvHead != q.recvTail; ok {
		wr = *at(q.recvs, q.recvHead)
	}
	q.mu.Unlock()
	return wr, ok
}

// takeRecv pops the oldest posted receive. When none is posted and park is
// non-nil, *park joins the arrivals under the same lock, so the next
// PostRecv takes it and FIFO order holds.
func (q *queuePair) takeRecv(park *arrival) (recvWR, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.recvHead == q.recvTail {
		if park != nil {
			q.arrivals = append(q.arrivals, *park)
		}
		return recvWR{}, false
	}
	slot := at(q.recvs, q.recvHead)
	wr := *slot
	*slot = recvWR{}
	q.recvHead++
	q.cond.Broadcast()
	return wr, true
}

func (fr *frameReader) applyWrite(aux uint64, length int, virtual bool) error {
	q := fr.q
	region := rdma.RegionID(aux >> 32)
	offset := int(uint32(aux))
	var payload []byte
	if !virtual {
		payload = q.p.Pool().Get(length)
		if err := fr.readPayload(payload); err != nil {
			q.p.Pool().Put(payload)
			return err
		}
	}
	// The landing takes the buffer over and recycles it once applied.
	return q.p.ApplyPooledWrite(region, offset, length, payload)
}

func (q *queuePair) completeRecv(wr recvWR, a arrival) error {
	if a.payload != nil && wr.buf.Data != nil && a.length > 0 {
		if len(wr.buf.Data) < a.length {
			return rdma.ErrBufferTooSmall
		}
		if &wr.buf.Data[0] != &a.payload[0] {
			copy(wr.buf.Data, a.payload)
		}
	}
	c := rdma.Completion{
		Op:     rdma.OpRecv,
		Status: rdma.StatusOK,
		Peer:   q.peer,
		Token:  q.token,
		WRID:   wr.wrID,
		Imm:    a.imm,
		Bytes:  a.length,
	}
	if a.payload != nil && wr.buf.Data != nil {
		c.Data = wr.buf.Data[:a.length]
	}
	if a.pooled {
		q.p.Pool().Put(a.payload)
	}
	q.p.Complete(c)
	return nil
}

// fail breaks the endpoint: outstanding work requests complete with
// StatusBroken (in one batched CQ operation) and the connection closes.
// peerGone marks a break the owner did not ask for; only then does an idle
// endpoint raise an event.
func (q *queuePair) fail(peerGone bool) {
	q.mu.Lock()
	if q.broken {
		q.mu.Unlock()
		return
	}
	q.broken = true
	conn := q.conn
	var broken []rdma.Completion
	for i := q.sendHead; i != q.sendTail; i++ {
		wr := at(q.sends, i)
		op := rdma.OpSend
		if wr.write {
			op = rdma.OpWrite
		}
		broken = append(broken, rdma.Completion{
			Op: op, Status: rdma.StatusBroken, Peer: q.peer, Token: q.token, WRID: wr.wrID,
		})
	}
	for i := q.recvHead; i != q.recvTail; i++ {
		wr := at(q.recvs, i)
		broken = append(broken, rdma.Completion{
			Op: rdma.OpRecv, Status: rdma.StatusBroken, Peer: q.peer, Token: q.token, WRID: wr.wrID,
		})
		*wr = recvWR{}
	}
	q.recvHead = q.recvTail
	if len(broken) == 0 && peerGone {
		// An idle endpoint breaking flushes no work, but the layer above
		// must still learn the peer is gone, or a group gated on its
		// readiness credit would wait forever. Like the async event a NIC
		// raises when a queue pair enters the error state, the completion
		// below carries the endpoint identity and no work request. A local
		// Close raises none and withdraws one still queued (Provider.live):
		// the owner knows, and the event would reach whoever reuses the
		// identity. It is raised under the lock, so Close cannot miss it.
		q.p.idle.Store(nicbase.QPKey{Peer: q.peer, Token: q.token}, q)
		broken = append(broken, rdma.Completion{
			Op: rdma.OpRecv, Status: rdma.StatusBroken, Peer: q.peer, Token: q.token, WRID: idleWRID,
		})
	}
	if conn == nil {
		// No connection ⇒ no writer was ever started (attach refuses once
		// broken), so nothing reads the send ring without the lock.
		for i := q.sendHead; i != q.sendTail; i++ {
			*at(q.sends, i) = sendWR{}
		}
	}
	// Otherwise the send ring is left for the writer to clear: it may be
	// reading the queued run without the lock mid-writev.
	q.cond.Broadcast()
	q.mu.Unlock()

	if conn != nil {
		_ = conn.Close()
	}
	q.p.CompleteBatch(broken)
}
