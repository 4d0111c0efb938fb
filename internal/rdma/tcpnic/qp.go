package tcpnic

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
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

// The submission rings. Work requests land in fixed-capacity rings (the
// io_uring shape: power-of-two capacity, free-running head/tail indices
// masked on access) instead of growable queues: posting is a slot store,
// the writer selects a whole run of queued sends per pass, and a full ring
// exerts backpressure by blocking the poster — the transport-side analogue
// of a NIC send queue running out of WQEs.
const (
	sendRingCap = 256
	sendMask    = sendRingCap - 1
	recvRingCap = 256
	recvMask    = recvRingCap - 1
)

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
	// advances the head (after its writev), so the writer may read a queued
	// run without the lock while the writev runs.
	sends    [sendRingCap]sendWR
	sendHead uint64
	sendTail uint64

	// Receive ring, same discipline; the reader is the only consumer. The
	// reader may additionally hold one receive out on lease for its
	// speculative readv (leased reserves the slot's worth of capacity so
	// the lease can always be returned to the front).
	recvs    [recvRingCap]recvWR
	recvHead uint64
	recvTail uint64
	leased   int

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
	q.sends[q.sendTail&sendMask] = wr
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
				q.breakConn()
				return err
			}
			return nil
		}
		if int(q.recvTail-q.recvHead) < recvRingCap-q.leased {
			break
		}
		q.cond.Wait()
		if q.broken {
			q.mu.Unlock()
			return rdma.ErrBroken
		}
	}
	q.recvs[q.recvTail&recvMask] = recvWR{buf: buf, wrID: wrID}
	q.recvTail++
	q.mu.Unlock()
	return nil
}

// Close implements rdma.QueuePair: the connection breaks and the queue pair
// leaves the provider's table.
func (q *queuePair) Close() error {
	q.breakConn()
	q.p.RemoveQP(nicbase.QPKey{Peer: q.peer, Token: q.token}, q)
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
		q.breakConn()
		return
	}
	q.p.tuneConn(conn)
	var hs [12]byte
	binary.BigEndian.PutUint32(hs[0:4], uint32(q.p.NodeID()))
	binary.BigEndian.PutUint64(hs[4:12], q.token)
	if _, err := conn.Write(hs[:]); err != nil {
		_ = conn.Close()
		q.breakConn()
		return
	}
	q.attach(conn)
}

// attach binds the live connection and starts the reader and writer loops.
// The connection was tuned (TCP_NODELAY, socket buffers) on its dial or
// accept path before the handshake.
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
// completions retire through one batched CQ operation. Header and vector
// storage is reused across batches, so steady-state writing allocates
// nothing.
func (q *queuePair) writer(conn net.Conn) {
	defer q.clearSends()
	var (
		hdrs  = make([][headerLen]byte, sendRingCap)
		vec   = &writerVec{base: make(net.Buffers, 0, 2*sendRingCap)}
		comps = make([]rdma.Completion, 0, sendRingCap)
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
		head := q.sendHead
		avail := int(q.sendTail - head)
		n, bytes := 1, q.sends[head&sendMask].length
		for n < avail {
			next := q.sends[(head+uint64(n))&sendMask].length
			if bytes+next > maxCoalesceBytes {
				break
			}
			bytes += next
			n++
		}
		q.mu.Unlock()

		q.p.obsCoalesce.Observe(int64(n))
		zc, err := q.writeFrames(conn, head, n, hdrs, vec)
		if err != nil {
			q.breakConn()
			return
		}
		q.p.obsZeroCopy.Add(zc)

		q.mu.Lock()
		if q.broken {
			// breakConn already completed these entries with StatusBroken.
			q.mu.Unlock()
			return
		}
		comps = comps[:0]
		for i := 0; i < n; i++ {
			wr := &q.sends[(head+uint64(i))&sendMask]
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
		q.sends[i&sendMask] = sendWR{}
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

// writeFrames emits ring entries [head, head+n) in one vectored write and
// returns how many frames carried a zero-copy payload reference. Entries
// stay queued in the ring while the writev runs — slots in
// [sendHead, sendTail) are immutable once posted and the head only advances
// after this call returns — so breakConn can still fail them exactly once.
// net.Buffers consumes the vector in place as segments drain, so the vector
// is rebuilt (and its entries cleared for the garbage collector) per call.
func (q *queuePair) writeFrames(conn net.Conn, head uint64, n int, hdrs [][headerLen]byte, vec *writerVec) (uint64, error) {
	bufs := vec.base[:0]
	var zc uint64
	for i := 0; i < n; i++ {
		wr := &q.sends[(head+uint64(i))&sendMask]
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

// specMax bounds how many posted receives one speculative readv spans.
const specMax = 8

// frameReader decodes the inbound frame stream. Its distinguishing move is
// the speculative vectored read: when posted receives with real memory are
// waiting, the reader leases up to specMax of them and issues one readv
// whose scatter list interleaves frame headers and the receives' buffers —
// so a run of matched, buffer-filling data frames (the shape a pipelined
// send window produces) costs one syscall for the whole run instead of two
// per frame. The speculation bets that each frame is a data frame whose
// payload exactly fills its posted buffer; the bet is settled frame by
// frame, and at the first miss (a write frame, a virtual frame, a short
// payload) the bytes that landed past the consumed prefix spill into a
// pooled buffer that is consumed before the socket, and unconsumed leases
// return to the front of the ring. A leased buffer may have been scribbled
// by a mispredicted readv, which the ownership contract permits (contents
// are unspecified until the completion fires).
type frameReader struct {
	q    *queuePair
	conn net.Conn
	vr   *vectorReader
	hdr  [headerLen]byte

	// Speculation scratch, reused across readv calls.
	hdrs   [specMax][headerLen]byte
	segs   [2 * specMax][]byte
	leases [specMax]recvWR

	spill    []byte // pooled over-read bytes, consumed before the socket
	spillOff int
}

// reader decodes frames and matches them against posted receives.
func (q *queuePair) reader(conn net.Conn) {
	fr := frameReader{q: q, conn: conn, vr: newVectorReader(conn)}
	for fr.frame() {
	}
	if fr.spill != nil {
		q.p.pool.Put(fr.spill)
		fr.spill = nil
	}
}

// readFull fills p from the spill buffer first, then the socket.
func (fr *frameReader) readFull(p []byte) error {
	if fr.spill != nil {
		n := copy(p, fr.spill[fr.spillOff:])
		fr.spillOff += n
		if fr.spillOff == len(fr.spill) {
			fr.q.p.pool.Put(fr.spill)
			fr.spill, fr.spillOff = nil, 0
		}
		p = p[n:]
		if len(p) == 0 {
			return nil
		}
	}
	_, err := io.ReadFull(fr.conn, p)
	return err
}

// stashLayout parks un-consumed scatter-read bytes in the spill buffer: an
// optional replayed prefix (a decoded header the plain path must see again)
// followed by every byte the readv landed in [from, n) of the segment
// layout (header/buffer pairs, in lease order). Must run before any buffer
// the range covers is handed back through a completion. Only called when
// the spill is empty (speculation is gated on that).
func (fr *frameReader) stashLayout(prefix []byte, leases []recvWR, from, n int) {
	total := len(prefix)
	if n > from {
		total += n - from
	}
	if total == 0 {
		return
	}
	spill := fr.q.p.pool.Get(total)
	off := copy(spill, prefix)
	pos := 0
	for j := 0; j < len(leases) && pos < n; j++ {
		for _, seg := range [2][]byte{fr.hdrs[j][:], leases[j].buf.Data} {
			end := pos + len(seg)
			lo, hi := max(from, pos), min(n, end)
			if hi > lo {
				off += copy(spill[off:], seg[lo-pos:hi-pos])
			}
			pos = end
		}
	}
	fr.spill = spill[:off]
	fr.spillOff = 0
}

// frame processes one step of the inbound stream; false stops the reader
// loop. Leases taken for the speculative read are resolved on every path:
// completed on a match, returned to the ring on a mispredict, failed by the
// reader itself when the connection breaks (leases are invisible to
// breakConn).
func (fr *frameReader) frame() bool {
	if fr.vr != nil && fr.spill == nil {
		if nl := fr.q.leaseRecvs(&fr.leases); nl > 0 {
			return fr.specFrames(nl)
		}
		// An empty ring at this instant is usually a cadence artifact: the
		// engine reposts receives within a scheduler tick of consuming the
		// completions the previous scatter read produced. One yield before
		// falling back to plain (two-syscall) decoding keeps the fast path
		// hot without busy-waiting.
		runtime.Gosched()
		if nl := fr.q.leaseRecvs(&fr.leases); nl > 0 {
			return fr.specFrames(nl)
		}
	}
	return fr.plainFrame()
}

// specFrames settles one speculative scatter read covering nl leased
// receives. The readv's byte count can stop anywhere in the
// header/buffer/header/... layout; the walk completes the clean prefix of
// matched, buffer-filling data frames zero-copy, tops up a frame the read
// went dry inside straight from the wire (a dry read guarantees no bytes
// landed past it), and at the first misalignment — a write frame, a virtual
// frame, a payload shorter than its buffer — parks the displaced bytes in
// the spill and returns the unconsumed leases to the ring front.
func (fr *frameReader) specFrames(nl int) bool {
	q := fr.q
	leases := fr.leases[:nl]
	segs := fr.segs[:0]
	for j := 0; j < nl; j++ {
		segs = append(segs, fr.hdrs[j][:], leases[j].buf.Data)
	}
	n, err := fr.vr.readv(segs)
	if err != nil {
		q.breakConn()
		q.failLeases(leases)
		return false
	}

	pos := 0 // layout offset where frame j's header begins
	for j := range leases {
		if j > 0 && pos >= n {
			// The scatter read is exhausted at a frame boundary: return the
			// untouched leases and re-speculate with a fresh readv rather
			// than decoding them through blocking plain reads.
			q.unleaseRecvs(leases[j:])
			return true
		}
		buf := leases[j].buf.Data
		if h := min(max(n-pos, 0), headerLen); h < headerLen {
			// The scatter read ran dry inside this header, so nothing
			// landed past it; finish the header over the wire.
			if _, err := io.ReadFull(fr.conn, fr.hdrs[j][h:]); err != nil {
				q.breakConn()
				q.failLeases(leases[j:])
				return false
			}
		}
		hdr := &fr.hdrs[j]
		var (
			kind    = hdr[0]
			virtual = hdr[1] == 1
			imm     = binary.BigEndian.Uint32(hdr[2:6])
			length  = int(binary.BigEndian.Uint32(hdr[14:18]))
		)
		if length < 0 || length > maxFrame || (kind != frameData && kind != frameWrite) {
			q.breakConn()
			q.failLeases(leases[j:])
			return false
		}
		if kind == frameWrite {
			// Mispredict: not a receive match. Replay the decoded header
			// through the spill together with whatever landed past it, give
			// the unconsumed leases back, and let the plain path take the
			// frame from the spill.
			fr.stashLayout(hdr[:], leases, pos+headerLen, n)
			q.unleaseRecvs(leases[j:])
			return true
		}
		if virtual {
			// Virtual data frame: it matches this lease (the oldest
			// posted) but carries no wire payload, so every byte past its
			// header is misaligned from here on.
			fr.stashLayout(nil, leases, pos+headerLen, n)
			rest := leases[j+1:]
			q.settleLease()
			if err := q.completeRecv(leases[j], arrival{imm: imm, length: length}); err != nil {
				q.breakConn()
				q.unleaseRecvs(rest)
				return false
			}
			q.unleaseRecvs(rest)
			return true
		}
		if length > len(buf) {
			// No room for the payload: protocol breach, like the unleased
			// too-small path.
			q.breakConn()
			q.failLeases(leases[j:])
			return false
		}
		pstart := pos + headerLen
		p := min(max(n-pstart, 0), len(buf))
		if p < length {
			// Dry mid-payload ⇒ no bytes landed beyond this frame either;
			// finish the payload over the wire.
			if _, err := io.ReadFull(fr.conn, buf[p:length]); err != nil {
				q.breakConn()
				q.failLeases(leases[j:])
				return false
			}
		}
		if length < len(buf) {
			// Short payload: bytes past it landed at the wrong offsets.
			// Park them (before the completion hands the buffer back) and
			// stop speculating on this run.
			fr.stashLayout(nil, leases, pstart+length, n)
		}
		q.p.obsDirect.Inc()
		rest := leases[j+1:]
		q.settleLease()
		if err := q.completeRecv(leases[j], arrival{imm: imm, length: length, payload: buf[:length]}); err != nil {
			q.breakConn()
			q.unleaseRecvs(rest)
			return false
		}
		if length < len(buf) {
			q.unleaseRecvs(rest)
			return true
		}
		pos = pstart + len(buf)
	}
	return true
}

// plainFrame handles one frame without speculation: header first, then the
// payload routed by kind — the path taken when no real-memory receive is
// posted or spilled bytes must drain first. A matched data frame still
// lands its payload straight in the posted buffer; only an unposted
// arrival pays a staging copy.
func (fr *frameReader) plainFrame() bool {
	q := fr.q
	if err := fr.readFull(fr.hdr[:]); err != nil {
		q.breakConn()
		return false
	}
	var (
		kind    = fr.hdr[0]
		virtual = fr.hdr[1] == 1
		imm     = binary.BigEndian.Uint32(fr.hdr[2:6])
		aux     = binary.BigEndian.Uint64(fr.hdr[6:14])
		length  = int(binary.BigEndian.Uint32(fr.hdr[14:18]))
	)
	if length < 0 || length > maxFrame || (kind != frameData && kind != frameWrite) {
		q.breakConn()
		return false
	}

	switch kind {
	case frameWrite:
		if err := fr.applyWrite(aux, length, virtual); err != nil {
			q.breakConn()
			return false
		}

	case frameData:
		q.mu.Lock()
		var wr recvWR
		matched := false
		if q.recvHead != q.recvTail {
			wr = q.recvs[q.recvHead&recvMask]
			q.recvs[q.recvHead&recvMask] = recvWR{}
			q.recvHead++
			matched = true
			q.cond.Broadcast()
		}
		q.mu.Unlock()

		if matched {
			// Fast path without the readv (virtual receives, spill in
			// play): the payload still reads straight into the posted
			// buffer — no staging, no copy.
			a := arrival{imm: imm, length: length}
			if !virtual {
				if wr.buf.Data == nil || len(wr.buf.Data) < length {
					// No place to put real bytes: protocol breach.
					q.breakConn()
					return false
				}
				if err := fr.readFull(wr.buf.Data[:length]); err != nil {
					q.breakConn()
					return false
				}
				a.payload = wr.buf.Data[:length]
				q.p.obsDirect.Inc()
			}
			if err := q.completeRecv(wr, a); err != nil {
				q.breakConn()
				return false
			}
			return true
		}

		// Receive not yet posted: stage the arrival in a pooled buffer
		// until one is (the slow path — one extra copy when the receive
		// lands).
		a := arrival{imm: imm, length: length}
		if !virtual {
			a.payload = q.p.pool.Get(length)
			a.pooled = true
			if err := fr.readFull(a.payload); err != nil {
				q.breakConn()
				return false
			}
			q.p.obsStaged.Inc()
			q.p.obsStagedBytes.Add(uint64(length))
		}
		q.mu.Lock()
		q.arrivals = append(q.arrivals, a)
		q.mu.Unlock()
	}
	return true
}

// leaseRecvs pops up to specMax of the oldest posted receives for the
// reader's exclusive use — only the front run with real memory is worth a
// speculative readv. While out on lease the receives are invisible to
// breakConn: the reader owns each one's completion (or its return to the
// ring) on every path. leased reserves the run's worth of ring capacity so
// the leases can always be returned to the front.
func (q *queuePair) leaseRecvs(dst *[specMax]recvWR) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.broken {
		return 0
	}
	n := 0
	for n < specMax && q.recvHead != q.recvTail {
		wr := q.recvs[q.recvHead&recvMask]
		if len(wr.buf.Data) == 0 {
			break
		}
		dst[n] = wr
		q.recvs[q.recvHead&recvMask] = recvWR{}
		q.recvHead++
		n++
	}
	q.leased = n
	if n > 0 {
		q.cond.Broadcast()
	}
	return n
}

// unleaseRecvs returns mispredicted leases to the front of the ring in
// their original order. If the queue pair broke while they were out, the
// reader still owns their broken completions.
func (q *queuePair) unleaseRecvs(ls []recvWR) {
	if len(ls) == 0 {
		return
	}
	q.mu.Lock()
	q.leased -= len(ls)
	if q.broken {
		q.mu.Unlock()
		for _, wr := range ls {
			q.p.Complete(rdma.Completion{
				Op: rdma.OpRecv, Status: rdma.StatusBroken, Peer: q.peer, Token: q.token, WRID: wr.wrID,
			})
		}
		return
	}
	for i := len(ls) - 1; i >= 0; i-- {
		q.recvHead--
		q.recvs[q.recvHead&recvMask] = ls[i]
	}
	q.mu.Unlock()
}

// settleLease releases one lease's capacity reservation once the reader has
// decided to complete it.
func (q *queuePair) settleLease() {
	q.mu.Lock()
	q.leased--
	q.cond.Broadcast()
	q.mu.Unlock()
}

// failLeases completes leased receives with StatusBroken on the reader's
// error paths — breakConn cannot see a lease, so the reader must.
func (q *queuePair) failLeases(ls []recvWR) {
	q.mu.Lock()
	q.leased -= len(ls)
	q.mu.Unlock()
	for _, wr := range ls {
		q.p.Complete(rdma.Completion{
			Op: rdma.OpRecv, Status: rdma.StatusBroken, Peer: q.peer, Token: q.token, WRID: wr.wrID,
		})
	}
}

func (fr *frameReader) applyWrite(aux uint64, length int, virtual bool) error {
	q := fr.q
	region := rdma.RegionID(aux >> 32)
	offset := int(uint32(aux))
	var payload []byte
	if !virtual {
		payload = q.p.pool.Get(length)
		if err := fr.readFull(payload); err != nil {
			q.p.pool.Put(payload)
			return err
		}
	}
	err := q.p.ApplyWrite(region, offset, length, payload)
	if payload != nil {
		q.p.pool.Put(payload)
	}
	return err
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
		q.p.pool.Put(a.payload)
	}
	q.p.Complete(c)
	return nil
}

// breakConn fails the endpoint: outstanding work requests complete with
// StatusBroken (in one batched CQ operation) and the connection closes. A
// receive out on lease to the reader is not completed here — the reader
// owns it (see leaseRecv).
func (q *queuePair) breakConn() {
	q.mu.Lock()
	if q.broken {
		q.mu.Unlock()
		return
	}
	q.broken = true
	conn := q.conn
	var broken []rdma.Completion
	for i := q.sendHead; i != q.sendTail; i++ {
		wr := &q.sends[i&sendMask]
		op := rdma.OpSend
		if wr.write {
			op = rdma.OpWrite
		}
		broken = append(broken, rdma.Completion{
			Op: op, Status: rdma.StatusBroken, Peer: q.peer, Token: q.token, WRID: wr.wrID,
		})
	}
	for i := q.recvHead; i != q.recvTail; i++ {
		wr := &q.recvs[i&recvMask]
		broken = append(broken, rdma.Completion{
			Op: rdma.OpRecv, Status: rdma.StatusBroken, Peer: q.peer, Token: q.token, WRID: wr.wrID,
		})
		q.recvs[i&recvMask] = recvWR{}
	}
	q.recvHead = q.recvTail
	if conn == nil {
		// No connection ⇒ no writer was ever started (attach refuses once
		// broken), so nothing reads the send ring without the lock.
		for i := q.sendHead; i != q.sendTail; i++ {
			q.sends[i&sendMask] = sendWR{}
		}
	}
	// Otherwise the send ring is left for the writer to clear: it may be
	// reading the queued run without the lock mid-writev.
	leased := q.leased
	q.cond.Broadcast()
	q.mu.Unlock()

	if conn != nil {
		_ = conn.Close()
	}
	if len(broken) == 0 && leased == 0 {
		// An idle endpoint breaking flushes no work, but the layer above
		// still has to learn the peer is gone: a peer that closes between
		// transfers would otherwise vanish silently, and a group gated on
		// its readiness credit would wait forever (nothing is ever posted to
		// the broken pair, so no ErrBroken surfaces either). Real NICs raise
		// an async event when a queue pair enters the error state; the
		// synthetic completion below is that event, carrying the endpoint
		// identity and no work request.
		broken = append(broken, rdma.Completion{
			Op: rdma.OpRecv, Status: rdma.StatusBroken, Peer: q.peer, Token: q.token, WRID: ^uint64(0),
		})
	}
	q.p.CompleteBatch(broken)
}
