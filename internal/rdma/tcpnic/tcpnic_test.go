package tcpnic

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/rdma/shmnic"
)

// completionSink collects completions thread-safely.
type completionSink struct {
	mu   sync.Mutex
	got  []rdma.Completion
	cond *sync.Cond
}

func newSink() *completionSink {
	s := &completionSink{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *completionSink) handle(c rdma.Completion) {
	s.mu.Lock()
	s.got = append(s.got, c)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// waitN blocks until n completions arrived or the timeout passed.
func (s *completionSink) waitN(t *testing.T, n int) []rdma.Completion {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	timer := time.AfterFunc(10*time.Second, func() { s.cond.Broadcast() })
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d of %d completions", len(s.got), n)
		}
		s.cond.Wait()
	}
	return append([]rdma.Completion(nil), s.got...)
}

// newPair stands up two providers on loopback and returns them with sinks.
func newPair(t *testing.T) (a, b *Provider, sa, sb *completionSink) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[rdma.NodeID]string{0: lnA.Addr().String(), 1: lnB.Addr().String()}
	a, err = New(Config{NodeID: 0, Listener: lnA, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	b, err = New(Config{NodeID: 1, Listener: lnB, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb = newSink(), newSink()
	a.SetHandler(sa.handle)
	b.SetHandler(sb.handle)
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b, sa, sb
}

func TestSendRecvRoundTrip(t *testing.T) {
	a, b, sa, sb := newPair(t)
	qa, err := a.Connect(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := b.Connect(0, 42)
	if err != nil {
		t.Fatal(err)
	}

	recvBuf := make([]byte, 64)
	if err := qb.PostRecv(rdma.MakeBuffer(recvBuf), 7); err != nil {
		t.Fatal(err)
	}
	payload := []byte("over real sockets")
	if err := qa.PostSend(rdma.MakeBuffer(payload), 0xbeef, 9); err != nil {
		t.Fatal(err)
	}

	sends := sa.waitN(t, 1)
	if sends[0].Op != rdma.OpSend || sends[0].WRID != 9 || sends[0].Status != rdma.StatusOK {
		t.Errorf("send completion = %+v", sends[0])
	}
	recvs := sb.waitN(t, 1)
	r := recvs[0]
	if r.Op != rdma.OpRecv || r.Imm != 0xbeef || r.WRID != 7 || r.Peer != 0 || r.Token != 42 {
		t.Errorf("recv completion = %+v", r)
	}
	if !bytes.Equal(r.Data, payload) {
		t.Errorf("data = %q, want %q", r.Data, payload)
	}
}

func TestVirtualSendCarriesNoBytes(t *testing.T) {
	a, b, _, sb := newPair(t)
	qa, _ := a.Connect(1, 1)
	qb, _ := b.Connect(0, 1)
	if err := qb.PostRecv(rdma.SizeBuffer(1<<20), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(1<<20), 5, 2); err != nil {
		t.Fatal(err)
	}
	recvs := sb.waitN(t, 1)
	if recvs[0].Bytes != 1<<20 || recvs[0].Data != nil {
		t.Errorf("virtual recv = %+v", recvs[0])
	}
}

func TestFIFOAcrossManyMessages(t *testing.T) {
	a, b, _, sb := newPair(t)
	qa, _ := a.Connect(1, 1)
	qb, _ := b.Connect(0, 1)
	const n = 200
	for i := 0; i < n; i++ {
		if err := qb.PostRecv(rdma.SizeBuffer(64), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := qa.PostSend(rdma.SizeBuffer(64), uint32(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	recvs := sb.waitN(t, n)
	for i, c := range recvs {
		if c.WRID != uint64(i) || c.Imm != uint32(i) {
			t.Fatalf("completion %d out of order: %+v", i, c)
		}
	}
}

// TestFIFOWithReceivesPostedDuringArrival posts receives while the frames
// they match stream in, so frames land on both sides of each post: straight
// into a posted receive, staged ahead of theirs, or staged while theirs is
// being posted. A receive posted during a staged read must still take that
// frame, not the next one.
func TestFIFOWithReceivesPostedDuringArrival(t *testing.T) {
	a, b, _, sb := newPair(t)
	qa, _ := a.Connect(1, 13)
	qb, _ := b.Connect(0, 13)
	const n = 3000
	payload := make([]byte, 256)
	go func() {
		for i := 0; i < n; i++ {
			if err := qa.PostSend(rdma.MakeBuffer(payload), uint32(i), uint64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if err := qb.PostRecv(rdma.MakeBuffer(make([]byte, len(payload))), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range sb.waitN(t, n) {
		if c.WRID != uint64(i) || c.Imm != uint32(i) {
			t.Fatalf("receive %d took frame %d", c.WRID, c.Imm)
		}
	}
}

func TestEarlyArrivalBuffersUntilRecvPosted(t *testing.T) {
	a, b, _, sb := newPair(t)
	qa, _ := a.Connect(1, 1)
	qb, _ := b.Connect(0, 1)
	payload := []byte("early bird")
	if err := qa.PostSend(rdma.MakeBuffer(payload), 1, 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the frame land unmatched
	buf := make([]byte, 32)
	if err := qb.PostRecv(rdma.MakeBuffer(buf), 2); err != nil {
		t.Fatal(err)
	}
	recvs := sb.waitN(t, 1)
	if !bytes.Equal(recvs[0].Data, payload) {
		t.Errorf("buffered arrival corrupted: %q", recvs[0].Data)
	}
}

func TestOneSidedWriteOverTCP(t *testing.T) {
	a, b, sa, _ := newPair(t)
	region := make([]byte, 64)
	if err := b.RegisterRegion(3, region); err != nil {
		t.Fatal(err)
	}
	watched := make(chan [2]int, 1)
	if err := b.WatchRegion(3, func(off, n int) { watched <- [2]int{off, n} }); err != nil {
		t.Fatal(err)
	}
	qa, _ := a.Connect(1, 1)
	if _, err := b.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostWrite(3, 16, []byte("poke"), 11); err != nil {
		t.Fatal(err)
	}
	writes := sa.waitN(t, 1)
	if writes[0].Op != rdma.OpWrite || writes[0].WRID != 11 {
		t.Errorf("write completion = %+v", writes[0])
	}
	select {
	case w := <-watched:
		if w != [2]int{16, 4} {
			t.Errorf("watch = %v, want {16,4}", w)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never fired")
	}
	if string(region[16:20]) != "poke" {
		t.Errorf("region = %q", region[:24])
	}
}

func TestPeerCloseBreaksOutstandingWork(t *testing.T) {
	a, b, _, sb := newPair(t)
	qa, _ := a.Connect(1, 1)
	qb, _ := b.Connect(0, 1)
	// Force connection establishment with one round trip.
	if err := qb.PostRecv(rdma.SizeBuffer(8), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(8), 0, 1); err != nil {
		t.Fatal(err)
	}
	sb.waitN(t, 1)
	if err := qb.PostRecv(rdma.SizeBuffer(8), 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	recvs := sb.waitN(t, 2)
	if recvs[1].Status != rdma.StatusBroken {
		t.Errorf("pending recv after peer close: %+v", recvs[1])
	}
	if err := qb.PostSend(rdma.SizeBuffer(1), 0, 3); err != rdma.ErrBroken {
		t.Errorf("post on broken qp: err = %v, want ErrBroken", err)
	}
}

// TestPeerCloseOnIdleQueuePairSignalsBreak pins the async-event analogue: a
// peer that closes while the local endpoint has NOTHING posted must still
// surface exactly one StatusBroken completion carrying the endpoint identity,
// or layers gated on that peer's credit wait forever (found by the
// many-session churn soak: a departed group member was undetectable until
// something happened to be in flight).
func TestPeerCloseOnIdleQueuePairSignalsBreak(t *testing.T) {
	a, b, _, sb := newPair(t)
	qa, _ := a.Connect(1, 77)
	qb, _ := b.Connect(0, 77)
	// One round trip so the connection is established and fully drained.
	if err := qb.PostRecv(rdma.SizeBuffer(8), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(8), 0, 1); err != nil {
		t.Fatal(err)
	}
	sb.waitN(t, 1)

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got := sb.waitN(t, 2)
	c := got[1]
	if c.Status != rdma.StatusBroken || c.Peer != 0 || c.Token != 77 {
		t.Errorf("idle break completion = %+v, want broken from peer 0 token 77", c)
	}
	if err := qb.PostSend(rdma.SizeBuffer(1), 0, 2); err != rdma.ErrBroken {
		t.Errorf("post after idle break: err = %v, want ErrBroken", err)
	}
}

// TestLocalCloseOfIdleQueuePairRaisesNoEvent pins the other side of the
// async event: closing one's own idle queue pair raises no completion — its
// owner already knows. An event queued by the close would outlive the
// endpoint and reach whoever reuses its (peer, token) next, such as a group
// re-created under the same id.
func TestLocalCloseOfIdleQueuePairRaisesNoEvent(t *testing.T) {
	a, b, sa, sb := newPair(t)
	qa, _ := a.Connect(1, 77)
	qb, _ := b.Connect(0, 77)
	if err := qb.PostRecv(rdma.SizeBuffer(8), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(8), 0, 1); err != nil {
		t.Fatal(err)
	}
	sa.waitN(t, 1)
	sb.waitN(t, 1)

	if err := qb.Close(); err != nil {
		t.Fatal(err)
	}
	// Completions dispatch in order, so once a receive on a second queue
	// pair completes, anything the close queued has been delivered before it.
	qa2, _ := a.Connect(1, 78)
	qb2, _ := b.Connect(0, 78)
	if err := qb2.PostRecv(rdma.SizeBuffer(8), 2); err != nil {
		t.Fatal(err)
	}
	if err := qa2.PostSend(rdma.SizeBuffer(8), 0, 2); err != nil {
		t.Fatal(err)
	}
	got := sb.waitN(t, 2)
	if c := got[1]; c.Token != 78 || c.WRID != 2 || c.Status != rdma.StatusOK {
		t.Errorf("completion after the local close = %+v, want the token-78 receive", c)
	}
}

func TestPostWithoutHandler(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{NodeID: 0, Listener: ln, Addrs: map[rdma.NodeID]string{0: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	qp, err := p.Connect(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := qp.PostSend(rdma.SizeBuffer(1), 0, 1); err != rdma.ErrNoHandler {
		t.Errorf("err = %v, want ErrNoHandler", err)
	}
}

func TestConnectIsIdempotentPerToken(t *testing.T) {
	a, _, _, _ := newPair(t)
	q1, err := a.Connect(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := a.Connect(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Error("same (peer, token) returned distinct queue pairs")
	}
}

func TestNewRequiresListener(t *testing.T) {
	if _, err := New(Config{NodeID: 0}); err == nil {
		t.Error("New without listener succeeded")
	}
}

func TestLargeTransferIntegrity(t *testing.T) {
	a, b, _, sb := newPair(t)
	qa, _ := a.Connect(1, 1)
	qb, _ := b.Connect(0, 1)
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	buf := make([]byte, len(payload))
	if err := qb.PostRecv(rdma.MakeBuffer(buf), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.MakeBuffer(payload), 0, 1); err != nil {
		t.Fatal(err)
	}
	recvs := sb.waitN(t, 1)
	if !bytes.Equal(recvs[0].Data, payload) {
		t.Error("4 MB transfer corrupted")
	}
}

// TestRecvPathCounters proves the receive fast path stays copy-free: frames
// whose receive is posted before they arrive must land directly in the
// posted buffer (direct), while only true early arrivals stage through a
// pooled buffer and pay a copy (staged).
func TestRecvPathCounters(t *testing.T) {
	a, b, sa, sb := newPair(t)
	bc := counters(b)
	qa, _ := a.Connect(1, 5)
	qb, _ := b.Connect(0, 5)

	// Phase 1: receives posted ahead of every send — all direct.
	const pre = 8
	payload := bytes.Repeat([]byte{0xab}, 4096)
	for i := 0; i < pre; i++ {
		if err := qb.PostRecv(rdma.MakeBuffer(make([]byte, len(payload))), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The posted-recv count is racy against the reader goroutine only when
	// sends overlap posting; posting first then sending serializes it.
	for i := 0; i < pre; i++ {
		if err := qa.PostSend(rdma.MakeBuffer(payload), 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sb.waitN(t, pre)
	if direct, staged := bc("tcpnic.direct_frames"), bc("tcpnic.staged_frames"); direct != pre || staged != 0 {
		t.Fatalf("pre-posted phase: %d direct, %d staged frames, want %d direct and 0 staged", direct, staged, pre)
	}

	// Phase 2: a send with no receive posted must stage.
	if err := qa.PostSend(rdma.MakeBuffer(payload), 0, 100); err != nil {
		t.Fatal(err)
	}
	sa.waitN(t, pre+1)
	deadline := time.Now().Add(10 * time.Second)
	for bc("tcpnic.staged_frames") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("early arrival never staged")
		}
		time.Sleep(time.Millisecond)
	}
	if err := qb.PostRecv(rdma.MakeBuffer(make([]byte, len(payload))), 101); err != nil {
		t.Fatal(err)
	}
	recvs := sb.waitN(t, pre+1)
	if !bytes.Equal(recvs[pre].Data, payload) {
		t.Error("staged arrival corrupted")
	}
	direct, staged, stagedBytes := bc("tcpnic.direct_frames"), bc("tcpnic.staged_frames"), bc("tcpnic.staged_bytes")
	if direct != pre || staged != 1 || stagedBytes != uint64(len(payload)) {
		t.Fatalf("staged phase: %d direct, %d staged frames, %d staged bytes; want %d direct, 1 staged, %d staged bytes",
			direct, staged, stagedBytes, pre, len(payload))
	}
}

// burstFrame is one frame of a mixed pipelined burst and, for sends, the
// receive it lands in.
type burstFrame struct {
	write   bool
	virtual bool   // metadata-only send: the header carries len(data), no bytes
	data    []byte // payload of a send or write
	imm     uint32
	offset  int  // region offset of a write
	recvLen int  // size of the posted receive (sends)
	late    bool // receive posted only after the frame has arrived
}

const burstRegion = 4

// mixedBurst is one of every frame shape the reader decodes, back to back:
// sends that fill their buffer or fall short of it, virtual sends landing
// in real memory, one-sided writes, and a tail of early arrivals whose
// receives are posted afterwards. It ends with a write, so once every write
// has been applied the reader has decoded every frame.
func mixedBurst() []burstFrame {
	rng := rand.New(rand.NewSource(44))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	return []burstFrame{
		{data: random(4096), imm: 1, recvLen: 4096},
		{data: random(1000), imm: 2, recvLen: 4096},
		{virtual: true, data: make([]byte, 8192), imm: 3, recvLen: 8192},
		{write: true, data: random(300), offset: 100},
		{data: random(4099), imm: 4, recvLen: 4099},
		{data: random(17), imm: 5, recvLen: 17},
		{write: true, data: random(19), offset: 2000},
		{virtual: true, data: make([]byte, 40), imm: 6, recvLen: 64},
		{data: random(5000), imm: 7, recvLen: 5000, late: true},
		{data: random(7), imm: 8, recvLen: 64, late: true},
		{write: true, data: random(1), offset: 3000},
		{virtual: true, data: make([]byte, 3), imm: 9, recvLen: 64, late: true},
		{data: random(2048), imm: 10, recvLen: 2048, late: true},
		{write: true, data: random(64), offset: 4000},
	}
}

// postBurst posts the burst on q back to back, frame i as work request i.
func postBurst(t *testing.T, q rdma.QueuePair, burst []burstFrame) {
	t.Helper()
	for i, f := range burst {
		var err error
		switch {
		case f.write:
			err = q.PostWrite(burstRegion, f.offset, f.data, uint64(i))
		case f.virtual:
			err = q.PostSend(rdma.SizeBuffer(len(f.data)), f.imm, uint64(i))
		default:
			err = q.PostSend(rdma.MakeBuffer(f.data), f.imm, uint64(i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// receiveBurst drives the receiving end of burst on q, a queue pair of p
// whose completions reach sink: it posts the early receives, calls send to
// put the burst on the wire, waits until every write has been applied (so
// every frame has been decoded), posts the late receives, and checks what
// landed — receive completions in FIFO order with their imm values, lengths
// and bytes, and the region holding every write.
func receiveBurst(t *testing.T, p *Provider, sink *completionSink, q rdma.QueuePair, burst []burstFrame, send func()) {
	t.Helper()
	region := make([]byte, 4096)
	applied := make(chan struct{}, len(burst))
	if err := p.RegisterRegion(burstRegion, region); err != nil {
		t.Fatal(err)
	}
	if err := p.WatchRegion(burstRegion, func(int, int) { applied <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	var sends []int
	post := func(late bool) {
		for i, f := range burst {
			if f.write || f.late != late {
				continue
			}
			sends = append(sends, i)
			if err := q.PostRecv(rdma.MakeBuffer(make([]byte, f.recvLen)), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	post(false)
	send()
	want := make([]byte, len(region))
	for _, f := range burst {
		if !f.write {
			continue
		}
		copy(want[f.offset:], f.data)
		select {
		case <-applied:
		case <-time.After(10 * time.Second):
			t.Fatal("a write of the burst was never applied")
		}
	}
	post(true)

	for k, c := range sink.waitN(t, len(sends)) {
		i := sends[k]
		f := burst[i]
		if c.Op != rdma.OpRecv || c.Status != rdma.StatusOK || c.WRID != uint64(i) || c.Imm != f.imm || c.Bytes != len(f.data) {
			t.Fatalf("receive %d = %+v, want frame %d (imm %d, %d bytes)", k, c, i, f.imm, len(f.data))
		}
		if f.virtual && c.Data != nil || !f.virtual && !bytes.Equal(c.Data, f.data) {
			t.Fatalf("receive %d (frame %d) carried %d wrong bytes", k, i, len(c.Data))
		}
	}
	if !bytes.Equal(region, want) {
		t.Error("region does not hold the burst's writes")
	}
}

// TestMixedPipelinedBurst sends every frame shape in one pipelined burst on
// one queue pair: the writer coalesces them, and the reader must take each
// apart on its own.
func TestMixedPipelinedBurst(t *testing.T) {
	a, b, sa, sb := newPair(t)
	qa, _ := a.Connect(1, 11)
	qb, _ := b.Connect(0, 11)
	burst := mixedBurst()
	receiveBurst(t, b, sb, qb, burst, func() { postBurst(t, qa, burst) })
	for i, c := range sa.waitN(t, len(burst)) {
		op := rdma.OpSend
		if burst[i].write {
			op = rdma.OpWrite
		}
		if c.Op != op || c.Status != rdma.StatusOK || c.WRID != uint64(i) {
			t.Errorf("sender completion %d = %+v", i, c)
		}
	}
}

// recordBurst captures the bytes a provider puts on the wire for burst —
// the connect handshake, then the frames — by accepting its connection in
// place of the peer.
func recordBurst(t *testing.T, burst []burstFrame) []byte {
	t.Helper()
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	own, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{NodeID: 1, Listener: own, Addrs: map[rdma.NodeID]string{0: peer.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetHandler(func(rdma.Completion) {})
	qa, err := a.Connect(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := peer.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	postBurst(t, qa, burst)
	size := 12 // handshake: node id, token
	for _, f := range burst {
		size += headerLen
		if !f.virtual {
			size += len(f.data)
		}
	}
	stream := make([]byte, size)
	if _, err := io.ReadFull(conn, stream); err != nil {
		t.Fatal(err)
	}
	return stream
}

// TestSplitFrameStream replays a recorded burst from a raw peer in chunks of
// 1, 7, 17, 19 and 4099 bytes, so headers and payloads split at every
// offset: the reader must reassemble each frame from however many reads
// the stream takes.
func TestSplitFrameStream(t *testing.T) {
	burst := mixedBurst()
	stream := recordBurst(t, burst)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{NodeID: 0, Listener: ln, Addrs: map[rdma.NodeID]string{0: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	sb := newSink()
	b.SetHandler(sb.handle)
	qb, err := b.Connect(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	receiveBurst(t, b, sb, qb, burst, func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		chunks := []int{1, 7, 17, 19, 4099}
		for off, k := 0, 0; off < len(stream); k++ {
			n := min(chunks[k%len(chunks)], len(stream)-off)
			if _, err := conn.Write(stream[off : off+n]); err != nil {
				t.Fatal(err)
			}
			off += n
			// Let the reader drain each chunk on its own, so reads end
			// where the chunks do.
			time.Sleep(100 * time.Microsecond)
		}
	})
}

// rawPeer stands up a provider as node 0 with a queue pair for token, and
// dials it as node 1 through a raw socket that the test writes frames to.
func rawPeer(t *testing.T, token uint64) (*Provider, rdma.QueuePair, *completionSink, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{NodeID: 0, Listener: ln, Addrs: map[rdma.NodeID]string{0: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	sink := newSink()
	p.SetHandler(sink.handle)
	q, err := p.Connect(1, token)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	var hs [12]byte
	binary.BigEndian.PutUint32(hs[0:4], 1)
	binary.BigEndian.PutUint64(hs[4:12], token)
	if _, err := conn.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	return p, q, sink, conn
}

// TestBreakMidPayloadCompletesRecv posts one receive, lets a raw peer send
// a data frame's header and part of its payload, and then breaks the
// connection on the way: the peer closes, the local side closes the queue
// pair, or the frame does not fit the buffer. The receive the payload was
// bound for must complete with StatusBroken exactly once.
func TestBreakMidPayloadCompletesRecv(t *testing.T) {
	for _, tc := range []struct {
		name    string
		recvLen int
		cut     func(q rdma.QueuePair, conn net.Conn)
	}{
		{"peer close", 4096, func(_ rdma.QueuePair, conn net.Conn) { _ = conn.Close() }},
		{"local close", 4096, func(q rdma.QueuePair, _ net.Conn) {
			time.Sleep(20 * time.Millisecond) // let the reader block mid-payload
			_ = q.Close()
		}},
		{"buffer too small", 64, func(rdma.QueuePair, net.Conn) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, q, sink, conn := rawPeer(t, 5)
			if err := q.PostRecv(rdma.MakeBuffer(make([]byte, tc.recvLen)), 1); err != nil {
				t.Fatal(err)
			}
			frame := make([]byte, headerLen+1000)
			frame[0] = frameData
			binary.BigEndian.PutUint32(frame[14:18], 4096)
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			tc.cut(q, conn)
			c := sink.waitN(t, 1)[0]
			if c.Op != rdma.OpRecv || c.WRID != 1 || c.Status != rdma.StatusBroken {
				t.Fatalf("completion = %+v, want receive 1 broken", c)
			}
			_ = p.Close() // drains the completion queue
			if got := sink.waitN(t, 1); len(got) != 1 {
				t.Fatalf("%d completions, want the one broken receive: %+v", len(got), got)
			}
		})
	}
}

// TestStaleIdleBreakDropped queues a peer-gone event for an idle queue pair
// behind a completion the handler is still busy with, then closes that
// queue pair and connects a new one under the same (peer, token) — a group
// re-created under its old id — before the dispatcher moves on. The event
// belongs to the closed pair and must not reach the handler, which would
// take it for a break of the new one.
func TestStaleIdleBreakDropped(t *testing.T) {
	a, b, _, sb := newPair(t)
	held, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var got []rdma.Completion
	b.SetHandler(func(c rdma.Completion) {
		if c.Token == 2 && c.WRID == 2 {
			close(held)
			<-release // hold the dispatcher until the pair is replaced
		}
		mu.Lock()
		got = append(got, c)
		mu.Unlock()
		sb.handle(c)
	})
	qa, _ := a.Connect(1, 1)
	qb, _ := b.Connect(0, 1)
	// One round trip so the connection is up.
	if err := qb.PostRecv(rdma.SizeBuffer(8), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(8), 0, 1); err != nil {
		t.Fatal(err)
	}
	sb.waitN(t, 1)

	// Occupy the dispatcher with a receive on a second pair.
	qa2, _ := a.Connect(1, 2)
	qb2, _ := b.Connect(0, 2)
	if err := qb2.PostRecv(rdma.SizeBuffer(8), 2); err != nil {
		t.Fatal(err)
	}
	if err := qa2.PostSend(rdma.SizeBuffer(8), 0, 2); err != nil {
		t.Fatal(err)
	}
	<-held
	// The peer closes the idle pair; b's endpoint breaks and queues its
	// event behind the held receive.
	if err := qa.Close(); err != nil {
		t.Fatal(err)
	}
	old := qb.(*queuePair)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		old.mu.Lock()
		broken := old.broken
		old.mu.Unlock()
		if broken {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the idle queue pair never broke")
		}
	}
	if err := qb.Close(); err != nil {
		t.Fatal(err)
	}
	qa, _ = a.Connect(1, 1)
	qb, _ = b.Connect(0, 1)
	if qb == rdma.QueuePair(old) {
		t.Fatal("Connect returned the closed queue pair")
	}
	if err := qb.PostRecv(rdma.SizeBuffer(8), 3); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(8), 0, 3); err != nil {
		t.Fatal(err)
	}
	close(release)

	// Completions dispatch in order: once the new pair's receive is in,
	// the queued event has been dispatched or dropped.
	sb.waitN(t, 3)
	mu.Lock()
	defer mu.Unlock()
	for _, c := range got {
		if c.Status != rdma.StatusOK {
			t.Errorf("handler saw %+v", c)
		}
	}
}

// counters installs a fresh observer on p, before any traffic, and returns a
// reader of its counters by name.
func counters(p *Provider) func(name string) uint64 {
	o := obs.New(1 << 10)
	p.SetObserver(o)
	return func(name string) uint64 { return o.Registry().Counter(name).Load() }
}

// TestZeroCopySendCounter proves sends and one-sided writes leave through
// the writer referencing the caller's memory: every real (non-virtual)
// frame bumps the zero-copy counter, and virtual frames do not.
func TestZeroCopySendCounter(t *testing.T) {
	a, b, sa, sb := newPair(t)
	ac := counters(a)
	qa, _ := a.Connect(1, 6)
	qb, _ := b.Connect(0, 6)

	region := make([]byte, 64)
	if err := b.RegisterRegion(1, region); err != nil {
		t.Fatal(err)
	}
	const sends = 4
	payload := bytes.Repeat([]byte{0x5a}, 1024)
	for i := 0; i < sends; i++ {
		if err := qb.PostRecv(rdma.MakeBuffer(make([]byte, len(payload))), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := qa.PostSend(rdma.MakeBuffer(payload), 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := qa.PostWrite(1, 0, []byte("poke"), 50); err != nil {
		t.Fatal(err)
	}
	sa.waitN(t, sends+1)
	sb.waitN(t, sends)
	if got := ac("tcpnic.zero_copy_sends"); got != sends+1 {
		t.Errorf("zero-copy sends = %d, want %d (each real send and write)", got, sends+1)
	}

	// A virtual send moves no payload bytes, so nothing to zero-copy.
	if err := qb.PostRecv(rdma.SizeBuffer(1<<10), 60); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(1<<10), 0, 61); err != nil {
		t.Fatal(err)
	}
	sb.waitN(t, sends+1)
	if got := ac("tcpnic.zero_copy_sends"); got != sends+1 {
		t.Errorf("zero-copy sends after virtual send = %d, want %d", got, sends+1)
	}
}

// pingPongPair builds a connected pair wired for steady-state ping-pong:
// every round posts one receive and one payload send on A; B's handler
// reposts its receive and acks with a virtual send; A's handler signals the
// round's end. Nothing in a round should allocate — the test below pins it.
func pingPongPair(tb testing.TB, payload []byte) (round func()) {
	tb.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	addrs := map[rdma.NodeID]string{0: lnA.Addr().String(), 1: lnB.Addr().String()}
	a, err := New(Config{NodeID: 0, Listener: lnA, Addrs: addrs})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := New(Config{NodeID: 1, Listener: lnB, Addrs: addrs})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})

	qa, err := a.Connect(1, 9)
	if err != nil {
		tb.Fatal(err)
	}
	qb, err := b.Connect(0, 9)
	if err != nil {
		tb.Fatal(err)
	}

	recvB := make([]byte, len(payload))
	b.SetHandler(func(c rdma.Completion) {
		if c.Op != rdma.OpRecv {
			return
		}
		_ = qb.PostRecv(rdma.MakeBuffer(recvB), 1)
		_ = qb.PostSend(rdma.SizeBuffer(1), 0, 2)
	})
	ack := make(chan struct{}, 1)
	a.SetHandler(func(c rdma.Completion) {
		if c.Op == rdma.OpRecv {
			ack <- struct{}{}
		}
	})
	if err := qb.PostRecv(rdma.MakeBuffer(recvB), 1); err != nil {
		tb.Fatal(err)
	}
	return func() {
		if err := qa.PostRecv(rdma.SizeBuffer(1), 3); err != nil {
			tb.Fatal(err)
		}
		if err := qa.PostSend(rdma.MakeBuffer(payload), 0, 4); err != nil {
			tb.Fatal(err)
		}
		<-ack
	}
}

// TestSteadyStateAllocationFree pins the hot path at zero allocations per
// round once pools and rings are primed: posting, framing, the vectored
// reader, staging-free delivery, and completion dispatch all reuse memory.
// The average tolerates the stray runtime allocation (stack growth, GC
// bookkeeping) without letting a real per-op allocation through.
func TestSteadyStateAllocationFree(t *testing.T) {
	round := pingPongPair(t, bytes.Repeat([]byte{0x3c}, 4096))
	for i := 0; i < 100; i++ { // prime pools, rings, and socket buffers
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg > 0.5 {
		t.Errorf("steady-state allocations = %.2f per round, want 0", avg)
	}
}

// TestWriteRoundAllocationFree pins a warmed one-sided write round — the
// post, the payload read off the socket, its landing in the region and the
// watcher — at zero allocations: the landing owns the pooled buffer the
// payload was read into and hands it back once copied into the region.
func TestWriteRoundAllocationFree(t *testing.T) {
	a, b, _, _ := newPair(t)
	a.SetHandler(func(rdma.Completion) {})
	b.SetHandler(func(rdma.Completion) {})
	if err := b.RegisterRegion(3, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	watched := make(chan struct{}, 1)
	if err := b.WatchRegion(3, func(int, int) { watched <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	qa, err := a.Connect(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x3c}, 512)
	round := func() {
		if err := qa.PostWrite(3, 64, payload, 1); err != nil {
			t.Fatal(err)
		}
		<-watched
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg > 0.5 {
		t.Errorf("write-round allocations = %.2f per round, want 0", avg)
	}
}

// BenchmarkSteadyStatePingPong reports the hot path's time and allocation
// profile: one 4 KiB send, its delivery into a pre-posted buffer, and a
// virtual ack per round.
func BenchmarkSteadyStatePingPong(b *testing.B) {
	round := pingPongPair(b, bytes.Repeat([]byte{0x3c}, 4096))
	for i := 0; i < 100; i++ {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// TestIntraHostRoutingUsesSharedMemory wires two co-located providers into
// one shmnic exchange: their queue pairs must be shared-memory endpoints —
// payloads flow without any TCP data-plane traffic — while the rdma surface
// (completions, metadata, FIFO) stays identical.
func TestIntraHostRoutingUsesSharedMemory(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[rdma.NodeID]string{0: lnA.Addr().String(), 1: lnB.Addr().String()}
	ex := shmnic.NewExchange()
	a, err := New(Config{NodeID: 0, Listener: lnA, Addrs: addrs, Intra: ex})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{NodeID: 1, Listener: lnB, Addrs: addrs, Intra: ex})
	if err != nil {
		t.Fatal(err)
	}
	ac, bc := counters(a), counters(b)
	sa, sb := newSink(), newSink()
	a.SetHandler(sa.handle)
	b.SetHandler(sb.handle)
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})

	qa, err := a.Connect(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := b.Connect(0, 3)
	if err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte{0x42}, 1<<20)
	buf := make([]byte, len(payload))
	if err := qb.PostRecv(rdma.MakeBuffer(buf), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.MakeBuffer(payload), 0xfeed, 2); err != nil {
		t.Fatal(err)
	}
	sa.waitN(t, 1)
	recvs := sb.waitN(t, 1)
	r := recvs[0]
	if r.Imm != 0xfeed || r.Peer != 0 || r.Token != 3 || !bytes.Equal(r.Data, payload) {
		t.Errorf("recv completion over shared memory = op=%v imm=%#x peer=%d token=%d", r.Op, r.Imm, r.Peer, r.Token)
	}

	// The megabyte moved without touching the socket data plane: no frames
	// were read on either side, and the writers emitted nothing.
	if direct, staged := bc("tcpnic.direct_frames"), bc("tcpnic.staged_frames"); direct != 0 || staged != 0 {
		t.Errorf("TCP receive path saw %d direct and %d staged frames despite intra-host routing", direct, staged)
	}
	if zc := ac("tcpnic.zero_copy_sends"); zc != 0 {
		t.Errorf("TCP writer emitted %d frames despite intra-host routing", zc)
	}
}

// TestSendRingGrowsUnderInFlightWritev posts a send too large for the
// socket buffers to a raw peer that reads only its first bytes, so the
// writer sits in its writev. Sends posted meanwhile fill the ring past its
// initial storage, which grows while the writer still reads the run from the
// old storage. Every frame must still reach the wire whole and in order,
// and every send must complete in order.
func TestSendRingGrowsUnderInFlightWritev(t *testing.T) {
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	own, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{NodeID: 1, Listener: own, Addrs: map[rdma.NodeID]string{0: peer.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	sink := newSink()
	a.SetHandler(sink.handle)
	qa, err := a.Connect(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := peer.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	big := make([]byte, 16<<20)
	rand.New(rand.NewSource(3)).Read(big)
	if err := qa.PostSend(rdma.MakeBuffer(big), 0, 0); err != nil {
		t.Fatal(err)
	}
	start := make([]byte, 12+headerLen+1) // handshake, the big frame's header, one payload byte
	if _, err := io.ReadFull(conn, start); err != nil {
		t.Fatal(err)
	}
	const small = 3 * ringInitial
	for i := 1; i <= small; i++ {
		if err := qa.PostSend(rdma.MakeBuffer(bytes.Repeat([]byte{byte(i)}, i)), uint32(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	q := qa.(*queuePair)
	q.mu.Lock()
	storage := len(q.sends)
	q.mu.Unlock()
	if storage <= ringInitial {
		t.Fatalf("send ring storage %d after queueing %d sends behind the writev, want it grown past %d", storage, small+1, ringInitial)
	}

	rest := make([]byte, len(big)-1)
	if _, err := io.ReadFull(conn, rest); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(start[len(start)-1:], big[:1]) || !bytes.Equal(rest, big[1:]) {
		t.Fatal("large frame corrupt on the wire")
	}
	for i := 1; i <= small; i++ {
		frame := make([]byte, headerLen+i)
		if _, err := io.ReadFull(conn, frame); err != nil {
			t.Fatal(err)
		}
		imm, length := binary.BigEndian.Uint32(frame[2:6]), binary.BigEndian.Uint32(frame[14:18])
		if frame[0] != frameData || imm != uint32(i) || length != uint32(i) || !bytes.Equal(frame[headerLen:], bytes.Repeat([]byte{byte(i)}, i)) {
			t.Fatalf("frame %d on the wire: kind %d imm %d length %d", i, frame[0], imm, length)
		}
	}
	for i, c := range sink.waitN(t, small+1) {
		if c.Op != rdma.OpSend || c.Status != rdma.StatusOK || c.WRID != uint64(i) {
			t.Fatalf("completion %d = %+v, want send %d ok", i, c, i)
		}
	}
}
