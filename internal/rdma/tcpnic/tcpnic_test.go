package tcpnic

import (
	"bytes"
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
