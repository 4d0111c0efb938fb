package nicbase

import (
	"slices"
	"sync"
	"testing"

	"rdmc/internal/rdma"
)

// fakeQP is a minimal rdma.QueuePair for table tests.
type fakeQP struct {
	peer   rdma.NodeID
	token  uint64
	closed bool
}

func (q *fakeQP) Peer() rdma.NodeID                                  { return q.peer }
func (q *fakeQP) Token() uint64                                      { return q.token }
func (q *fakeQP) PostSend(rdma.Buffer, uint32, uint64) error         { return nil }
func (q *fakeQP) PostRecv(rdma.Buffer, uint64) error                 { return nil }
func (q *fakeQP) PostWrite(rdma.RegionID, int, []byte, uint64) error { return nil }
func (q *fakeQP) Close() error                                       { q.closed = true; return nil }

func newBase(cq *CompletionQueue) *Base {
	b := &Base{}
	b.Init(3, cq)
	return b
}

func TestEventCQDeliversSerially(t *testing.T) {
	var queue []func()
	cq := NewEventCQ(func(fn func()) { queue = append(queue, fn) })
	var got []uint64
	cq.SetHandler(func(c rdma.Completion) { got = append(got, c.WRID) })
	cq.Post(rdma.Completion{WRID: 1})
	cq.Post(rdma.Completion{WRID: 2})
	if len(got) != 0 {
		t.Fatal("event CQ delivered before the loop ran")
	}
	for _, fn := range queue {
		fn()
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("deliveries = %v, want [1 2]", got)
	}
}

// TestEventCQRecyclesCarriers: a steady stream of event-mode posts allocates
// nothing, and a consumer that posts from inside its own delivery — the
// engine does, every block — neither loses the batch it is holding nor
// receives it twice.
func TestEventCQRecyclesCarriers(t *testing.T) {
	cq := NewEventCQ(func(fn func()) { fn() })
	var got []uint64
	cq.SetBatchHandler(func(cs []rdma.Completion) {
		first := cs[0].WRID
		if first < 3 {
			cq.PostBatch([]rdma.Completion{{WRID: first + 10}, {WRID: first + 20}})
		}
		if cs[0].WRID != first {
			t.Errorf("batch changed under its consumer: WRID %d became %d", first, cs[0].WRID)
		}
		for _, c := range cs {
			got = append(got, c.WRID)
		}
	})
	cq.Post(rdma.Completion{WRID: 1})
	cq.Post(rdma.Completion{WRID: 2})
	want := []uint64{11, 21, 1, 12, 22, 2}
	if !slices.Equal(got, want) {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
	cq.SetHandler(func(rdma.Completion) {})
	if allocs := testing.AllocsPerRun(100, func() { cq.Post(rdma.Completion{WRID: 5}) }); allocs != 0 {
		t.Errorf("event-mode Post allocates %.1f objects per completion", allocs)
	}
}

func TestEventCQDropsWithoutHandler(t *testing.T) {
	var queue []func()
	cq := NewEventCQ(func(fn func()) { queue = append(queue, fn) })
	cq.Post(rdma.Completion{WRID: 1})
	if len(queue) != 0 {
		t.Fatal("completion submitted with no handler installed")
	}
}

func TestRingCQDrainsOnClose(t *testing.T) {
	cq := NewRingCQ(8)
	var mu sync.Mutex
	var got []uint64
	cq.SetHandler(func(c rdma.Completion) {
		mu.Lock()
		got = append(got, c.WRID)
		mu.Unlock()
	})
	for i := uint64(0); i < 5; i++ {
		cq.Post(rdma.Completion{WRID: i})
	}
	cq.Close() // blocks until the dispatcher drained and exited
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 5 {
		t.Fatalf("delivered %d of 5 completions", len(got))
	}
	for i, id := range got {
		if id != uint64(i) {
			t.Fatalf("deliveries out of order: %v", got)
		}
	}
}

func TestCheckPostGates(t *testing.T) {
	cq := NewEventCQ(func(fn func()) { fn() })
	b := newBase(cq)
	if err := b.CheckPost(); err != rdma.ErrNoHandler {
		t.Errorf("no handler: err = %v, want ErrNoHandler", err)
	}
	cq.SetHandler(func(rdma.Completion) {})
	if err := b.CheckPost(); err != nil {
		t.Errorf("ready provider: err = %v", err)
	}
	b.Shutdown()
	if err := b.CheckPost(); err != rdma.ErrClosed {
		t.Errorf("closed provider: err = %v, want ErrClosed", err)
	}
}

func TestEnsureQPParksAndFinds(t *testing.T) {
	b := newBase(NewEventCQ(func(fn func()) { fn() }))
	key := QPKey{Peer: 1, Token: 42}
	q1, created, err := b.EnsureQP(key, func() rdma.QueuePair { return &fakeQP{peer: 1, token: 42} })
	if err != nil || !created {
		t.Fatalf("first EnsureQP: created=%v err=%v", created, err)
	}
	q2, created, err := b.EnsureQP(key, func() rdma.QueuePair { t.Fatal("create called twice"); return nil })
	if err != nil || created || q2 != q1 {
		t.Fatalf("second EnsureQP: qp=%p created=%v err=%v, want %p", q2, created, err, q1)
	}
}

func TestShutdownHandsBackQueuePairsOnce(t *testing.T) {
	b := newBase(NewEventCQ(func(fn func()) { fn() }))
	_, _, _ = b.EnsureQP(QPKey{Peer: 1, Token: 1}, func() rdma.QueuePair { return &fakeQP{} })
	_ = b.AddQP(QPKey{Peer: 1, Token: 1}, &fakeQP{}) // duplicate key, distinct endpoint
	qps, first := b.Shutdown()
	if len(qps) != 2 || !first {
		t.Fatalf("Shutdown returned %d queue pairs (first=%v), want 2 (true)", len(qps), first)
	}
	if again, first := b.Shutdown(); again != nil || first {
		t.Fatalf("second Shutdown returned %d queue pairs (first=%v), want nil (false)", len(again), first)
	}
	if _, _, err := b.EnsureQP(QPKey{Peer: 2, Token: 2}, nil); err != rdma.ErrClosed {
		t.Errorf("EnsureQP after shutdown: err = %v, want ErrClosed", err)
	}
}

func TestRegionsAndWatchers(t *testing.T) {
	b := newBase(NewEventCQ(func(fn func()) { fn() }))
	if err := b.WatchRegion(9, func(int, int) {}); err != rdma.ErrUnknownRegion {
		t.Errorf("watch unknown region: err = %v, want ErrUnknownRegion", err)
	}
	mem := make([]byte, 16)
	if err := b.RegisterRegion(9, mem); err != nil {
		t.Fatal(err)
	}
	if got := b.Region(9); &got[0] != &mem[0] {
		t.Error("Region returned different memory")
	}
	var fired [][2]int
	if err := b.WatchRegion(9, func(off, n int) { fired = append(fired, [2]int{off, n}) }); err != nil {
		t.Fatal(err)
	}

	if err := b.ApplyWrite(9, 4, 3, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if string(mem[4:7]) != "abc" {
		t.Errorf("region after write = %q", mem[:8])
	}
	// Metadata-only write: no copy, watcher still fires.
	if err := b.ApplyWrite(9, 0, 8, nil); err != nil {
		t.Fatal(err)
	}
	// Unknown region with payload: silently ignored (no registered memory).
	if err := b.ApplyWrite(8, 0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	// Out of range against registered memory: protocol violation.
	if err := b.ApplyWrite(9, 10, 10, make([]byte, 10)); err == nil {
		t.Error("out-of-range write did not error")
	}
	if len(fired) != 2 || fired[0] != [2]int{4, 3} || fired[1] != [2]int{0, 8} {
		t.Errorf("watcher calls = %v", fired)
	}
}

func TestRendezvousPairsMirrorOffers(t *testing.T) {
	r := NewRendezvous[int]()
	if _, ok := r.Match(0, 1, 7, 100); ok {
		t.Fatal("first offer matched")
	}
	other, ok := r.Match(1, 0, 7, 200)
	if !ok || other != 100 {
		t.Fatalf("mirror offer: other=%d ok=%v, want 100 true", other, ok)
	}
	// Same nodes, different token: separate connections.
	if _, ok := r.Match(1, 0, 8, 300); ok {
		t.Fatal("offer with different token matched")
	}
	// Self-connection: two offers from the same node pair up.
	if _, ok := r.Match(2, 2, 1, 400); ok {
		t.Fatal("first self offer matched")
	}
	other, ok = r.Match(2, 2, 1, 500)
	if !ok || other != 400 {
		t.Fatalf("self rendezvous: other=%d ok=%v, want 400 true", other, ok)
	}
}

// TestBufPoolRecycles runs Get/Put cycles through one size class and checks
// the pool's contract, which holds whether or not sync.Pool hands a buffer
// back (the race detector deliberately drops pooled items at random): every
// buffer has the requested length and its class's capacity, and two live
// buffers never share memory.
func TestBufPoolRecycles(t *testing.T) {
	var p BufPool
	for i := 0; i < 100; i++ {
		a, b := p.Get(64), p.Get(32)
		if len(a) != 64 || len(b) != 32 {
			t.Fatalf("cycle %d: Get(64), Get(32) lens = %d, %d", i, len(a), len(b))
		}
		if cap(a) != 64 || cap(b) != 64 {
			t.Fatalf("cycle %d: caps = %d, %d, want the 64-byte class", i, cap(a), cap(b))
		}
		for j := range a {
			a[j] = 0xAA
		}
		for j := range b {
			b[j] = 0x55
		}
		for j := range a {
			if a[j] != 0xAA {
				t.Fatalf("cycle %d: live buffers alias at byte %d", i, j)
			}
		}
		p.Put(a)
		p.Put(b)
	}
	p.Put(nil) // must not panic
	if got := p.Get(128); len(got) != 128 || cap(got) != 128 {
		t.Fatalf("Get(128) after Put(nil): len %d cap %d", len(got), cap(got))
	}
}

func TestBufPoolSizeClasses(t *testing.T) {
	var p BufPool
	// Every request lands in a buffer whose capacity is the exact class size.
	for _, n := range []int{1, 63, 64, 65, 1000, 4096, 1 << 20, 1<<22 - 1, 1 << 22} {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) len = %d", n, len(b))
		}
		if c := cap(b); c < n || c&(c-1) != 0 || c < 1<<poolMinBits || c > 1<<poolMaxBits {
			t.Fatalf("Get(%d) cap = %d, want exact power-of-two class", n, c)
		}
		p.Put(b)
	}
	// Oversize requests bypass the classes entirely...
	big := p.Get(1<<22 + 1)
	if len(big) != 1<<22+1 {
		t.Fatalf("oversize Get len = %d", len(big))
	}
	p.Put(big) // ...and Put drops them rather than poisoning a class.
	if b := p.Get(1 << 22); cap(b) != 1<<22 {
		t.Fatalf("class polluted by oversize Put: cap = %d", cap(b))
	}
	// A foreign buffer with non-class capacity is likewise dropped.
	p.Put(make([]byte, 100))
	if b := p.Get(100); cap(b) != 128 {
		t.Fatalf("class polluted by foreign Put: cap = %d", cap(b))
	}
	p.Put(nil)
	p.Put(make([]byte, 10)) // below the smallest class: dropped
	if got := p.Get(0); got == nil || len(got) != 0 {
		t.Fatalf("Get(0) = %v, want non-nil empty", got)
	}
}

func TestBufPoolConcurrentChurn(t *testing.T) {
	// Hammer overlapping size classes from several goroutines; under -race
	// this proves Get/Put are safe, and the length/zero checks prove a
	// buffer is never shared by two holders at once.
	var p BufPool
	sizes := []int{48, 64, 100, 4096, 65536}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := sizes[(g+i)%len(sizes)]
				b := p.Get(n)
				if len(b) != n {
					t.Errorf("Get(%d) len = %d", n, len(b))
					return
				}
				b[0], b[n-1] = byte(g), byte(g)
				if b[0] != byte(g) || b[n-1] != byte(g) {
					t.Error("buffer shared across holders")
					return
				}
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
}

func TestRingPushDrainFIFO(t *testing.T) {
	r := NewRing(4)
	if r.Capacity() != 4 {
		t.Fatalf("Capacity = %d", r.Capacity())
	}
	// A batch larger than the ring lands in waves: a consumer drains
	// between them, and order is preserved end to end.
	cs := make([]rdma.Completion, 10)
	for i := range cs {
		cs[i] = rdma.Completion{WRID: uint64(i)}
	}
	var got []rdma.Completion
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(got) < len(cs) {
			var ok bool
			got, ok = r.Drain(got)
			if !ok {
				return
			}
		}
	}()
	if !r.PushBatch(cs) {
		t.Error("PushBatch on open ring returned false")
	}
	<-done
	for i, c := range got {
		if c.WRID != uint64(i) {
			t.Fatalf("drained order %v", got)
		}
	}
}

func TestRingCloseUnblocksAndDrainsTail(t *testing.T) {
	r := NewRing(2)
	r.Push(rdma.Completion{WRID: 1})
	r.Push(rdma.Completion{WRID: 2})
	blocked := make(chan bool)
	go func() { blocked <- r.Push(rdma.Completion{WRID: 3}) }() // ring full: blocks
	r.Close()
	if ok := <-blocked; ok {
		t.Error("Push on closed ring returned true")
	}
	// Entries queued before Close still drain; then the ring reports dry.
	out, ok := r.Drain(nil)
	if !ok || len(out) != 2 || out[0].WRID != 1 || out[1].WRID != 2 {
		t.Fatalf("post-close drain = %v ok=%v", out, ok)
	}
	if out, ok := r.Drain(nil); ok || len(out) != 0 {
		t.Fatalf("dry closed ring: drain = %v ok=%v", out, ok)
	}
	if r.Push(rdma.Completion{}) {
		t.Error("Push after close returned true")
	}
	if r.PushBatch([]rdma.Completion{{}}) {
		t.Error("PushBatch after close returned true")
	}
	r.Close() // idempotent
}

func TestRingCQBatchHandlerChunks(t *testing.T) {
	cq := NewRingCQ(maxBatch * 2)
	var mu sync.Mutex
	var batches [][]uint64
	total := 0
	cq.SetBatchHandler(func(cs []rdma.Completion) {
		ids := make([]uint64, len(cs))
		for i, c := range cs {
			ids[i] = c.WRID
		}
		mu.Lock()
		batches = append(batches, ids)
		total += len(cs)
		mu.Unlock()
	})
	n := maxBatch + 7
	cs := make([]rdma.Completion, n)
	for i := range cs {
		cs[i] = rdma.Completion{WRID: uint64(i)}
	}
	cq.PostBatch(cs)
	cq.Close()
	mu.Lock()
	defer mu.Unlock()
	if total != n {
		t.Fatalf("delivered %d of %d", total, n)
	}
	next := uint64(0)
	for _, b := range batches {
		if len(b) > maxBatch {
			t.Fatalf("batch of %d exceeds maxBatch", len(b))
		}
		for _, id := range b {
			if id != next {
				t.Fatalf("out of order: got %d want %d", id, next)
			}
			next++
		}
	}
}
