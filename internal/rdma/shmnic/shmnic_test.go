package shmnic

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"rdmc/internal/rdma"
)

// newDomain starts n standalone providers, nodes 0..n-1, in one exchange.
func newDomain(t *testing.T, n int) (*Exchange, []*Provider) {
	t.Helper()
	x := NewExchange()
	hosts := make([]*Provider, n)
	for i := range hosts {
		p, err := New(Config{NodeID: rdma.NodeID(i), Exchange: x})
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = p
		t.Cleanup(func() { _ = p.Close() })
	}
	return x, hosts
}

// connect opens both halves of the queue pair (a, b, token).
func connect(t *testing.T, a, b *Provider, token uint64) (*endpoint, *endpoint) {
	t.Helper()
	qa, err := a.Connect(b.NodeID(), token)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := b.Connect(a.NodeID(), token)
	if err != nil {
		t.Fatal(err)
	}
	return qa.(*endpoint), qb.(*endpoint)
}

// TestPairsDoNotShareALock holds one queue pair's lock and moves a message
// over another queue pair of the same exchange: posts, matching and the
// copy on one pair must not wait for any other pair.
func TestPairsDoNotShareALock(t *testing.T) {
	_, hosts := newDomain(t, 4)
	recvd := make(chan rdma.Completion, 1)
	for _, h := range hosts {
		h.SetHandler(func(c rdma.Completion) {
			if c.Op == rdma.OpRecv {
				recvd <- c
			}
		})
	}
	q0, _ := connect(t, hosts[0], hosts[1], 5)
	q2, q3 := connect(t, hosts[2], hosts[3], 5)

	q0.p.mu.Lock()
	defer q0.p.mu.Unlock()
	payload := bytes.Repeat([]byte{0x5a}, 64<<10)
	go func() {
		if err := q3.PostRecv(rdma.MakeBuffer(make([]byte, len(payload))), 1); err != nil {
			t.Error(err)
		}
		if err := q2.PostSend(rdma.MakeBuffer(payload), 0, 2); err != nil {
			t.Error(err)
		}
	}()
	select {
	case c := <-recvd:
		if c.Status != rdma.StatusOK || !bytes.Equal(c.Data, payload) {
			t.Fatalf("pair (2,3) delivered status %v, %d bytes", c.Status, len(c.Data))
		}
	case <-time.After(time.Second):
		t.Fatal("pair (2,3) blocked behind pair (0,1)'s lock")
	}
}

// TestConcurrentConnectPairsEachTokenOnce races both sides' Connect for 200
// tokens, then runs a FIFO burst each way on every queue pair at once.
func TestConcurrentConnectPairsEachTokenOnce(t *testing.T) {
	const tokens, burst, size = 200, 8, 512
	x, hosts := newDomain(t, 2)
	payload := func(from, token, i int) []byte {
		b := bytes.Repeat([]byte{byte(i)}, size)
		binary.BigEndian.PutUint32(b, uint32(from<<16|token))
		return b
	}

	var (
		mu  sync.Mutex
		got = [2]map[uint64][][]byte{{}, {}}
		wg  sync.WaitGroup
	)
	wg.Add(2 * tokens * burst)
	for i, h := range hosts {
		h.SetHandler(func(c rdma.Completion) {
			if c.Status != rdma.StatusOK {
				t.Errorf("node %d: %v completion with status %v", i, c.Op, c.Status)
				return
			}
			if c.Op != rdma.OpRecv {
				return
			}
			mu.Lock()
			got[i][c.Token] = append(got[i][c.Token], append([]byte(nil), c.Data...))
			mu.Unlock()
			wg.Done()
		})
	}

	var qps [2][tokens]*endpoint
	var conn sync.WaitGroup
	gate := make(chan struct{})
	for side := range hosts {
		for tok := 0; tok < tokens; tok++ {
			conn.Add(1)
			go func() {
				defer conn.Done()
				<-gate
				qp, err := hosts[side].Connect(rdma.NodeID(1-side), uint64(tok))
				if err != nil {
					t.Error(err)
					return
				}
				qps[side][tok] = qp.(*endpoint)
			}()
		}
	}
	close(gate)
	conn.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for tok := 0; tok < tokens; tok++ {
		a, b := qps[0][tok], qps[1][tok]
		if a.p != b.p {
			t.Fatalf("token %d: halves hold different locks", tok)
		}
		a.p.mu.Lock()
		linked := a.remote == b && b.remote == a
		a.p.mu.Unlock()
		if !linked {
			t.Fatalf("token %d: halves not paired with each other", tok)
		}
	}
	x.mu.Lock()
	records := len(x.pairs)
	x.mu.Unlock()
	if records != tokens {
		t.Fatalf("%d pair records for %d tokens", records, tokens)
	}

	for side := range hosts {
		for tok := 0; tok < tokens; tok++ {
			go func() {
				qp := qps[side][tok]
				for i := 0; i < burst; i++ {
					if err := qp.PostRecv(rdma.MakeBuffer(make([]byte, size)), uint64(i)); err != nil {
						t.Error(err)
					}
				}
				for i := 0; i < burst; i++ {
					if err := qp.PostSend(rdma.MakeBuffer(payload(side, tok, i)), 0, uint64(i)); err != nil {
						t.Error(err)
					}
				}
			}()
		}
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the bursts")
	}
	mu.Lock()
	defer mu.Unlock()
	for side := range hosts {
		for tok := 0; tok < tokens; tok++ {
			msgs := got[1-side][uint64(tok)]
			for i, m := range msgs {
				if !bytes.Equal(m, payload(side, tok, i)) {
					t.Fatalf("token %d, %d→%d: message %d out of order or corrupt", tok, side, 1-side, i)
				}
			}
		}
	}
}

// steadyRound connects two hosts and returns a warmed 1 MiB send/receive
// round.
func steadyRound(t *testing.T) func() {
	t.Helper()
	_, hosts := newDomain(t, 2)
	done := make(chan struct{}, 2)
	for _, h := range hosts {
		h.SetHandler(func(rdma.Completion) { done <- struct{}{} })
	}
	qa, qb := connect(t, hosts[0], hosts[1], 1)
	payload := bytes.Repeat([]byte{0x3c}, 1<<20)
	recv := make([]byte, len(payload))
	round := func() {
		if err := qb.PostRecv(rdma.MakeBuffer(recv), 1); err != nil {
			t.Fatal(err)
		}
		if err := qa.PostSend(rdma.MakeBuffer(payload), 0, 2); err != nil {
			t.Fatal(err)
		}
		<-done
		<-done
	}
	for i := 0; i < 100; i++ {
		round()
	}
	return round
}

// TestSteadyStateAllocationFree pins a warmed 1 MiB send/receive round at
// zero allocations: posting, matching, the copy and completion dispatch all
// reuse memory. The average tolerates a stray runtime allocation without
// letting a real per-op one through.
func TestSteadyStateAllocationFree(t *testing.T) {
	round := steadyRound(t)
	if avg := testing.AllocsPerRun(200, round); avg > 0.5 {
		t.Errorf("steady-state allocations = %.2f per round, want 0", avg)
	}
}

// TestSteadyStateMallocTotal bounds the allocations of 200 warmed rounds
// in total rather than per round, in the race build too, where sync.Pool
// drops a quarter of what it is handed: what the data plane recycles must
// live on free lists, not in a sync.Pool.
func TestSteadyStateMallocTotal(t *testing.T) {
	round := steadyRound(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n >= 20 {
		t.Errorf("200 steady-state rounds made %d allocations, want fewer than 20", n)
	}
}

// TestClosedPairsLeaveBothTables connects and closes queue pairs 1,000 times
// over ten reused tokens: each Connect must build a fresh working pair, and
// afterwards neither the hosts' queue-pair tables nor the exchange's pair
// table may hold anything.
func TestClosedPairsLeaveBothTables(t *testing.T) {
	x, hosts := newDomain(t, 2)
	recvd := make(chan struct{}, 1)
	hosts[0].SetHandler(func(rdma.Completion) {})
	hosts[1].SetHandler(func(c rdma.Completion) {
		if c.Op == rdma.OpRecv && c.Status == rdma.StatusOK {
			recvd <- struct{}{}
		}
	})
	var last [10]*endpoint
	for i := 0; i < 1000; i++ {
		tok := i % len(last)
		qa, qb := connect(t, hosts[0], hosts[1], uint64(tok))
		if qa == last[tok] {
			t.Fatalf("cycle %d: Connect returned the closed queue pair", i)
		}
		last[tok] = qa
		if err := qb.PostRecv(rdma.MakeBuffer(make([]byte, 8)), 1); err != nil {
			t.Fatal(err)
		}
		if err := qa.PostSend(rdma.MakeBuffer([]byte("payload!")), 0, 2); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		<-recvd
		first, second := qa, qb
		if i%2 == 1 {
			first, second = qb, qa
		}
		_ = first.Close()
		_ = second.Close()
	}
	x.mu.Lock()
	records := len(x.pairs)
	x.mu.Unlock()
	if records != 0 {
		t.Errorf("exchange holds %d pair records after every pair closed", records)
	}
	// Shutdown hands back whatever the host's table still holds; finish the
	// close by hand since the providers are then already marked closed.
	for _, h := range hosts {
		if qps, _ := h.Shutdown(); len(qps) != 0 {
			t.Errorf("node %d table holds %d closed queue pairs", h.NodeID(), len(qps))
		}
		h.CloseCQ()
		x.Deregister(h)
	}
}
