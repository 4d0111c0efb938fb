package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"rdmc/internal/core"
	"rdmc/internal/rdma"
)

// handNIC is a provider a test drives by hand: it records posted receives,
// and a receive completes only when the test lands a message on it. Methods
// the engine does not call on a receiver are left to the nil embedded
// Provider.
type handNIC struct {
	rdma.Provider
	batch func([]rdma.Completion)

	mu       sync.Mutex
	qp       *handQP // the one queue pair connected so far
	connects int
}

type handQP struct {
	peer  rdma.NodeID
	token uint64
	nic   *handNIC
	recvs []handRecv // posted, oldest first
}

type handRecv struct {
	buf  rdma.Buffer
	wrID uint64
}

func (n *handNIC) NodeID() rdma.NodeID                       { return 1 }
func (n *handNIC) SetBatchHandler(h func([]rdma.Completion)) { n.batch = h }
func (n *handNIC) Close() error                              { return nil }

func (n *handNIC) Connect(peer rdma.NodeID, token uint64) (rdma.QueuePair, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.connects++
	n.qp = &handQP{peer: peer, token: token, nic: n}
	return n.qp, nil
}

func (q *handQP) Peer() rdma.NodeID                                  { return q.peer }
func (q *handQP) Token() uint64                                      { return q.token }
func (q *handQP) PostSend(rdma.Buffer, uint32, uint64) error         { return nil }
func (q *handQP) PostWrite(rdma.RegionID, int, []byte, uint64) error { return nil }
func (q *handQP) Close() error                                       { return nil }

func (q *handQP) PostRecv(buf rdma.Buffer, wrID uint64) error {
	q.nic.mu.Lock()
	q.recvs = append(q.recvs, handRecv{buf: buf, wrID: wrID})
	q.nic.mu.Unlock()
	return nil
}

// posted reports how many receives wait on the queue pair.
func (n *handNIC) posted() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.qp.recvs)
}

// land completes the oldest posted receive with payload and imm. With no
// receive posted it forges the completion of a standing receive anyway, as
// a source sending beyond its credit would make one.
func (n *handNIC) land(imm uint32, payload []byte) {
	n.mu.Lock()
	q := n.qp
	c := rdma.Completion{
		Op: rdma.OpRecv, Status: rdma.StatusOK, Peer: q.peer, Token: q.token,
		WRID: ^uint64(0), Imm: imm, Bytes: len(payload),
	}
	if len(q.recvs) > 0 {
		r := q.recvs[0]
		q.recvs = q.recvs[1:]
		copy(r.buf.Data, payload)
		c.WRID, c.Data = r.wrID, r.buf.Data[:len(payload)]
	}
	n.mu.Unlock()
	n.batch([]rdma.Completion{c})
}

// handCtrl records the control messages the engine sends.
type handCtrl struct {
	mu      sync.Mutex
	sent    []core.CtrlMsg
	handler func(rdma.NodeID, core.CtrlMsg)
}

func (c *handCtrl) Send(_ rdma.NodeID, m core.CtrlMsg) error {
	c.mu.Lock()
	c.sent = append(c.sent, m)
	c.mu.Unlock()
	return nil
}

func (c *handCtrl) SetHandler(fn func(rdma.NodeID, core.CtrlMsg)) { c.handler = fn }

// oneBlockGrants returns the Count of every one-block credit frame sent.
func (c *handCtrl) oneBlockGrants() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var counts []int
	for _, m := range c.sent {
		if m.Kind == core.CtrlReadyBlock && m.Seq == 1<<31-1 {
			counts = append(counts, m.Count)
		}
	}
	return counts
}

type handHost struct{}

func (handHost) Now() time.Duration          { return 0 }
func (handHost) ChargeCopy(_ int, fn func()) { fn() }

// parkedReceiver is member 1 of a two-member group whose root the test
// plays. Its one-block path is armed, message 1 is its active transfer with
// the Incoming callback parked, and messages 2..window+1 have landed behind
// it.
type parkedReceiver struct {
	g       *core.Group
	nic     *handNIC
	ctrl    *handCtrl
	msgs    [][]byte // by sequence
	release chan struct{}
	landed  chan struct{} // closed once the call that landed message 1 returns

	mu        sync.Mutex
	delivered []int
	failures  []error
}

func newParkedReceiver(t *testing.T, window int) *parkedReceiver {
	t.Helper()
	p := &parkedReceiver{
		nic: &handNIC{}, ctrl: &handCtrl{},
		release: make(chan struct{}), landed: make(chan struct{}),
	}
	parked := make(chan struct{})
	incoming := 0
	e := core.NewEngine(p.nic, p.ctrl, handHost{})
	g, err := e.CreateGroup(1, []rdma.NodeID{0, 1}, core.GroupConfig{
		BlockSize:  1 << 10,
		RecvWindow: window,
		Callbacks: core.Callbacks{
			Incoming: func(size int) []byte {
				if incoming++; incoming == 2 {
					close(parked)
					<-p.release
				}
				return make([]byte, size)
			},
			Completion: func(seq int, data []byte, _ int) {
				if !bytes.Equal(data, p.msgs[seq]) {
					t.Errorf("message %d delivered corrupt", seq)
				}
				p.mu.Lock()
				p.delivered = append(p.delivered, seq)
				p.mu.Unlock()
			},
			Failure: func(err error) {
				p.mu.Lock()
				p.failures = append(p.failures, err)
				p.mu.Unlock()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.g = g
	for seq := 0; seq <= window+2; seq++ {
		p.msgs = append(p.msgs, bytes.Repeat([]byte{byte(seq + 1)}, 100+seq))
	}

	// Message 0's prepare arms the path with the whole window, granted in
	// one frame; the message itself then lands on a standing receive.
	p.ctrl.handler(0, core.CtrlMsg{Kind: core.CtrlPrepare, Group: 1, Seq: 0, Size: 100, BS: 1 << 10})
	if got := p.ctrl.oneBlockGrants(); len(got) != 1 || got[0] != window {
		t.Fatalf("arming granted %v, want one frame of %d", got, window)
	}
	if got := p.nic.posted(); p.nic.connects != 1 || got != window {
		t.Fatalf("armed with %d standing receives on %d queue pairs, want %d on 1", got, p.nic.connects, window)
	}
	p.nic.land(0, p.msgs[0])

	go func() {
		defer close(p.landed)
		p.nic.land(1, p.msgs[1])
	}()
	<-parked
	for seq := 2; seq <= window+1; seq++ {
		p.nic.land(uint32(seq), p.msgs[seq])
	}
	if got := p.nic.posted(); got != 0 {
		t.Fatalf("%d standing receives still posted with a full slot, want 0", got)
	}
	if got := g.Delivered(); got != 1 {
		t.Fatalf("delivered %d messages with message 1 parked, want 1", got)
	}
	return p
}

// finish releases the parked Incoming and waits for its chain to return.
func (p *parkedReceiver) finish() {
	close(p.release)
	<-p.landed
}

// TestOneBlockWindowSlot parks a receiver's Incoming callback on a one-block
// message while the source fills the rest of its window. The receiver holds
// RecvWindow arrivals behind the parked one and, released, delivers them all
// in order, re-granting its standing receives RecvWindow at a time. An
// arrival beyond the window's credit fails the group, and Wedge lists the
// waiting arrivals in sequence order.
func TestOneBlockWindowSlot(t *testing.T) {
	for _, window := range []int{1, 4} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) { testWindowSlot(t, window) })
	}
}

func testWindowSlot(t *testing.T, window int) {
	t.Run("deliver", func(t *testing.T) {
		p := newParkedReceiver(t, window)
		p.finish()
		var want []int
		for seq := 0; seq <= window+1; seq++ {
			want = append(want, seq)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if len(p.failures) != 0 || !slices.Equal(p.delivered, want) {
			t.Fatalf("window %d: delivered %v, failures %v; want %v", window, p.delivered, p.failures, want)
		}
		// Arming granted one window; the window+2 activations since
		// re-granted one more in a single frame, with two re-posts owed.
		wantGrants := []int{window, window}
		if window == 1 {
			wantGrants = []int{1, 1, 1, 1}
		}
		if got := p.ctrl.oneBlockGrants(); !slices.Equal(got, wantGrants) {
			t.Fatalf("window %d: one-block grants %v, want %v", window, got, wantGrants)
		}
	})
	t.Run("beyond credit", func(t *testing.T) {
		p := newParkedReceiver(t, window)
		p.nic.land(uint32(window+2), p.msgs[window+2])
		p.finish()
		if p.g.Err() == nil {
			t.Fatalf("window %d: an arrival beyond the credit left the group running", window)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if len(p.failures) != 1 || len(p.delivered) != 1 {
			t.Fatalf("window %d: delivered %v, failures %v; want [0] and one failure", window, p.delivered, p.failures)
		}
	})
	t.Run("wedge", func(t *testing.T) {
		p := newParkedReceiver(t, window)
		ds := p.g.Wedge()
		p.finish()
		var seqs []int
		for _, ps := range ds.Pending {
			if ps.Size != int64(len(p.msgs[ps.Seq])) {
				t.Errorf("pending message %d reports %d bytes, want %d", ps.Seq, ps.Size, len(p.msgs[ps.Seq]))
			}
			seqs = append(seqs, ps.Seq)
		}
		var want []int
		for seq := 2; seq <= window+1; seq++ {
			want = append(want, seq)
		}
		if ds.Delivered != 1 || ds.InFlightSeq != 1 || !slices.Equal(seqs, want) {
			t.Fatalf("window %d: drain state delivered %d, in flight %d, pending %v; want 1, 1, %v",
				window, ds.Delivered, ds.InFlightSeq, seqs, want)
		}
	})
}
