package session_test

import (
	"errors"
	"slices"
	"testing"

	"rdmc/internal/rdma"
	"rdmc/internal/session"
	"rdmc/internal/simhost"
	"rdmc/internal/simnet"
)

const (
	testID    = 100
	blockSize = 4096
	msgBytes  = 32768
)

// node records everything one member's session reports.
type node struct {
	mgr     *session.Manager
	seqs    []uint64
	at      []float64       // virtual time of each delivery
	payload map[uint64]byte // first byte of each delivered message
	epochs  []uint64
	states  []session.State
	onEpoch func(n *node, epoch uint64, members []rdma.NodeID)
	onState func(n *node, s session.State)
}

func testGrid(t *testing.T, n int, seed int64) *simhost.Grid {
	t.Helper()
	g, err := simhost.New(simhost.Config{
		Cluster: simnet.ClusterConfig{
			Nodes:         n,
			LinkBandwidth: 1e9,
			Latency:       1e-6,
			RetryTimeout:  1e-4,
			CPU:           simnet.CPUConfig{Mode: simnet.ModePolling},
		},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newSessions(t *testing.T, g *simhost.Grid) []*node {
	t.Helper()
	members := make([]rdma.NodeID, g.Nodes())
	for i := range members {
		members[i] = rdma.NodeID(i)
	}
	nodes := make([]*node, g.Nodes())
	for i := range nodes {
		nd := &node{payload: make(map[uint64]byte)}
		cfg := session.Config{
			ID:        testID,
			Members:   members,
			BlockSize: blockSize,
		}
		cbs := session.Callbacks{
			Deliver: func(seq uint64, data []byte, size int) {
				nd.seqs = append(nd.seqs, seq)
				nd.at = append(nd.at, g.Sim().Now())
				nd.payload[seq] = data[0]
			},
			OnEpoch: func(epoch uint64, mem []rdma.NodeID) {
				nd.epochs = append(nd.epochs, epoch)
				if nd.onEpoch != nil {
					nd.onEpoch(nd, epoch, mem)
				}
			},
			OnState: func(s session.State, err error) {
				nd.states = append(nd.states, s)
				if nd.onState != nil {
					nd.onState(nd, s)
				}
			},
		}
		mgr, err := session.New(g.Engine(i), g.Network().Provider(rdma.NodeID(i)), cfg, cbs)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nd.mgr = mgr
		nodes[i] = nd
	}
	return nodes
}

// msg builds a message whose first byte identifies it.
func msg(tag byte) []byte {
	b := make([]byte, msgBytes)
	b[0] = tag
	return b
}

// checkGapFree asserts a node delivered sequences 0..len-1 in order.
func checkGapFree(t *testing.T, who int, seqs []uint64) {
	t.Helper()
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("node %d: delivery %d has sequence %d (gap or duplicate)", who, i, s)
		}
	}
}

// checkAgreement asserts two nodes delivered identical content for every
// sequence both hold.
func checkAgreement(t *testing.T, a, b *node, ia, ib int) {
	t.Helper()
	for seq, pa := range a.payload {
		if pb, ok := b.payload[seq]; ok && pa != pb {
			t.Fatalf("nodes %d and %d disagree on sequence %d: %#x vs %#x", ia, ib, seq, pa, pb)
		}
	}
}

func TestSessionDeliversInOrderWithoutFailures(t *testing.T) {
	g := testGrid(t, 4, 1)
	nodes := newSessions(t, g)
	const k = 5
	for i := 0; i < k; i++ {
		if err := nodes[0].mgr.Send(msg(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	g.Run()
	for i, nd := range nodes {
		if len(nd.seqs) != k {
			t.Fatalf("node %d delivered %d messages, want %d", i, len(nd.seqs), k)
		}
		checkGapFree(t, i, nd.seqs)
		for s := 0; s < k; s++ {
			if nd.payload[uint64(s)] != byte(s) {
				t.Errorf("node %d sequence %d payload = %#x", i, s, nd.payload[uint64(s)])
			}
		}
		if e := nd.mgr.Epoch(); e != 1 {
			t.Errorf("node %d epoch = %d, want 1", i, e)
		}
	}
	if st := nodes[0].mgr.Stats(); st.Resent != 0 || st.Duplicates != 0 {
		t.Errorf("failure-free run recorded resends: %+v", st)
	}
}

func TestSessionNonRootSendRejected(t *testing.T) {
	g := testGrid(t, 2, 1)
	nodes := newSessions(t, g)
	if err := nodes[1].mgr.Send(msg(1)); !errors.Is(err, session.ErrNotRoot) {
		t.Fatalf("non-root send error = %v, want ErrNotRoot", err)
	}
	if err := nodes[0].mgr.Send(nil); err == nil {
		t.Fatal("empty send accepted")
	}
}

func TestSessionRelayCrashRecoversAndResends(t *testing.T) {
	const k = 8
	survivors := []int{0, 1, 3}
	sendAll := func(nodes []*node) {
		for i := 0; i < k; i++ {
			if err := nodes[0].mgr.Send(msg(byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A fault-free pass on an identical grid times the deliveries. The crash
	// instant is taken midway between the first and second survivor's
	// delivery of one message, where one survivor holds a message the others
	// do not yet — so the re-send both fills a real gap and exercises
	// duplicate suppression, whatever the fabric's timing.
	ref := testGrid(t, 4, 2)
	refNodes := newSessions(t, ref)
	sendAll(refNodes)
	ref.Run()
	crashAt := -1.0
	for s := 0; s < k && crashAt < 0; s++ {
		var times []float64
		for _, i := range survivors {
			if len(refNodes[i].at) != k {
				t.Fatalf("fault-free survivor %d delivered %d messages, want %d", i, len(refNodes[i].at), k)
			}
			times = append(times, refNodes[i].at[s])
		}
		slices.Sort(times)
		if times[1] > times[0] {
			crashAt = (times[0] + times[1]) / 2
		}
	}
	if crashAt < 0 {
		t.Fatal("fault-free run delivered every message to all survivors at once")
	}
	t.Logf("node 2 crashes at %.4g s", crashAt)

	g := testGrid(t, 4, 2)
	nodes := newSessions(t, g)
	sendAll(nodes)
	g.Sim().At(crashAt, func() { g.FailNode(2) })
	g.Run()

	for _, i := range survivors {
		nd := nodes[i]
		if len(nd.seqs) != k {
			t.Fatalf("survivor %d delivered %d messages, want %d", i, len(nd.seqs), k)
		}
		checkGapFree(t, i, nd.seqs)
		for s := 0; s < k; s++ {
			if nd.payload[uint64(s)] != byte(s) {
				t.Errorf("survivor %d sequence %d payload = %#x", i, s, nd.payload[uint64(s)])
			}
		}
		if e := nd.mgr.Epoch(); e != 2 {
			t.Errorf("survivor %d epoch = %d, want 2", i, e)
		}
		if got := nd.mgr.Members(); len(got) != 3 {
			t.Errorf("survivor %d view = %v, want 3 members", i, got)
		}
	}
	st := nodes[0].mgr.Stats()
	if st.Resent == 0 {
		t.Error("root re-sent nothing across the view change")
	}
	if st.ResentBytes != st.Resent*msgBytes {
		t.Errorf("resent bytes = %d for %d resends", st.ResentBytes, st.Resent)
	}
	if st.LastRecovery <= 0 {
		t.Error("recovery latency not recorded")
	}
	// At least one survivor had delivered some re-sent prefix already.
	var dups uint64
	for _, i := range survivors {
		dups += nodes[i].mgr.Stats().Duplicates
	}
	if dups == 0 {
		t.Error("no duplicate suppression recorded despite re-sends")
	}
}

func TestSessionRootCrashPromotesNewRootAndStaysLive(t *testing.T) {
	g := testGrid(t, 4, 3)
	nodes := newSessions(t, g)
	const k = 6
	const epilogue = 2
	for i := range nodes {
		nodes[i].onEpoch = func(nd *node, epoch uint64, mem []rdma.NodeID) {
			if epoch > 1 && nd.mgr.IsRoot() {
				for j := 0; j < epilogue; j++ {
					if err := nd.mgr.Send(msg(0xE0 + byte(j))); err != nil {
						t.Errorf("epilogue send: %v", err)
					}
				}
			}
		}
	}
	for i := 0; i < k; i++ {
		if err := nodes[0].mgr.Send(msg(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	g.Sim().At(1e-4, func() { g.FailNode(0) })
	g.Run()

	survivors := []int{1, 2, 3}
	ref := nodes[survivors[0]]
	for _, i := range survivors {
		nd := nodes[i]
		checkGapFree(t, i, nd.seqs)
		if len(nd.seqs) != len(ref.seqs) {
			t.Fatalf("survivors delivered different counts: node %d has %d, node %d has %d",
				i, len(nd.seqs), survivors[0], len(ref.seqs))
		}
		checkAgreement(t, nd, ref, i, survivors[0])
		if e := nd.mgr.Epoch(); e != 2 {
			t.Errorf("survivor %d epoch = %d, want 2", i, e)
		}
		if root := nd.mgr.Members()[0]; root == 0 {
			t.Errorf("survivor %d still lists the dead root", i)
		}
	}
	if len(ref.seqs) < epilogue {
		t.Fatalf("survivors delivered %d messages, want at least the %d epilogue sends", len(ref.seqs), epilogue)
	}
	// The tail must be the new root's epilogue — proof the session is live
	// after losing its sender.
	last := ref.payload[uint64(len(ref.seqs)-1)]
	if last != 0xE0+epilogue-1 {
		t.Errorf("last delivered payload = %#x, want epilogue tag %#x", last, 0xE0+epilogue-1)
	}
}

func TestSessionQueuesSendsWhileWedged(t *testing.T) {
	g := testGrid(t, 4, 4)
	nodes := newSessions(t, g)
	const k = 6
	sent := false
	nodes[0].onState = func(nd *node, s session.State) {
		if s == session.StateWedged && !sent {
			sent = true
			if err := nd.mgr.Send(msg(0xAA)); err != nil {
				t.Errorf("send while wedged: %v", err)
			}
		}
	}
	for i := 0; i < k; i++ {
		if err := nodes[0].mgr.Send(msg(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	g.Sim().At(1e-4, func() { g.FailNode(3) })
	g.Run()

	if !sent {
		t.Fatal("root never wedged")
	}
	for _, i := range []int{0, 1, 2} {
		nd := nodes[i]
		if len(nd.seqs) != k+1 {
			t.Fatalf("survivor %d delivered %d messages, want %d", i, len(nd.seqs), k+1)
		}
		checkGapFree(t, i, nd.seqs)
		if nd.payload[uint64(k)] != 0xAA {
			t.Errorf("survivor %d final payload = %#x, want the queued send", i, nd.payload[uint64(k)])
		}
	}
}

func TestSessionFalseSuspicionEvictsTheAccused(t *testing.T) {
	g := testGrid(t, 4, 5)
	nodes := newSessions(t, g)
	const k = 4
	for i := 0; i < k; i++ {
		if err := nodes[0].mgr.Send(msg(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The network stays healthy; the failure detector simply (wrongly)
	// accuses node 3 on every other node. The majority's verdict must win
	// and node 3 must concede.
	g.Sim().At(1e-4, func() {
		for i := 0; i < 3; i++ {
			g.Engine(i).NotifyFailure(3)
		}
	})
	g.Run()

	for _, i := range []int{0, 1, 2} {
		if e := nodes[i].mgr.Epoch(); e != 2 {
			t.Errorf("survivor %d epoch = %d, want 2", i, e)
		}
		if len(nodes[i].seqs) != k {
			t.Errorf("survivor %d delivered %d, want %d", i, len(nodes[i].seqs), k)
		}
		checkGapFree(t, i, nodes[i].seqs)
	}
	st, err := nodes[3].mgr.State()
	if st != session.StateEvicted || !errors.Is(err, session.ErrEvicted) {
		t.Fatalf("accused node state = %v (%v), want evicted", st, err)
	}
	if err := nodes[3].mgr.Send(msg(1)); !errors.Is(err, session.ErrEvicted) {
		t.Errorf("evicted send error = %v, want ErrEvicted", err)
	}
}

func TestSessionPartitionedMinorityHoldsAPrefix(t *testing.T) {
	g := testGrid(t, 4, 6)
	nodes := newSessions(t, g)
	const k = 8
	for i := 0; i < k; i++ {
		if err := nodes[0].mgr.Send(msg(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Cut node 3 off mid-stream without any detector help: only broken
	// in-flight work reveals the partition, on both sides.
	g.Sim().At(1e-4, func() {
		c := g.Cluster()
		for i := 0; i < 3; i++ {
			c.BreakLink(3, simnet.NodeID(i))
			c.BreakLink(simnet.NodeID(i), 3)
		}
	})
	g.Run()

	for _, i := range []int{0, 1, 2} {
		nd := nodes[i]
		if len(nd.seqs) != k {
			t.Fatalf("majority node %d delivered %d messages, want %d", i, len(nd.seqs), k)
		}
		checkGapFree(t, i, nd.seqs)
		if e := nd.mgr.Epoch(); e != 2 {
			t.Errorf("majority node %d epoch = %d, want 2", i, e)
		}
	}
	// The minority holds a consistent gap-free prefix and never installs
	// an epoch of its own.
	m := nodes[3]
	checkGapFree(t, 3, m.seqs)
	if len(m.seqs) > k {
		t.Fatalf("minority delivered %d messages, more than were sent", len(m.seqs))
	}
	checkAgreement(t, m, nodes[0], 3, 0)
	if e := m.mgr.Epoch(); e != 1 {
		t.Errorf("minority epoch = %d — a minority must never install", e)
	}
	if m.mgr.IsRoot() {
		t.Error("minority promoted itself to root")
	}
}

func TestSessionSequentialFailuresReachQuorumFloor(t *testing.T) {
	g := testGrid(t, 5, 7)
	nodes := newSessions(t, g)
	const k = 10
	for i := 0; i < k; i++ {
		if err := nodes[0].mgr.Send(msg(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	g.Sim().At(1e-4, func() { g.FailNode(4) })
	g.Sim().At(3e-4, func() { g.FailNode(3) })
	g.Run()

	for _, i := range []int{0, 1, 2} {
		nd := nodes[i]
		if len(nd.seqs) != k {
			t.Fatalf("survivor %d delivered %d messages, want %d", i, len(nd.seqs), k)
		}
		checkGapFree(t, i, nd.seqs)
		if e := nd.mgr.Epoch(); e != 3 {
			t.Errorf("survivor %d epoch = %d, want 3 after two view changes", i, e)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	g := testGrid(t, 2, 1)
	if _, err := session.New(g.Engine(0), g.Network().Provider(0), session.Config{
		ID: 1, Members: []rdma.NodeID{0}, BlockSize: blockSize,
	}, session.Callbacks{}); err == nil {
		t.Error("single-member session accepted")
	}
	if _, err := session.New(g.Engine(0), g.Network().Provider(0), session.Config{
		ID: 1, Members: []rdma.NodeID{0, 1},
	}, session.Callbacks{}); err == nil {
		t.Error("zero block size accepted")
	}
}

func TestSessionCloseRejectsFurtherSends(t *testing.T) {
	g := testGrid(t, 2, 1)
	nodes := newSessions(t, g)
	if err := nodes[0].mgr.Send(msg(1)); err != nil {
		t.Fatal(err)
	}
	g.Run()
	if err := nodes[0].mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].mgr.Send(msg(2)); !errors.Is(err, session.ErrClosed) {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if err := nodes[0].mgr.Close(); err != nil {
		t.Errorf("second close = %v", err)
	}
}
