package simnic

import (
	"testing"

	"rdmc/internal/rdma"
	"rdmc/internal/simnet"
)

// newPair builds a 2-node (or larger) network with 100 B/s links and 1 ms
// latency and returns connected providers with recording handlers.
func newNet(t *testing.T, nodes int) (*simnet.Sim, *Network, []*Provider, []*[]rdma.Completion) {
	t.Helper()
	sim := simnet.NewSim(1)
	cluster, err := simnet.NewCluster(sim, simnet.ClusterConfig{
		Nodes:         nodes,
		LinkBandwidth: 100,
		Latency:       0.001,
		CPU:           simnet.CPUConfig{Mode: simnet.ModePolling},
		RetryTimeout:  0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(cluster)
	providers := make([]*Provider, nodes)
	logs := make([]*[]rdma.Completion, nodes)
	for i := range providers {
		providers[i] = net.Provider(rdma.NodeID(i))
		log := &[]rdma.Completion{}
		logs[i] = log
		providers[i].SetHandler(func(c rdma.Completion) { *log = append(*log, c) })
	}
	return sim, net, providers, logs
}

func connect(t *testing.T, a, b *Provider, token uint64) (rdma.QueuePair, rdma.QueuePair) {
	t.Helper()
	qa, err := a.Connect(b.NodeID(), token)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := b.Connect(a.NodeID(), token)
	if err != nil {
		t.Fatal(err)
	}
	return qa, qb
}

func TestSendRecvDeliversDataAndImmediate(t *testing.T) {
	sim, _, ps, logs := newNet(t, 2)
	qa, qb := connect(t, ps[0], ps[1], 7)

	payload := []byte("hello rdma world")
	recvBuf := make([]byte, 64)
	if err := qb.PostRecv(rdma.MakeBuffer(recvBuf), 100); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.MakeBuffer(payload), 0xdead, 200); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	sends, recvs := *logs[0], *logs[1]
	if len(sends) != 1 || sends[0].Op != rdma.OpSend || sends[0].WRID != 200 {
		t.Fatalf("sender completions = %+v", sends)
	}
	if len(recvs) != 1 {
		t.Fatalf("receiver completions = %+v", recvs)
	}
	r := recvs[0]
	if r.Op != rdma.OpRecv || r.Status != rdma.StatusOK || r.Imm != 0xdead || r.WRID != 100 {
		t.Errorf("recv completion = %+v", r)
	}
	if string(r.Data) != string(payload) {
		t.Errorf("data = %q, want %q", r.Data, payload)
	}
	if r.Peer != 0 || r.Token != 7 {
		t.Errorf("peer/token = %d/%d, want 0/7", r.Peer, r.Token)
	}
}

func TestSendBeforeRecvIsBuffered(t *testing.T) {
	sim, _, ps, logs := newNet(t, 2)
	qa, qb := connect(t, ps[0], ps[1], 1)
	if err := qa.PostSend(rdma.SizeBuffer(50), 5, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run() // arrival sits unmatched
	if len(*logs[1]) != 0 {
		t.Fatalf("receiver saw completion before posting recv: %+v", *logs[1])
	}
	if err := qb.PostRecv(rdma.SizeBuffer(50), 2); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(*logs[1]) != 1 || (*logs[1])[0].Imm != 5 {
		t.Fatalf("late-posted recv not matched: %+v", *logs[1])
	}
}

func TestPostBeforePairingIsQueued(t *testing.T) {
	sim, _, ps, logs := newNet(t, 2)
	qa, err := ps[0].Connect(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(10), 0, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(*logs[0]) != 0 {
		t.Fatal("send completed before peer connected")
	}
	qb, err := ps[1].Connect(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := qb.PostRecv(rdma.SizeBuffer(10), 2); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(*logs[0]) != 1 || len(*logs[1]) != 1 {
		t.Fatalf("completions after pairing: %d sender, %d receiver", len(*logs[0]), len(*logs[1]))
	}
}

func TestQueuePairFIFOOrder(t *testing.T) {
	sim, _, ps, logs := newNet(t, 2)
	qa, qb := connect(t, ps[0], ps[1], 1)
	for i := uint64(0); i < 5; i++ {
		if err := qb.PostRecv(rdma.SizeBuffer(10), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5; i++ {
		if err := qa.PostSend(rdma.SizeBuffer(10), uint32(i), i); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	recvs := *logs[1]
	if len(recvs) != 5 {
		t.Fatalf("recv count = %d, want 5", len(recvs))
	}
	for i, c := range recvs {
		if c.WRID != uint64(i) || c.Imm != uint32(i) {
			t.Fatalf("out-of-order completion at %d: %+v", i, c)
		}
	}
}

func TestDistinctTokensAreSeparateQueuePairs(t *testing.T) {
	sim, _, ps, logs := newNet(t, 2)
	qa1, qb1 := connect(t, ps[0], ps[1], 1)
	qa2, qb2 := connect(t, ps[0], ps[1], 2)
	_ = qa2
	if err := qb1.PostRecv(rdma.SizeBuffer(10), 11); err != nil {
		t.Fatal(err)
	}
	if err := qb2.PostRecv(rdma.SizeBuffer(10), 22); err != nil {
		t.Fatal(err)
	}
	// Send only on QP 1; QP 2's recv must stay pending.
	if err := qa1.PostSend(rdma.SizeBuffer(10), 0, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	recvs := *logs[1]
	if len(recvs) != 1 || recvs[0].WRID != 11 || recvs[0].Token != 1 {
		t.Fatalf("recv completions = %+v, want exactly the token-1 recv", recvs)
	}
}

func TestOneSidedWriteUpdatesRegionAndWatcher(t *testing.T) {
	sim, _, ps, logs := newNet(t, 2)
	qa, _ := connect(t, ps[0], ps[1], 1)
	region := make([]byte, 32)
	if err := ps[1].RegisterRegion(4, region); err != nil {
		t.Fatal(err)
	}
	var watched [][2]int
	if err := ps[1].WatchRegion(4, func(off, n int) { watched = append(watched, [2]int{off, n}) }); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostWrite(4, 8, []byte("abcd"), 77); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if string(region[8:12]) != "abcd" {
		t.Errorf("region = %q, want write at offset 8", region[:16])
	}
	if len(watched) != 1 || watched[0] != [2]int{8, 4} {
		t.Errorf("watcher calls = %v", watched)
	}
	// Writer sees an OpWrite completion; the target sees no completion.
	if len(*logs[0]) != 1 || (*logs[0])[0].Op != rdma.OpWrite || (*logs[0])[0].WRID != 77 {
		t.Errorf("writer completions = %+v", *logs[0])
	}
	if len(*logs[1]) != 0 {
		t.Errorf("target saw completions for one-sided write: %+v", *logs[1])
	}
}

func TestWatchRegionUnknownRegion(t *testing.T) {
	_, _, ps, _ := newNet(t, 2)
	if err := ps[0].WatchRegion(99, func(int, int) {}); err != rdma.ErrUnknownRegion {
		t.Errorf("err = %v, want ErrUnknownRegion", err)
	}
}

func TestBrokenLinkFailsOutstandingRequests(t *testing.T) {
	sim, net, ps, logs := newNet(t, 2)
	qa, qb := connect(t, ps[0], ps[1], 1)
	if err := qb.PostRecv(rdma.SizeBuffer(1000), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(1000), 0, 2); err != nil {
		t.Fatal(err)
	}
	sim.At(0.5, func() { net.Cluster().BreakLink(0, 1) })
	sim.Run()

	var senderBroken, recvBroken bool
	for _, c := range *logs[0] {
		if c.Status == rdma.StatusBroken {
			senderBroken = true
		}
	}
	for _, c := range *logs[1] {
		if c.Status == rdma.StatusBroken {
			recvBroken = true
		}
	}
	if !senderBroken || !recvBroken {
		t.Errorf("broken completions: sender=%v receiver=%v, want both", senderBroken, recvBroken)
	}
	if err := qa.PostSend(rdma.SizeBuffer(1), 0, 3); err != rdma.ErrBroken {
		t.Errorf("post on broken QP: err = %v, want ErrBroken", err)
	}
}

func TestRecvBufferTooSmallBreaksConnection(t *testing.T) {
	sim, _, ps, _ := newNet(t, 2)
	qa, qb := connect(t, ps[0], ps[1], 1)
	if err := qb.PostRecv(rdma.MakeBuffer(make([]byte, 2)), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.MakeBuffer([]byte("too big")), 0, 2); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if err := qb.PostRecv(rdma.SizeBuffer(1), 3); err != rdma.ErrBroken {
		t.Errorf("post after overflow: err = %v, want ErrBroken", err)
	}
}

func TestPostWithoutHandlerFails(t *testing.T) {
	sim := simnet.NewSim(1)
	cluster, err := simnet.NewCluster(sim, simnet.ClusterConfig{
		Nodes: 2, LinkBandwidth: 100, CPU: simnet.CPUConfig{Mode: simnet.ModePolling},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(cluster)
	p := net.Provider(0)
	qp, err := p.Connect(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := qp.PostSend(rdma.SizeBuffer(1), 0, 1); err != rdma.ErrNoHandler {
		t.Errorf("err = %v, want ErrNoHandler", err)
	}
}

func TestConnectPeerOutOfRange(t *testing.T) {
	_, _, ps, _ := newNet(t, 2)
	if _, err := ps[0].Connect(5, 1); err == nil {
		t.Error("Connect to out-of-range peer succeeded")
	}
}

func TestProviderCloseBreaksQueuePairs(t *testing.T) {
	sim, _, ps, logs := newNet(t, 2)
	qa, qb := connect(t, ps[0], ps[1], 1)
	if err := qb.PostRecv(rdma.SizeBuffer(10), 1); err != nil {
		t.Fatal(err)
	}
	if err := ps[1].Close(); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(*logs[1]) != 1 || (*logs[1])[0].Status != rdma.StatusBroken {
		t.Errorf("close did not fail pending recv: %+v", *logs[1])
	}
	_ = qa
	if _, err := ps[1].Connect(0, 2); err != rdma.ErrClosed {
		t.Errorf("Connect after close: err = %v, want ErrClosed", err)
	}
}

func TestOffloadSkipsCPUCosts(t *testing.T) {
	// With heavy CPU costs, offload should deliver far sooner.
	run := func(offload bool) float64 {
		sim := simnet.NewSim(1)
		cluster, err := simnet.NewCluster(sim, simnet.ClusterConfig{
			Nodes:         2,
			LinkBandwidth: 100,
			CPU: simnet.CPUConfig{
				Mode:           simnet.ModeInterrupt,
				PostCost:       0.5,
				CompletionCost: 0.5,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		net := NewNetwork(cluster)
		a, b := net.Provider(0), net.Provider(1)
		a.SetOffload(offload)
		b.SetOffload(offload)
		var at float64 = -1
		a.SetHandler(func(rdma.Completion) {})
		b.SetHandler(func(rdma.Completion) { at = sim.Now() })
		qa, _ := a.Connect(1, 1)
		qb, _ := b.Connect(0, 1)
		if err := qb.PostRecv(rdma.SizeBuffer(100), 1); err != nil {
			t.Fatal(err)
		}
		if err := qa.PostSend(rdma.SizeBuffer(100), 0, 2); err != nil {
			t.Fatal(err)
		}
		sim.Run()
		return at
	}
	slow := run(false)
	fast := run(true)
	if fast >= slow {
		t.Errorf("offload delivery at %v, software at %v: offload should be faster", fast, slow)
	}
	if fast > 1.1 {
		t.Errorf("offload delivery at %v, want ≈ wire time 1.0s", fast)
	}
}

// newWANNet builds a 2-node, 2-region lossy network with the given fabric
// profile and returns connected providers with recording handlers.
func newWANNet(t *testing.T, fabric *simnet.FabricProfile, tolerant bool) (*simnet.Sim, *Network, []*Provider, []*[]rdma.Completion) {
	t.Helper()
	sim := simnet.NewSim(1)
	cluster, err := simnet.NewCluster(sim, simnet.ClusterConfig{
		Nodes:         2,
		LinkBandwidth: 100,
		Latency:       0.001,
		CPU:           simnet.CPUConfig{Mode: simnet.ModePolling},
		RetryTimeout:  0.01,
		Fabric:        fabric,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(cluster)
	net.SetTolerant(tolerant)
	providers := make([]*Provider, 2)
	logs := make([]*[]rdma.Completion, 2)
	for i := range providers {
		providers[i] = net.Provider(rdma.NodeID(i))
		log := &[]rdma.Completion{}
		logs[i] = log
		providers[i].SetHandler(func(c rdma.Completion) { *log = append(*log, c) })
	}
	return sim, net, providers, logs
}

func wanProfile() *simnet.FabricProfile {
	return &simnet.FabricProfile{
		Seed:    11,
		Regions: []int{0, 1},
		RTT:     [][]float64{{0.001, 0.020}, {0.020, 0.001}},
	}
}

func TestTolerantLossVanishesWithoutBreaking(t *testing.T) {
	f := wanProfile()
	f.LossRate = 0.999999 // every frame drops; the pair must survive anyway
	sim, _, ps, logs := newWANNet(t, f, true)
	qa, qb := connect(t, ps[0], ps[1], 1)
	if err := qb.PostRecv(rdma.SizeBuffer(10), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(10), 5, 2); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	sends := *logs[0]
	if len(sends) != 1 || sends[0].Status != rdma.StatusOK || sends[0].WRID != 2 {
		t.Fatalf("sender completions = %+v, want one StatusOK send (bytes left the NIC)", sends)
	}
	if len(*logs[1]) != 0 {
		t.Fatalf("receiver saw %+v for a dropped frame", *logs[1])
	}
	// The pair is alive: tolerance turns loss into silence, not ErrBroken.
	if err := qa.PostSend(rdma.SizeBuffer(10), 6, 3); err != nil {
		t.Errorf("post after loss: err = %v, want nil", err)
	}
}

func TestTolerantBreakStillSurfaces(t *testing.T) {
	sim, net, ps, logs := newWANNet(t, wanProfile(), true)
	qa, qb := connect(t, ps[0], ps[1], 1)
	if err := qb.PostRecv(rdma.SizeBuffer(1000), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(1000), 0, 2); err != nil {
		t.Fatal(err)
	}
	sim.At(0.5, func() { net.Cluster().BreakLink(0, 1) })
	sim.Run()
	var senderBroken bool
	for _, c := range *logs[0] {
		if c.Status == rdma.StatusBroken {
			senderBroken = true
		}
	}
	if !senderBroken {
		t.Errorf("tolerant QP hid a severed path: %+v", *logs[0])
	}
}

func TestTolerantDeliversOutOfOrder(t *testing.T) {
	f := wanProfile()
	f.ReorderRate = 0.5
	f.ReorderSpan = 2.0
	sim, _, ps, logs := newWANNet(t, f, true)
	qa, qb := connect(t, ps[0], ps[1], 1)
	for i := uint64(0); i < 16; i++ {
		if err := qb.PostRecv(rdma.SizeBuffer(10), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 16; i++ {
		if err := qa.PostSend(rdma.SizeBuffer(10), uint32(i), i); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	recvs := *logs[1]
	if len(recvs) != 16 {
		t.Fatalf("recv count = %d, want 16", len(recvs))
	}
	flipped := false
	for i := 1; i < len(recvs); i++ {
		if recvs[i].Imm < recvs[i-1].Imm {
			flipped = true
			break
		}
	}
	if !flipped {
		t.Error("reordering fabric delivered in post order through a tolerant QP")
	}
	// Local send completions still drain FIFO regardless of wire order.
	sends := *logs[0]
	for i := 1; i < len(sends); i++ {
		if sends[i].WRID < sends[i-1].WRID {
			t.Fatalf("send completions out of post order: %+v", sends)
		}
	}
}

func TestBreakModeQPUnchangedByFabricProfile(t *testing.T) {
	// A non-tolerant QP over a lossy fabric inherits RC semantics: the first
	// dropped frame is retry exhaustion and breaks the pair.
	f := wanProfile()
	f.LossRate = 0.999999
	sim, _, ps, logs := newWANNet(t, f, false)
	qa, qb := connect(t, ps[0], ps[1], 1)
	if err := qb.PostRecv(rdma.SizeBuffer(10), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(10), 0, 2); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	var senderBroken bool
	for _, c := range *logs[0] {
		if c.Status == rdma.StatusBroken {
			senderBroken = true
		}
	}
	if !senderBroken {
		t.Errorf("break-mode QP survived a dropped frame: %+v", *logs[0])
	}
	if err := qa.PostSend(rdma.SizeBuffer(1), 0, 3); err != rdma.ErrBroken {
		t.Errorf("post after loss on break-mode QP: err = %v, want ErrBroken", err)
	}
}

func TestSelfConnection(t *testing.T) {
	sim, _, ps, logs := newNet(t, 2)
	q1, err := ps[0].Connect(0, 42)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ps[0].Connect(0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.PostRecv(rdma.SizeBuffer(5), 1); err != nil {
		t.Fatal(err)
	}
	if err := q1.PostSend(rdma.SizeBuffer(5), 9, 2); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	var gotRecv bool
	for _, c := range *logs[0] {
		if c.Op == rdma.OpRecv && c.Imm == 9 {
			gotRecv = true
		}
	}
	if !gotRecv {
		t.Error("self-connection did not deliver")
	}
}

// newLaneNet builds a network whose links carry 1 MiB per second, so a 1 MiB
// send takes T = 1 s on the wire, with the given one-way latency and no CPU
// cost. Each handler records the virtual time of every completion.
func newLaneNet(t *testing.T, nodes int, latency float64) (*simnet.Sim, []*Provider, []*[]float64, []*[]rdma.Completion) {
	t.Helper()
	sim := simnet.NewSim(1)
	cluster, err := simnet.NewCluster(sim, simnet.ClusterConfig{
		Nodes:         nodes,
		LinkBandwidth: 1 << 20,
		Latency:       latency,
		CPU:           simnet.CPUConfig{Mode: simnet.ModePolling},
		RetryTimeout:  0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(cluster)
	ps := make([]*Provider, nodes)
	times := make([]*[]float64, nodes)
	logs := make([]*[]rdma.Completion, nodes)
	for i := range ps {
		ps[i] = net.Provider(rdma.NodeID(i))
		at, log := &[]float64{}, &[]rdma.Completion{}
		times[i], logs[i] = at, log
		ps[i].SetHandler(func(c rdma.Completion) {
			*at = append(*at, sim.Now())
			*log = append(*log, c)
		})
	}
	return sim, ps, times, logs
}

// postSends posts one receive and then one 1 MiB send per work request id.
func postSends(t *testing.T, qa, qb rdma.QueuePair, ids ...uint64) {
	t.Helper()
	for _, id := range ids {
		if err := qb.PostRecv(rdma.SizeBuffer(1<<20), id); err != nil {
			t.Fatal(err)
		}
		if err := qa.PostSend(rdma.SizeBuffer(1<<20), 0, id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueuePairTransmitsSerially(t *testing.T) {
	const lat = 0.001
	sim, ps, times, _ := newLaneNet(t, 2, lat)
	qa, qb := connect(t, ps[0], ps[1], 1)
	postSends(t, qa, qb, 1, 2)
	sim.Run()
	got := *times[1]
	if len(got) != 2 || got[0] != lat+1 || got[1] != lat+2 {
		t.Errorf("arrivals at %v, want [%v %v]", got, lat+1, lat+2)
	}
}

func TestQueuePairsShareAPort(t *testing.T) {
	const lat = 0.001
	sim, ps, times, _ := newLaneNet(t, 2, lat)
	qa1, qb1 := connect(t, ps[0], ps[1], 1)
	qa2, qb2 := connect(t, ps[0], ps[1], 2)
	postSends(t, qa1, qb1, 1)
	postSends(t, qa2, qb2, 2)
	sim.Run()
	got := *times[1]
	if len(got) != 2 || got[0] != lat+2 || got[1] != lat+2 {
		t.Errorf("arrivals at %v, want both at %v", got, lat+2)
	}
}

// TestQueuePairPipelinesLatency posts eight sends at once over a path whose
// one-way latency is five wire times: the latency hops overlap, so send i
// lands at L + (i+1)T, and all land by L + 8T.
func TestQueuePairPipelinesLatency(t *testing.T) {
	const lat = 5.0
	sim, ps, times, _ := newLaneNet(t, 2, lat)
	qa, qb := connect(t, ps[0], ps[1], 1)
	postSends(t, qa, qb, 0, 1, 2, 3, 4, 5, 6, 7)
	sim.Run()
	got := *times[1]
	if len(got) != 8 {
		t.Fatalf("%d of 8 sends landed", len(got))
	}
	for i, at := range got {
		if want := lat + float64(i+1); at != want {
			t.Errorf("send %d landed at %v, want %v", i, at, want)
		}
	}
}

// TestQueuePairBreakBehindFlow breaks the link under the first of three
// queued sends: all three complete StatusBroken, in post order.
func TestQueuePairBreakBehindFlow(t *testing.T) {
	sim, ps, _, logs := newLaneNet(t, 2, 0.001)
	qa, qb := connect(t, ps[0], ps[1], 1)
	postSends(t, qa, qb, 1, 2, 3)
	sim.At(0.5, func() { ps[0].net.Cluster().BreakLink(0, 1) })
	sim.Run()
	sends := *logs[0]
	if len(sends) != 3 {
		t.Fatalf("sender completions = %+v, want 3", sends)
	}
	for i, c := range sends {
		if c.Status != rdma.StatusBroken || c.WRID != uint64(i+1) {
			t.Errorf("completion %d = %+v, want WR %d broken", i, c, i+1)
		}
	}
}
