package reliab

import (
	"fmt"
	"testing"

	"rdmc/internal/rdma"
	"rdmc/internal/rdma/simnic"
	"rdmc/internal/simnet"
)

// testNet builds a 2-node, 2-region WAN cluster with loss-tolerant simulated
// NICs wrapped in the reliability layer, timers on virtual time.
func testNet(t *testing.T, loss float64, cfg Config) (*simnet.Sim, *simnet.Cluster, []*Provider, []*[]rdma.Completion) {
	t.Helper()
	sim := simnet.NewSim(1)
	cluster, err := simnet.NewCluster(sim, simnet.ClusterConfig{
		Nodes:         2,
		LinkBandwidth: 1e6,
		Latency:       0.001,
		CPU:           simnet.CPUConfig{Mode: simnet.ModePolling},
		RetryTimeout:  0.01,
		Fabric: &simnet.FabricProfile{
			Seed:     5,
			Regions:  []int{0, 1},
			RTT:      [][]float64{{0.001, 0.020}, {0.020, 0.001}},
			LossRate: loss,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := simnic.NewNetwork(cluster)
	net.SetTolerant(true)
	cfg.Timer = func(d float64, fn func()) func() {
		ev := sim.After(d, fn)
		return ev.Cancel
	}
	if cfg.RTO == 0 {
		cfg.RTO = 0.06
	}
	if cfg.MaxPayload == 0 {
		cfg.MaxPayload = 4096
	}
	providers := make([]*Provider, 2)
	logs := make([]*[]rdma.Completion, 2)
	for i := range providers {
		providers[i] = Wrap(net.Provider(rdma.NodeID(i)), cfg)
		log := &[]rdma.Completion{}
		logs[i] = log
		providers[i].SetHandler(func(c rdma.Completion) { *log = append(*log, c) })
	}
	return sim, cluster, providers, logs
}

func connectPair(t *testing.T, a, b *Provider, token uint64) (rdma.QueuePair, rdma.QueuePair) {
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

func TestLosslessPassthrough(t *testing.T) {
	sim, _, ps, logs := testNet(t, 0, Config{})
	qa, qb := connectPair(t, ps[0], ps[1], 1)
	payload := []byte("reliable delivery")
	recvBuf := make([]byte, 64)
	if err := qb.PostRecv(rdma.MakeBuffer(recvBuf), 10); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.MakeBuffer(payload), 0xbeef, 20); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	sends, recvs := *logs[0], *logs[1]
	if len(sends) != 1 || sends[0].Op != rdma.OpSend || sends[0].WRID != 20 || sends[0].Bytes != len(payload) {
		t.Fatalf("sender completions = %+v", sends)
	}
	if len(recvs) != 1 {
		t.Fatalf("receiver completions = %+v", recvs)
	}
	r := recvs[0]
	if r.Imm != 0xbeef || r.WRID != 10 || r.Bytes != len(payload) || string(r.Data) != string(payload) {
		t.Errorf("recv completion = %+v data=%q", r, r.Data)
	}
	if st := ps[0].Stats(); st.Retransmits != 0 || st.DataFrames != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// sweep posts n frames A→B and returns the receiver's imm sequence.
func sweep(t *testing.T, sim *simnet.Sim, qa, qb rdma.QueuePair, logs []*[]rdma.Completion, n int) []uint32 {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := qb.PostRecv(rdma.SizeBuffer(1000), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := qa.PostSend(rdma.SizeBuffer(1000), uint32(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	return recvOrder(t, logs)
}

// sweepPaced is sweep with the sends staggered in virtual time. The fluid-flow
// fabric completes equal concurrent flows at the same instant, which bunches
// SACK arrivals; pacing keeps per-frame feedback realistic for the tests that
// assert fine-grained recovery behaviour (e.g. parity repair beating fast
// retransmit).
func sweepPaced(t *testing.T, sim *simnet.Sim, qa, qb rdma.QueuePair, logs []*[]rdma.Completion, n int, gap float64) []uint32 {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := qb.PostRecv(rdma.SizeBuffer(1000), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		i := i
		sim.After(float64(i)*gap, func() {
			if err := qa.PostSend(rdma.SizeBuffer(1000), uint32(i), uint64(i)); err != nil {
				t.Errorf("PostSend %d: %v", i, err)
			}
		})
	}
	sim.Run()
	return recvOrder(t, logs)
}

func recvOrder(t *testing.T, logs []*[]rdma.Completion) []uint32 {
	t.Helper()
	var order []uint32
	for _, c := range *logs[1] {
		if c.Op == rdma.OpRecv {
			if c.Status != rdma.StatusOK {
				t.Fatalf("recv completion %+v", c)
			}
			order = append(order, c.Imm)
		}
	}
	return order
}

func TestRetransmitDeliversEverythingExactlyOnceInOrder(t *testing.T) {
	const n = 200
	sim, _, ps, logs := testNet(t, 0.05, Config{})
	qa, qb := connectPair(t, ps[0], ps[1], 1)
	order := sweep(t, sim, qa, qb, logs, n)
	if len(order) != n {
		t.Fatalf("delivered %d of %d frames", len(order), n)
	}
	for i, imm := range order {
		if imm != uint32(i) {
			t.Fatalf("delivery %d carries imm %d: FIFO broken", i, imm)
		}
	}
	st := ps[0].Stats()
	if st.Retransmits == 0 {
		t.Error("5% loss produced no retransmissions")
	}
	if st.Retransmits > n/2 {
		t.Errorf("%d retransmits for %d frames at 5%% loss", st.Retransmits, n)
	}
}

func TestDropInjectionFastRetransmit(t *testing.T) {
	// Drop exactly seq 2's first transmission on an otherwise lossless wire:
	// SACKs for 3,4,5 trigger one fast retransmission, well before the RTO.
	cfg := Config{DropFn: func(seq uint32, retransmit bool) bool {
		return seq == 2 && !retransmit
	}}
	sim, _, ps, logs := testNet(t, 0, cfg)
	qa, qb := connectPair(t, ps[0], ps[1], 1)
	order := sweep(t, sim, qa, qb, logs, 8)
	if len(order) != 8 {
		t.Fatalf("delivered %d of 8 frames", len(order))
	}
	st := ps[0].Stats()
	if st.Retransmits != 1 {
		t.Errorf("retransmits = %d, want exactly 1 (fast)", st.Retransmits)
	}
	if st.InjectedDrops != 1 {
		t.Errorf("injected drops = %d", st.InjectedDrops)
	}
	if end := sim.Now(); end > 0.06 {
		t.Errorf("completed at %.3fs: fast retransmit should beat the %.2fs RTO", end, 0.06)
	}
}

func TestRTORecoversTailLoss(t *testing.T) {
	// Drop the last frame's first transmission: no later SACKs exist, so only
	// the retransmission timer can recover it.
	cfg := Config{DropFn: func(seq uint32, retransmit bool) bool {
		return seq == 5 && !retransmit
	}}
	sim, _, ps, logs := testNet(t, 0, cfg)
	qa, qb := connectPair(t, ps[0], ps[1], 1)
	order := sweep(t, sim, qa, qb, logs, 5)
	if len(order) != 5 {
		t.Fatalf("delivered %d of 5 frames", len(order))
	}
	if st := ps[0].Stats(); st.Retransmits != 1 {
		t.Errorf("retransmits = %d, want 1 (RTO)", st.Retransmits)
	}
	if end := sim.Now(); end < 0.06 {
		t.Errorf("completed at %.3fs, before the RTO could have fired", end)
	}
}

func TestFECRecoversWithoutRetransmit(t *testing.T) {
	cfg := Config{
		FECGroup: 4,
		DropFn: func(seq uint32, retransmit bool) bool {
			return seq == 3 && !retransmit
		},
	}
	sim, _, ps, logs := testNet(t, 0, cfg)
	qa, qb := connectPair(t, ps[0], ps[1], 1)
	order := sweepPaced(t, sim, qa, qb, logs, 8, 0.002)
	if len(order) != 8 {
		t.Fatalf("delivered %d of 8 frames", len(order))
	}
	st := ps[0].Stats()
	if st.Retransmits != 0 {
		t.Errorf("retransmits = %d, want 0: parity should repair the loss", st.Retransmits)
	}
	rst := ps[1].Stats()
	if rst.Recovered != 1 {
		t.Errorf("recovered = %d, want 1", rst.Recovered)
	}
	if st.ParityFrames != 2 {
		t.Errorf("parity frames = %d, want 2 (8 frames / group of 4)", st.ParityFrames)
	}
}

func TestFECFlushCoversTails(t *testing.T) {
	// 3 frames with a group of 4: the idle flush must emit partial parity,
	// and it must repair a lost tail frame without retransmission.
	cfg := Config{
		FECGroup: 4,
		FECFlush: 0.005,
		DropFn: func(seq uint32, retransmit bool) bool {
			return seq == 3 && !retransmit
		},
	}
	sim, _, ps, logs := testNet(t, 0, cfg)
	qa, qb := connectPair(t, ps[0], ps[1], 1)
	order := sweep(t, sim, qa, qb, logs, 3)
	if len(order) != 3 {
		t.Fatalf("delivered %d of 3 frames", len(order))
	}
	st := ps[0].Stats()
	if st.ParityFrames != 1 {
		t.Errorf("parity frames = %d, want 1 flushed partial group", st.ParityFrames)
	}
	if st.Retransmits != 0 {
		t.Errorf("retransmits = %d, want 0", st.Retransmits)
	}
	if ps[1].Stats().Recovered != 1 {
		t.Errorf("recovered = %d, want 1", ps[1].Stats().Recovered)
	}
}

func TestHighLossWithFECConverges(t *testing.T) {
	const n = 300
	sim, _, ps, logs := testNet(t, 0.1, Config{FECGroup: 8})
	qa, qb := connectPair(t, ps[0], ps[1], 1)
	order := sweep(t, sim, qa, qb, logs, n)
	if len(order) != n {
		t.Fatalf("delivered %d of %d frames", len(order), n)
	}
	for i, imm := range order {
		if imm != uint32(i) {
			t.Fatalf("delivery %d carries imm %d", i, imm)
		}
	}
	if ps[1].Stats().Recovered == 0 {
		t.Error("10% loss with FEC recovered nothing via parity")
	}
}

func TestWindowBoundParksAndDrains(t *testing.T) {
	const n = 100
	sim, _, ps, logs := testNet(t, 0, Config{Window: 4})
	qa, qb := connectPair(t, ps[0], ps[1], 1)
	order := sweep(t, sim, qa, qb, logs, n)
	if len(order) != n {
		t.Fatalf("delivered %d of %d frames through a 4-frame window", len(order), n)
	}
	for i, imm := range order {
		if imm != uint32(i) {
			t.Fatalf("delivery %d carries imm %d", i, imm)
		}
	}
}

func TestBreakStillSurfacesThroughReliability(t *testing.T) {
	sim, cluster, ps, logs := testNet(t, 0, Config{})
	qa, qb := connectPair(t, ps[0], ps[1], 1)
	if err := qb.PostRecv(rdma.SizeBuffer(100000), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(100000), 0, 2); err != nil {
		t.Fatal(err)
	}
	sim.At(0.01, func() {
		cluster.BreakLink(0, 1)
		cluster.BreakLink(1, 0)
	})
	sim.Run()
	broken := func(log []rdma.Completion) bool {
		for _, c := range log {
			if c.Status == rdma.StatusBroken {
				return true
			}
		}
		return false
	}
	if !broken(*logs[0]) {
		t.Errorf("sender never saw StatusBroken: %+v", *logs[0])
	}
	if !broken(*logs[1]) {
		t.Errorf("receiver never saw StatusBroken: %+v", *logs[1])
	}
	if err := qa.PostSend(rdma.SizeBuffer(1), 0, 3); err != rdma.ErrBroken {
		t.Errorf("post after break: err = %v, want ErrBroken", err)
	}
}

// TestUnprotectedPairsPassThrough pins the one unprotected case: a
// self-connection is the inner provider's pair, with no frames in between.
func TestUnprotectedPairsPassThrough(t *testing.T) {
	sim, _, ps, logs := testNet(t, 0, Config{})
	qa, qb := connectPair(t, ps[0], ps[0], 9)
	if err := qb.PostRecv(rdma.SizeBuffer(10), 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(rdma.SizeBuffer(10), 5, 2); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	var recvs []rdma.Completion
	for _, c := range *logs[0] {
		if c.Op == rdma.OpRecv {
			recvs = append(recvs, c)
		}
	}
	if len(recvs) != 1 || recvs[0].Imm != 5 {
		t.Fatalf("pass-through recv = %+v", recvs)
	}
	if st := ps[0].Stats(); st.DataFrames != 0 {
		t.Errorf("unprotected pair counted frames: %+v", st)
	}
}

func TestRealPayloadsSurviveLoss(t *testing.T) {
	const n = 50
	sim, _, ps, logs := testNet(t, 0.08, Config{FECGroup: 5})
	qa, qb := connectPair(t, ps[0], ps[1], 1)
	bufs := make([][]byte, n)
	for i := 0; i < n; i++ {
		bufs[i] = make([]byte, 32)
		if err := qb.PostRecv(rdma.MakeBuffer(bufs[i]), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := qa.PostSend(rdma.MakeBuffer([]byte(fmt.Sprintf("payload-%03d", i))), uint32(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	got := 0
	for _, c := range *logs[1] {
		if c.Op != rdma.OpRecv {
			continue
		}
		want := fmt.Sprintf("payload-%03d", c.Imm)
		if string(c.Data) != want {
			t.Fatalf("imm %d carried %q, want %q", c.Imm, c.Data, want)
		}
		got++
	}
	if got != n {
		t.Fatalf("delivered %d of %d payloads", got, n)
	}
}
