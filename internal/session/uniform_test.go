package session

import (
	"errors"
	"math"
	"testing"

	"rdmc/internal/rdma"
	"rdmc/internal/schedule"
	"rdmc/internal/simhost"
	"rdmc/internal/simnet"
)

// Uniform delivery (§4.6): a member hands a message to the application only
// once every member of the current view holds it. These cases run on the
// paper's 100 Gb/s fabric with the default CPU model, so local completions
// spread the way they do on the testbed.

// uniformNode records one member's deliveries.
type uniformNode struct {
	m       *Manager
	seqs    []uint64
	at      []float64 // virtual delivery times
	epochs  []uint64  // the epoch each delivery landed in
	payload map[uint64]byte
}

func uniformGrid(t *testing.T, n int) *simhost.Grid {
	t.Helper()
	g, err := simhost.New(simhost.Config{
		Cluster: simnet.ClusterConfig{
			Nodes:         n,
			LinkBandwidth: 12.5e9,
			Latency:       1.5e-6,
			CPU:           simnet.DefaultCPUConfig(),
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// uniformSessions starts one session per grid node; cfg supplies everything
// but the id and members.
func uniformSessions(t *testing.T, g *simhost.Grid, cfg Config) []*uniformNode {
	t.Helper()
	cfg.ID = 300
	cfg.Members = make([]rdma.NodeID, g.Nodes())
	for i := range cfg.Members {
		cfg.Members[i] = rdma.NodeID(i)
	}
	nodes := make([]*uniformNode, g.Nodes())
	for i := range nodes {
		nd := &uniformNode{payload: make(map[uint64]byte)}
		m, err := New(g.Engine(i), g.Network().Provider(rdma.NodeID(i)), cfg, Callbacks{
			Deliver: func(seq uint64, data []byte, _ int) {
				nd.seqs = append(nd.seqs, seq)
				nd.at = append(nd.at, g.Sim().Now())
				nd.epochs = append(nd.epochs, nd.m.Epoch())
				if data != nil {
					nd.payload[seq] = data[0]
				}
			},
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nd.m = m
		nodes[i] = nd
	}
	return nodes
}

func TestUniformDeliveryReachesEveryone(t *testing.T) {
	g := uniformGrid(t, 4)
	nodes := uniformSessions(t, g, Config{BlockSize: 1 << 20, MetadataOnly: true, Uniform: true})
	for i := 0; i < 3; i++ {
		if err := nodes[0].m.SendSized(8 << 20); err != nil {
			t.Fatal(err)
		}
	}
	g.Run()
	for i, nd := range nodes {
		if len(nd.seqs) != 3 {
			t.Fatalf("node %d delivered %v", i, nd.seqs)
		}
		for want, got := range nd.seqs {
			if got != uint64(want) {
				t.Fatalf("node %d out of order: %v", i, nd.seqs)
			}
		}
		if d := nd.m.Delivered(); d != 3 {
			t.Errorf("node %d Delivered() = %d", i, d)
		}
	}
}

// TestUniformDeliveryWaitsForStability is the §4.6 semantics check: no member
// delivers a message before the last member has received it. Sequential
// send spreads local completions the most (the root serves one receiver at a
// time), so without the barrier they land tens of milliseconds apart.
func TestUniformDeliveryWaitsForStability(t *testing.T) {
	spread := func(uniform bool) float64 {
		g := uniformGrid(t, 8)
		nodes := uniformSessions(t, g, Config{
			BlockSize: 1 << 20, Generator: schedule.New(schedule.Sequential),
			MetadataOnly: true, Uniform: uniform,
		})
		if err := nodes[0].m.SendSized(64 << 20); err != nil {
			t.Fatal(err)
		}
		g.Run()
		first, last := math.Inf(1), 0.0
		for i, nd := range nodes {
			if len(nd.at) != 1 {
				t.Fatalf("node %d deliveries at %v", i, nd.at)
			}
			first, last = min(first, nd.at[0]), max(last, nd.at[0])
		}
		return last - first
	}
	if s := spread(false); s <= 1e-3 {
		t.Fatalf("local completions spread only %.3fms; the check below would not bite", s*1e3)
	}
	// Every delivery must land within a whisker (control latency, not
	// block time) of the last one.
	if s := spread(true); s > 1e-3 {
		t.Errorf("uniform deliveries spread %.3fms, want ≤ 1ms", s*1e3)
	}
}

// TestUniformFailureDeliversAfterViewChange crashes a member mid-transfer.
// The message was stable nowhere, so no survivor may deliver it in epoch 1;
// sessions recover rather than discard, so every survivor delivers it exactly
// once in the next epoch.
func TestUniformFailureDeliversAfterViewChange(t *testing.T) {
	g := uniformGrid(t, 4)
	nodes := uniformSessions(t, g, Config{BlockSize: 1 << 20, MetadataOnly: true, Uniform: true})
	if err := nodes[0].m.SendSized(512 << 20); err != nil { // a long transfer
		t.Fatal(err)
	}
	g.Sim().At(0.005, func() { g.FailNode(2) })
	g.Run()
	for _, i := range []int{0, 1, 3} {
		nd := nodes[i]
		if len(nd.seqs) != 1 || nd.seqs[0] != 0 {
			t.Fatalf("survivor %d delivered %v, want [0]", i, nd.seqs)
		}
		if nd.epochs[0] < 2 {
			t.Errorf("survivor %d delivered an unstable message in epoch %d", i, nd.epochs[0])
		}
	}
}

func TestUniformOnlyRootMaySend(t *testing.T) {
	g := uniformGrid(t, 3)
	nodes := uniformSessions(t, g, Config{BlockSize: 1 << 20, MetadataOnly: true, Uniform: true})
	defer g.Run()
	if err := nodes[1].m.SendSized(100); !errors.Is(err, ErrNotRoot) {
		t.Errorf("non-root send error = %v, want ErrNotRoot", err)
	}
	if nodes[1].m.IsRoot() || nodes[1].m.Members()[1] != 1 {
		t.Errorf("node 1: root %v, view %v", nodes[1].m.IsRoot(), nodes[1].m.Members())
	}
}

// TestUniformEarlyReceiverWitness crashes the root and rank 1 just after
// rank 1 completes message 0 under sequential send: rank 1 is the only
// member that ever holds it. Without Uniform, rank 1 delivers it while the
// survivors go on to deliver a different message at sequence 0. With
// Uniform, no node, dead or alive, delivers a payload the survivors do not.
func TestUniformEarlyReceiverWitness(t *testing.T) {
	const (
		n     = 8
		block = 64 << 10
		size  = 1 << 20
	)
	payload := func(tag byte) []byte {
		b := make([]byte, size)
		b[0] = tag
		return b
	}
	// start builds the cluster and sends message 0xA0 from rank 0.
	start := func(uniform bool) (*simhost.Grid, []*uniformNode) {
		g := uniformGrid(t, n)
		nodes := uniformSessions(t, g, Config{
			BlockSize: block, Generator: schedule.New(schedule.Sequential), Uniform: uniform,
		})
		if err := nodes[0].m.Send(payload(0xA0)); err != nil {
			t.Fatal(err)
		}
		return g, nodes
	}
	// A fault-free run finds when rank 1 completes message 0.
	g, nodes := start(false)
	g.Run()
	crashAt := nodes[1].at[0] + 1e-6 // before any other receiver completes

	// check crashes ranks 0 and 1 at crashAt, has the surviving root send
	// 0xB0, and reports whether a crashed node delivered what no survivor
	// does.
	check := func(uniform bool) (witnessed bool) {
		g, nodes := start(uniform)
		g.Sim().At(crashAt, func() {
			nodes[1].m.mu.Lock()
			received := nodes[1].m.received
			nodes[1].m.mu.Unlock()
			if received != 1 {
				t.Errorf("rank 1 had received %d messages at the crash, want 1", received)
			}
			g.FailNode(0)
			g.FailNode(1)
		})
		g.Run()
		root := nodes[2].m.Members()[0]
		if err := nodes[root].m.Send(payload(0xB0)); err != nil {
			t.Fatalf("surviving root %d: %v", root, err)
		}
		g.Run()
		ref := nodes[2]
		if len(ref.seqs) != 1 || ref.payload[0] != 0xB0 {
			t.Fatalf("uniform=%v: survivors delivered %v %v, want 0xB0 at sequence 0", uniform, ref.seqs, ref.payload)
		}
		for i, nd := range nodes {
			for _, s := range nd.seqs {
				if nd.payload[s] == ref.payload[s] {
					continue
				}
				if i > 1 {
					t.Fatalf("uniform=%v: survivors %d and 2 disagree at sequence %d", uniform, i, s)
				}
				witnessed = true
			}
		}
		return witnessed
	}
	if !check(false) {
		t.Fatal("without Uniform, rank 1 delivered nothing the survivors did not; the scenario does not bite")
	}
	if check(true) {
		t.Error("with Uniform, a crashed node delivered a payload the survivors never deliver")
	}
}
