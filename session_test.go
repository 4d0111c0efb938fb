package rdmc_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"rdmc"
)

// sessionRecorder collects one member's session history under a lock (the
// TCP transport delivers from dispatcher goroutines).
type sessionRecorder struct {
	mu     sync.Mutex
	seqs   []uint64
	bodies []byte // first byte of each delivered message
	epochs []uint64
}

func (r *sessionRecorder) callbacks() rdmc.SessionCallbacks {
	return rdmc.SessionCallbacks{
		Deliver: func(seq uint64, data []byte, size int) {
			r.mu.Lock()
			r.seqs = append(r.seqs, seq)
			r.bodies = append(r.bodies, data[0])
			r.mu.Unlock()
		},
		OnEpoch: func(epoch uint64, members []int) {
			r.mu.Lock()
			r.epochs = append(r.epochs, epoch)
			r.mu.Unlock()
		},
	}
}

func (r *sessionRecorder) delivered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seqs)
}

func (r *sessionRecorder) checkGapFree(t *testing.T, who int, want []byte) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.seqs) != len(want) {
		t.Fatalf("node %d delivered %d messages, want %d", who, len(r.seqs), len(want))
	}
	for i, s := range r.seqs {
		if s != uint64(i) {
			t.Fatalf("node %d: delivery %d has sequence %d (gap or duplicate)", who, i, s)
		}
		if r.bodies[i] != want[i] {
			t.Fatalf("node %d: sequence %d carries %#x, want %#x", who, i, r.bodies[i], want[i])
		}
	}
}

func sessionMsg(tag byte) []byte {
	b := make([]byte, 32<<10)
	b[0] = tag
	return b
}

// TestSimSessionSurvivesCrash drives the public Session API on the simulated
// cluster: a member crashes mid-stream and the survivors still deliver every
// message, in order, after installing a recovery epoch.
func TestSimSessionSurvivesCrash(t *testing.T) {
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*sessionRecorder, 4)
	sessions := make([]*rdmc.Session, 4)
	members := []int{0, 1, 2, 3}
	for i := range sessions {
		recs[i] = &sessionRecorder{}
		s, err := cluster.Node(i).NewSession(
			rdmc.SessionConfig{ID: 100, Members: members, BlockSize: 8 << 10},
			recs[i].callbacks(),
		)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	if !sessions[0].IsRoot() || sessions[2].IsRoot() {
		t.Fatal("initial root is not member 0")
	}

	const k = 6
	var want []byte
	for i := 0; i < k; i++ {
		if err := sessions[0].Send(sessionMsg(byte(i + 1))); err != nil {
			t.Fatal(err)
		}
		want = append(want, byte(i+1))
	}
	cluster.At(10*time.Microsecond, func() { cluster.FailNode(2) })
	cluster.Run()

	for _, i := range []int{0, 1, 3} {
		recs[i].checkGapFree(t, i, want)
		if e := sessions[i].Epoch(); e != 2 {
			t.Errorf("survivor %d at epoch %d, want 2", i, e)
		}
		ms := sessions[i].Members()
		if len(ms) != 3 {
			t.Errorf("survivor %d sees %d members, want 3", i, len(ms))
		}
		for _, m := range ms {
			if m == 2 {
				t.Errorf("survivor %d still lists the crashed member", i)
			}
		}
	}
	if st, err := sessions[0].State(); st != rdmc.SessionActive || err != nil {
		t.Errorf("root state = %v (%v), want active", st, err)
	}
}

// TestTCPSessionSurvivesNodeClose is the real-socket version: a local TCP
// cluster loses a non-root member mid-stream (its process "dies" via
// Node.Close), the bootstrap mesh reports it down, and the survivors install
// a new epoch and keep delivering — including messages sent while wedged.
func TestTCPSessionSurvivesNodeClose(t *testing.T) {
	nodes, err := rdmc.NewLocalCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	members := []int{0, 1, 2}
	recs := make([]*sessionRecorder, 3)
	sessions := make([]*rdmc.Session, 3)
	for i, n := range nodes {
		recs[i] = &sessionRecorder{}
		s, err := n.NewSession(
			rdmc.SessionConfig{ID: 100, Members: members, BlockSize: 8 << 10},
			recs[i].callbacks(),
		)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}

	waitDelivered := func(count int, who ...int) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			done := true
			for _, i := range who {
				if recs[i].delivered() < count {
					done = false
				}
			}
			if done {
				return
			}
			if time.Now().After(deadline) {
				for _, i := range who {
					t.Logf("node %d delivered %d", i, recs[i].delivered())
				}
				t.Fatalf("timed out waiting for %d deliveries", count)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	var want []byte
	send := func(tag byte) {
		t.Helper()
		if err := sessions[0].Send(sessionMsg(tag)); err != nil {
			t.Fatal(err)
		}
		want = append(want, tag)
	}
	for i := 0; i < 3; i++ {
		send(byte(i + 1))
	}
	waitDelivered(3, 0, 1, 2)

	// Node 2 dies. The mesh notices, the survivors wedge, agree, and
	// install epoch 2; sends issued meanwhile queue and flush after.
	_ = nodes[2].Close()
	for i := 3; i < 6; i++ {
		send(byte(i + 1))
	}
	waitDelivered(6, 0, 1)

	for _, i := range []int{0, 1} {
		recs[i].checkGapFree(t, i, want)
		deadline := time.Now().Add(15 * time.Second)
		for sessions[i].Epoch() < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("survivor %d never installed epoch 2 (epoch %d)", i, sessions[i].Epoch())
			}
			time.Sleep(5 * time.Millisecond)
		}
		ms := sessions[i].Members()
		if len(ms) != 2 || ms[0] != 0 || ms[1] != 1 {
			t.Errorf("survivor %d members = %v, want [0 1]", i, ms)
		}
	}
	st := sessions[0].Stats()
	if st.Epochs < 2 {
		t.Errorf("root stats report %d epochs, want >= 2", st.Epochs)
	}
}

// TestSessionConfigValidation pins the public constructor's error surface.
func TestSessionConfigValidation(t *testing.T) {
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := cluster.Node(0)
	if _, err := n.NewSession(rdmc.SessionConfig{ID: 1, Members: []int{0}}, rdmc.SessionCallbacks{}); err == nil {
		t.Error("single-member session accepted")
	}
	if _, err := n.NewSession(rdmc.SessionConfig{ID: -1, Members: []int{0, 1}}, rdmc.SessionCallbacks{}); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := n.NewSession(rdmc.SessionConfig{
		ID: 1, Members: []int{0, 1}, Algorithm: rdmc.HybridBinomial,
	}, rdmc.SessionCallbacks{}); err == nil {
		t.Error("HybridBinomial session accepted")
	}
	s, err := n.NewSession(rdmc.SessionConfig{ID: 1, Members: []int{0, 1}}, rdmc.SessionCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Send([]byte("x")); err == nil {
		t.Error("send after close accepted")
	}
}

// TestUniformSessionOverLocalCluster runs a uniform session over real
// transports. There core deliveries and table pushes both advance the
// delivery frontier, and each push's watcher takes the session lock on the
// completion dispatcher, so this is where an ordering race in the hand-off
// to Deliver, or a watcher run on a poster's stack, would show: every member
// must deliver every message gap-free, in order, and byte-equal.
func TestUniformSessionOverLocalCluster(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []rdmc.ClusterOption
	}{
		{"tcp", nil},
		{"intrahost", []rdmc.ClusterOption{rdmc.WithIntraHost()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, err := rdmc.NewLocalCluster(4, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, n := range nodes {
					_ = n.Close()
				}
			}()

			// 200 single-block messages, then a few of several blocks.
			const block = 16 << 10
			rng := rand.New(rand.NewSource(1))
			var msgs [][]byte
			for i := 0; i < 200; i++ {
				msgs = append(msgs, make([]byte, 1+rng.Intn(4<<10)))
			}
			for i := 0; i < 4; i++ {
				msgs = append(msgs, make([]byte, 3*block+rng.Intn(block)))
			}
			want := make([][sha256.Size]byte, len(msgs))
			for i, m := range msgs {
				rng.Read(m)
				want[i] = sha256.Sum256(m)
			}

			var mu sync.Mutex
			got := make([][][sha256.Size]byte, len(nodes))
			seqs := make([][]uint64, len(nodes))
			sessions := make([]*rdmc.Session, len(nodes))
			for i, n := range nodes {
				i := i
				s, err := n.NewSession(rdmc.SessionConfig{
					ID: 400, Members: []int{0, 1, 2, 3}, BlockSize: block, Uniform: true,
				}, rdmc.SessionCallbacks{
					Deliver: func(seq uint64, data []byte, size int) {
						// Yield first, so that a second hand-off running at
						// the same time would overtake this one.
						runtime.Gosched()
						d := sha256.Sum256(data[:size])
						mu.Lock()
						seqs[i] = append(seqs[i], seq)
						got[i] = append(got[i], d)
						mu.Unlock()
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				sessions[i] = s
				defer s.Close()
			}
			for _, m := range msgs {
				if err := sessions[0].Send(m); err != nil {
					t.Fatal(err)
				}
			}

			deadline := time.Now().Add(20 * time.Second)
			for {
				mu.Lock()
				done := true
				for i := range nodes {
					done = done && len(got[i]) >= len(msgs)
				}
				mu.Unlock()
				if done {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("timed out waiting for every member to deliver every message")
				}
				time.Sleep(5 * time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			for i := range nodes {
				if len(got[i]) != len(msgs) {
					t.Fatalf("node %d delivered %d messages, want %d", i, len(got[i]), len(msgs))
				}
				for j := range msgs {
					if seqs[i][j] != uint64(j) {
						t.Fatalf("node %d: delivery %d has sequence %d", i, j, seqs[i][j])
					}
					if got[i][j] != want[j] {
						t.Fatalf("node %d: sequence %d content differs from what was sent", i, j)
					}
				}
			}
		})
	}
}

// Two sessions on one simulated cluster, one with uniform delivery: a 64 MB
// message to 8 nodes under sequential send, whose local completions spread
// the most because the root serves one receiver at a time. Each column is
// timed from its own send. Without Uniform a receiver delivers as soon as it
// holds the message; with it every member waits for the last receiver, so
// all deliveries land together, just after the slowest local completion —
// "delivery occurs only after every receiver has a copy" (§4.6).
func ExampleSessionConfig_uniform() {
	const nodes, size = 8, 64 << 20
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: nodes, Seed: 1})
	if err != nil {
		panic(err)
	}
	members := make([]int, nodes)
	for i := range members {
		members[i] = i
	}
	var start time.Duration
	at := [2][nodes]time.Duration{}
	roots := make([]*rdmc.Session, 2)
	for mode, uniform := range []bool{false, true} {
		for i := range members {
			mode, i := mode, i
			s, err := cluster.Node(i).NewSession(rdmc.SessionConfig{
				ID: 100 * (mode + 1), Members: members, Algorithm: rdmc.SequentialSend,
				MetadataOnly: true, Uniform: uniform,
			}, rdmc.SessionCallbacks{
				Deliver: func(uint64, []byte, int) { at[mode][i] = cluster.Now() - start },
			})
			if err != nil {
				panic(err)
			}
			if i == 0 {
				roots[mode] = s
			}
		}
	}
	cluster.Run() // every member installs both sessions' first epoch
	for _, root := range roots {
		start = cluster.Now()
		if err := root.SendSized(size); err != nil {
			panic(err)
		}
		cluster.Run()
	}
	fmt.Printf("%-4s  %13s  %15s\n", "node", "local deliver", "uniform deliver")
	var slowest, last time.Duration
	for i := range members {
		fmt.Printf("%-4d  %11.3fms  %13.3fms\n", i, at[0][i].Seconds()*1e3, at[1][i].Seconds()*1e3)
		slowest, last = max(slowest, at[0][i]), max(last, at[1][i])
	}
	fmt.Printf("barrier cost over the slowest receiver: %.3fms\n", (last-slowest).Seconds()*1e3)
	// Output:
	// node  local deliver  uniform deliver
	// 0          37.591ms         37.593ms
	// 1           5.627ms         37.594ms
	// 2          10.996ms         37.595ms
	// 3          16.365ms         37.595ms
	// 4          21.733ms         37.596ms
	// 5          27.102ms         37.597ms
	// 6          32.471ms         37.597ms
	// 7          37.591ms         37.591ms
	// barrier cost over the slowest receiver: 0.006ms
}
