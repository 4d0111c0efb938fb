package rdmc_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rdmc"
)

// oneBlockSizes cycles a group through the one-block path's edge cases under
// 16 KiB blocks: one byte, a part block, exactly one block, and a
// three-block message that takes the prepare path between them.
var oneBlockSizes = []int{1, 8 << 10, 16 << 10, 48 << 10}

// mixedRecorder keeps, per node, the sequence and SHA-256 of every delivery.
type mixedRecorder struct {
	mu   sync.Mutex
	seqs map[int][]int
	sums map[int][][sha256.Size]byte
	errs []error
}

func newMixedRecorder() *mixedRecorder {
	return &mixedRecorder{seqs: make(map[int][]int), sums: make(map[int][][sha256.Size]byte)}
}

func (r *mixedRecorder) callbacks(node int) rdmc.Callbacks {
	return rdmc.Callbacks{
		Incoming: func(size int) []byte { return make([]byte, size) },
		Completion: func(seq int, data []byte, _ int) {
			r.mu.Lock()
			r.seqs[node] = append(r.seqs[node], seq)
			r.sums[node] = append(r.sums[node], sha256.Sum256(data))
			r.mu.Unlock()
		},
		Failure: func(err error) {
			r.mu.Lock()
			r.errs = append(r.errs, err)
			r.mu.Unlock()
		},
	}
}

func (r *mixedRecorder) count(nodes int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := 0; i < nodes; i++ {
		n += len(r.seqs[i])
	}
	return n
}

// check asserts every node delivered every message intact, gap-free and in
// order, and no group failed.
func (r *mixedRecorder) check(t *testing.T, nodes int, msgs [][]byte) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) > 0 {
		t.Fatalf("group failed: %v", r.errs)
	}
	for i := 0; i < nodes; i++ {
		if len(r.seqs[i]) != len(msgs) {
			t.Fatalf("node %d delivered %d of %d messages", i, len(r.seqs[i]), len(msgs))
		}
		for k, seq := range r.seqs[i] {
			if seq != k {
				t.Fatalf("node %d delivered seq %d in place %d", i, seq, k)
			}
			if r.sums[i][k] != sha256.Sum256(msgs[k]) {
				t.Fatalf("node %d: message %d (%d bytes) corrupt", i, k, len(msgs[k]))
			}
		}
	}
}

func mixedMessages(count int) [][]byte {
	rng := rand.New(rand.NewSource(int64(count)))
	msgs := make([][]byte, count)
	for i := range msgs {
		msgs[i] = make([]byte, oneBlockSizes[i%len(oneBlockSizes)])
		rng.Read(msgs[i])
	}
	return msgs
}

// TestOneBlockMixedSizes sends 300 messages alternating one-block and
// multi-block sizes through a 4-member group over TCP, the shared-memory
// data plane and the simulator. Every receiver must hold every message
// intact, in order and without gaps, and the close barrier must succeed.
func TestOneBlockMixedSizes(t *testing.T) {
	const n, count = 4, 300
	members := []int{0, 1, 2, 3}
	cfg := rdmc.GroupConfig{BlockSize: 16 << 10}
	msgs := mixedMessages(count)
	for _, tc := range []struct {
		name string
		opts []rdmc.ClusterOption
	}{
		{"tcp", nil},
		{"intrahost", []rdmc.ClusterOption{rdmc.WithIntraHost()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, err := rdmc.NewLocalCluster(n, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, nd := range nodes {
					_ = nd.Close()
				}
			}()
			rec := newMixedRecorder()
			var groups []*rdmc.Group
			for i, nd := range nodes {
				g, err := nd.CreateGroup(1, members, cfg, rec.callbacks(i))
				if err != nil {
					t.Fatal(err)
				}
				groups = append(groups, g)
			}
			for _, m := range msgs {
				if err := groups[0].Send(m); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(30 * time.Second)
			for rec.count(n) < n*count && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			rec.check(t, n, msgs)
			if err := groups[0].DestroyWait(10 * time.Second); err != nil {
				t.Fatalf("close barrier: %v", err)
			}
		})
	}
	t.Run("sim", func(t *testing.T) {
		cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: n, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rec := newMixedRecorder()
		var groups []*rdmc.Group
		for i := 0; i < n; i++ {
			g, err := cluster.Node(i).CreateGroup(1, members, cfg, rec.callbacks(i))
			if err != nil {
				t.Fatal(err)
			}
			groups = append(groups, g)
		}
		for _, m := range msgs {
			if err := groups[0].Send(m); err != nil {
				t.Fatal(err)
			}
		}
		cluster.Run()
		rec.check(t, n, msgs)
		var barrier []error
		groups[0].Destroy(func(err error) { barrier = append(barrier, err) })
		cluster.Run()
		if len(barrier) != 1 || barrier[0] != nil {
			t.Fatalf("close barrier results %v, want one nil", barrier)
		}
	})
}

// TestOneBlockMeshFrames counts control frames over the TCP mesh. After one
// warm-up message has armed the one-block path, steady-state one-block
// messages at n = 4 send no prepare: only the credits that re-arm the
// receivers' standing receives, one frame per receiver per RecvWindow
// messages. At the default window four messages cost three
// frames; a window of 1 keeps three frames per message.
func TestOneBlockMeshFrames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window int
		ready  uint64
	}{
		{"default window", 0, 3},
		{"window 1", 1, 4 * 3},
	} {
		t.Run(tc.name, func(t *testing.T) { testOneBlockMeshFrames(t, tc.window, tc.ready) })
	}
}

func testOneBlockMeshFrames(t *testing.T, window int, wantReady uint64) {
	ob := rdmc.NewObserver(0)
	nodes, err := rdmc.NewLocalCluster(4, rdmc.WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	counters := func() map[string]uint64 {
		data, err := ob.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		var snap metricsSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		return snap.Counters
	}
	// waitFor polls until the counter reaches want.
	waitFor := func(name string, want uint64) {
		deadline := time.Now().Add(20 * time.Second)
		for {
			c := counters()
			if c[name] >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s = %d, want %d", name, c[name], want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	rec := newMixedRecorder()
	var groups []*rdmc.Group
	cfg := rdmc.GroupConfig{BlockSize: 64 << 10, RecvWindow: window}
	for i, nd := range nodes {
		g, err := nd.CreateGroup(1, []int{0, 1, 2, 3}, cfg, rec.callbacks(i))
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	msgs := [][]byte{bytes.Repeat([]byte{1}, 8<<10)}

	// The warm-up's 3 prepares arm the receivers, each of which grants its
	// whole window in one credit frame; the warm-up then rides the standing
	// receives. Once the root's mesh has taken in every credit, the path is
	// armed.
	if err := groups[0].Send(msgs[0]); err != nil {
		t.Fatal(err)
	}
	waitFor("core.delivered", 4)
	waitFor("mesh.rx.ready_block", 3)
	time.Sleep(20 * time.Millisecond)
	before := counters()

	for i := 0; i < 4; i++ {
		msgs = append(msgs, bytes.Repeat([]byte{byte(i + 2)}, 8<<10))
		if err := groups[0].Send(msgs[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor("core.delivered", 4*5)
	waitFor("mesh.tx.ready_block", before["mesh.tx.ready_block"]+wantReady)
	time.Sleep(20 * time.Millisecond)
	after := counters()
	rec.check(t, 4, msgs)
	for kind, want := range map[string]uint64{"prepare": 0, "ready_block": wantReady} {
		name := "mesh.tx." + kind
		if got := after[name] - before[name]; got != want {
			t.Errorf("4 steady-state one-block messages sent %d %s frames, want %d", got, kind, want)
		}
	}
}
