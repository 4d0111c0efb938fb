package rdmc_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"rdmc"
	"rdmc/internal/core"
)

func TestSimClusterQuickstart(t *testing.T) {
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 1, 2, 3}
	msg := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(msg)

	var mu sync.Mutex
	received := make(map[int][]byte)
	var groups []*rdmc.Group
	for i := 0; i < 4; i++ {
		i := i
		g, err := cluster.Node(i).CreateGroup(7, members, rdmc.GroupConfig{BlockSize: 64 << 10}, rdmc.Callbacks{
			Incoming: func(size int) []byte { return make([]byte, size) },
			Completion: func(seq int, data []byte, size int) {
				mu.Lock()
				received[i] = append([]byte(nil), data...)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	if groups[0].Rank() != 0 || groups[2].Rank() != 2 {
		t.Fatalf("ranks wrong: %d %d", groups[0].Rank(), groups[2].Rank())
	}
	if err := groups[0].Send(msg); err != nil {
		t.Fatal(err)
	}
	elapsed := cluster.Run()
	if elapsed <= 0 {
		t.Error("virtual time did not advance")
	}
	for i := 1; i < 4; i++ {
		if !bytes.Equal(received[i], msg) {
			t.Errorf("node %d received wrong bytes", i)
		}
	}
}

func TestSimClusterAlgorithmsDeliver(t *testing.T) {
	algos := []rdmc.Algorithm{
		rdmc.SequentialSend, rdmc.ChainSend, rdmc.BinomialTree,
		rdmc.BinomialPipeline, rdmc.MPIBcast,
	}
	for _, a := range algos {
		t.Run(a.String(), func(t *testing.T) {
			cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: 5, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			members := []int{0, 1, 2, 3, 4}
			done := 0
			var groups []*rdmc.Group
			for i := range members {
				g, err := cluster.Node(i).CreateGroup(1, members, rdmc.GroupConfig{
					BlockSize: 4 << 10,
					Algorithm: a,
				}, rdmc.Callbacks{
					Completion: func(int, []byte, int) { done++ },
				})
				if err != nil {
					t.Fatal(err)
				}
				groups = append(groups, g)
			}
			if err := groups[0].SendSized(1 << 20); err != nil {
				t.Fatal(err)
			}
			cluster.Run()
			if done != 5 {
				t.Errorf("completions = %d, want 5", done)
			}
		})
	}
}

func TestSimClusterHybridOnRacks(t *testing.T) {
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{
		Nodes:     8,
		RackSize:  4,
		TrunkGbps: 25,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rackOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
	done := 0
	var root *rdmc.Group
	for i := range members {
		g, err := cluster.Node(i).CreateGroup(1, members, rdmc.GroupConfig{
			BlockSize: 256 << 10,
			Algorithm: rdmc.HybridBinomial,
			RackOf:    rackOf,
		}, rdmc.Callbacks{Completion: func(int, []byte, int) { done++ }})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			root = g
		}
	}
	if err := root.SendSized(16 << 20); err != nil {
		t.Fatal(err)
	}
	cluster.Run()
	if done != 8 {
		t.Errorf("completions = %d, want 8", done)
	}
}

func TestHybridRequiresRackOf(t *testing.T) {
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.Node(0).CreateGroup(1, []int{0, 1}, rdmc.GroupConfig{
		Algorithm: rdmc.HybridBinomial,
	}, rdmc.Callbacks{})
	if err == nil {
		t.Error("HybridBinomial without RackOf accepted")
	}
}

func TestSimClusterFailureInjection(t *testing.T) {
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 1, 2, 3}
	var failures int
	var groups []*rdmc.Group
	for i := range members {
		g, err := cluster.Node(i).CreateGroup(1, members, rdmc.GroupConfig{}, rdmc.Callbacks{
			Failure: func(error) { failures++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	if err := groups[0].SendSized(256 << 20); err != nil {
		t.Fatal(err)
	}
	cluster.At(2*time.Millisecond, func() { cluster.FailNode(2) })
	cluster.Run()
	if failures < 3 {
		t.Errorf("failure callbacks = %d, want all 3 survivors", failures)
	}
	if groups[0].Err() == nil {
		t.Error("root group reports no error after member crash")
	}
}

func TestSimClusterDeterminism(t *testing.T) {
	run := func() time.Duration {
		cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: 8, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		members := []int{0, 1, 2, 3, 4, 5, 6, 7}
		var groups []*rdmc.Group
		for i := range members {
			g, err := cluster.Node(i).CreateGroup(1, members, rdmc.GroupConfig{}, rdmc.Callbacks{})
			if err != nil {
				t.Fatal(err)
			}
			groups = append(groups, g)
		}
		if err := groups[0].SendSized(100 << 20); err != nil {
			t.Fatal(err)
		}
		return cluster.Run()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different end times: %v vs %v", a, b)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	tests := []struct {
		a    rdmc.Algorithm
		want string
	}{
		{rdmc.SequentialSend, "sequential send"},
		{rdmc.ChainSend, "chain send"},
		{rdmc.BinomialTree, "binomial tree"},
		{rdmc.BinomialPipeline, "binomial pipeline"},
		{rdmc.MPIBcast, "mpi bcast"},
		{rdmc.HybridBinomial, "hybrid binomial pipeline"},
	}
	for _, tt := range tests {
		if got := tt.a.String(); got != tt.want {
			t.Errorf("Algorithm(%d).String() = %q, want %q", tt.a, got, tt.want)
		}
	}
}

func TestTCPLocalClusterEndToEnd(t *testing.T) {
	nodes, err := rdmc.NewLocalCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	members := []int{0, 1, 2, 3}
	msg := make([]byte, 3<<20)
	rand.New(rand.NewSource(9)).Read(msg)

	var (
		mu       sync.Mutex
		received = make(map[int][]byte)
		wg       sync.WaitGroup
	)
	wg.Add(4) // every member (including the root) completes locally
	var groups []*rdmc.Group
	for i, n := range nodes {
		i := i
		g, err := n.CreateGroup(1, members, rdmc.GroupConfig{BlockSize: 256 << 10}, rdmc.Callbacks{
			Incoming: func(size int) []byte { return make([]byte, size) },
			Completion: func(seq int, data []byte, size int) {
				mu.Lock()
				received[i] = append([]byte(nil), data...)
				mu.Unlock()
				wg.Done()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	if err := groups[0].Send(msg); err != nil {
		t.Fatal(err)
	}

	waitTimeout(t, &wg, 20*time.Second)
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < 4; i++ {
		if !bytes.Equal(received[i], msg) {
			t.Errorf("node %d received corrupt bytes over TCP", i)
		}
	}
}

// TestIntraHostLocalClusterEndToEnd runs the same multicast as the TCP
// end-to-end test with the data plane moved to in-process shared memory
// (WithIntraHost): block traffic between the co-located nodes crosses
// shmnic endpoints, the control mesh stays on loopback TCP.
func TestIntraHostLocalClusterEndToEnd(t *testing.T) {
	nodes, err := rdmc.NewLocalCluster(4, rdmc.WithIntraHost())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	members := []int{0, 1, 2, 3}
	msg := make([]byte, 3<<20)
	rand.New(rand.NewSource(11)).Read(msg)

	const msgs = 3
	var (
		mu       sync.Mutex
		received = make(map[int][][]byte)
		wg       sync.WaitGroup
	)
	wg.Add(4 * msgs)
	var groups []*rdmc.Group
	for i, n := range nodes {
		i := i
		g, err := n.CreateGroup(1, members, rdmc.GroupConfig{BlockSize: 256 << 10}, rdmc.Callbacks{
			Incoming: func(size int) []byte { return make([]byte, size) },
			Completion: func(seq int, data []byte, size int) {
				mu.Lock()
				received[i] = append(received[i], append([]byte(nil), data...))
				mu.Unlock()
				wg.Done()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	for s := 0; s < msgs; s++ {
		if err := groups[0].Send(msg); err != nil {
			t.Fatal(err)
		}
	}

	waitTimeout(t, &wg, 20*time.Second)
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 4; i++ {
		if len(received[i]) != msgs {
			t.Errorf("node %d delivered %d of %d messages", i, len(received[i]), msgs)
			continue
		}
		for s, got := range received[i] {
			if !bytes.Equal(got, msg) {
				t.Errorf("node %d message %d corrupt over shared memory", i, s)
			}
		}
	}
}

// TestIntraHostOverlappingGroups runs two groups with different ids on the
// same four nodes over shared memory, both sending at once: every node pair
// carries one queue pair per group token, and every receiver's copy of
// every message must hash to the sent bytes.
func TestIntraHostOverlappingGroups(t *testing.T) {
	nodes, err := rdmc.NewLocalCluster(4, rdmc.WithIntraHost())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	const msgs = 2
	memberLists := map[int][]int{1: {0, 1, 2, 3}, 2: {3, 2, 1, 0}}
	sent := make(map[int][][sha256.Size]byte)
	var (
		mu   sync.Mutex
		got  = make(map[[2]int][][sha256.Size]byte) // (group, node) → digests in order
		wg   sync.WaitGroup
		root = make(map[int]*rdmc.Group)
	)
	for id, members := range memberLists {
		wg.Add(len(members) * msgs)
		for _, node := range members {
			key := [2]int{id, node}
			g, err := nodes[node].CreateGroup(id, members, rdmc.GroupConfig{BlockSize: 256 << 10}, rdmc.Callbacks{
				Incoming: func(size int) []byte { return make([]byte, size) },
				Completion: func(seq int, data []byte, size int) {
					mu.Lock()
					got[key] = append(got[key], sha256.Sum256(data[:size]))
					mu.Unlock()
					wg.Done()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if g.Rank() == 0 {
				root[id] = g
			}
		}
	}
	var send sync.WaitGroup
	for id, g := range root {
		bufs := make([][]byte, msgs)
		for s := range bufs {
			bufs[s] = make([]byte, 2<<20)
			rand.New(rand.NewSource(int64(id*msgs + s))).Read(bufs[s])
			sent[id] = append(sent[id], sha256.Sum256(bufs[s]))
		}
		send.Add(1)
		go func() {
			defer send.Done()
			for _, b := range bufs {
				if err := g.Send(b); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	send.Wait()
	waitTimeout(t, &wg, 20*time.Second)
	mu.Lock()
	defer mu.Unlock()
	for id, members := range memberLists {
		for _, node := range members {
			digests := got[[2]int{id, node}]
			if len(digests) != msgs {
				t.Errorf("group %d node %d delivered %d of %d messages", id, node, len(digests), msgs)
				continue
			}
			for s, d := range digests {
				if d != sent[id][s] {
					t.Errorf("group %d node %d message %d: sha256 mismatch", id, node, s)
				}
			}
		}
	}
}

func TestTCPMultipleMessagesAndCloseBarrier(t *testing.T) {
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
	const msgs = 5
	var (
		mu    sync.Mutex
		order = make(map[int][]int)
		wg    sync.WaitGroup
	)
	wg.Add(3 * msgs)
	var groups []*rdmc.Group
	for i, n := range nodes {
		i := i
		g, err := n.CreateGroup(1, members, rdmc.GroupConfig{BlockSize: 64 << 10}, rdmc.Callbacks{
			Incoming: func(size int) []byte { return make([]byte, size) },
			Completion: func(seq int, data []byte, size int) {
				mu.Lock()
				order[i] = append(order[i], seq)
				mu.Unlock()
				wg.Done()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	for s := 0; s < msgs; s++ {
		if err := groups[0].Send(bytes.Repeat([]byte{byte(s)}, 100<<10)); err != nil {
			t.Fatal(err)
		}
	}
	waitTimeout(t, &wg, 20*time.Second)

	mu.Lock()
	for i, seqs := range order {
		for want, got := range seqs {
			if got != want {
				t.Errorf("node %d delivery order %v", i, seqs)
				break
			}
		}
	}
	mu.Unlock()

	// The paper's close guarantee over a real network.
	if err := groups[0].DestroyWait(10 * time.Second); err != nil {
		t.Errorf("close barrier over TCP: %v", err)
	}
}

// TestRecreateGroupAfterDestroy destroys a group and creates it again under
// the same id on the same nodes: the second incarnation must connect fresh
// queue pairs, not the first one's closed ones, on both data planes. The
// one-block variants send three one-block messages per incarnation, so the
// later two ride the one-block queue pairs.
func TestRecreateGroupAfterDestroy(t *testing.T) {
	for _, tc := range []struct {
		name        string
		opts        []rdmc.ClusterOption
		size, count int
	}{
		{"tcp", nil, 1 << 20, 1},
		{"intrahost", []rdmc.ClusterOption{rdmc.WithIntraHost()}, 1 << 20, 1},
		{"tcp-one-block", nil, 4 << 10, 3},
		{"intrahost-one-block", []rdmc.ClusterOption{rdmc.WithIntraHost()}, 4 << 10, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, err := rdmc.NewLocalCluster(3, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, n := range nodes {
					_ = n.Close()
				}
			}()
			for round := 0; round < 2; round++ {
				recreateRound(t, nodes, round, tc.size, tc.count)
			}
		})
	}
}

// recreateRound creates group 7 on every node, multicasts count messages of
// size bytes, checks every copy and runs the root's close barrier. Members
// tear down only when the root's destroyed notice reaches them, so their
// create is retried until the previous incarnation is gone.
func recreateRound(t *testing.T, nodes []*rdmc.Node, round, size, count int) {
	t.Helper()
	members := []int{0, 1, 2}
	rng := rand.New(rand.NewSource(int64(round)))
	msgs := make([][]byte, count)
	for k := range msgs {
		msgs[k] = make([]byte, size)
		rng.Read(msgs[k])
	}
	var (
		mu       sync.Mutex
		received = make(map[int][][]byte)
		failed   = make(chan error, len(nodes))
		wg       sync.WaitGroup
	)
	wg.Add(len(nodes) * count)
	var groups []*rdmc.Group
	for i, n := range nodes {
		i := i
		cbs := rdmc.Callbacks{
			Incoming: func(size int) []byte { return make([]byte, size) },
			Completion: func(seq int, data []byte, size int) {
				mu.Lock()
				received[i] = append(received[i], append([]byte(nil), data...))
				mu.Unlock()
				wg.Done()
			},
			Failure: func(err error) { failed <- err },
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			g, err := n.CreateGroup(7, members, rdmc.GroupConfig{BlockSize: 256 << 10}, cbs)
			if errors.Is(err, core.ErrGroupExists) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				t.Fatalf("round %d: node %d: %v", round, i, err)
			}
			groups = append(groups, g)
			break
		}
	}
	for _, msg := range msgs {
		if err := groups[0].Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case err := <-failed:
		t.Fatalf("round %d: %v", round, err)
	case <-time.After(20 * time.Second):
		t.Fatalf("round %d: timed out waiting for deliveries", round)
	}
	mu.Lock()
	for i := range nodes {
		for k, msg := range msgs {
			if !bytes.Equal(received[i][k], msg) {
				t.Errorf("round %d: node %d received corrupt bytes in message %d", round, i, k)
			}
		}
	}
	mu.Unlock()
	if err := groups[0].DestroyWait(10 * time.Second); err != nil {
		t.Fatalf("round %d: close barrier: %v", round, err)
	}
}

func TestTCPFailureDetection(t *testing.T) {
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
	failed := make(chan error, 3)
	var groups []*rdmc.Group
	for _, n := range nodes {
		g, err := n.CreateGroup(1, members, rdmc.GroupConfig{}, rdmc.Callbacks{
			Incoming: func(size int) []byte { return make([]byte, size) },
			Failure:  func(err error) { failed <- err },
		})
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	// Exchange one message so connections are live, then kill node 2.
	var wg sync.WaitGroup
	wg.Add(3)
	doneCb := func(int, []byte, int) { wg.Done() }
	_ = doneCb // completions not wired here; use Delivered polling instead
	if err := groups[0].Send([]byte("warmup message")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for groups[0].Delivered() < 1 || groups[1].Delivered() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("warmup message never delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	_ = nodes[2].Close()
	for i := 0; i < 2; i++ {
		select {
		case <-failed:
		case <-time.After(10 * time.Second):
			t.Fatal("survivors did not learn of the failure")
		}
	}
	if err := groups[0].DestroyWait(10 * time.Second); err == nil {
		t.Error("close after failure reported success")
	}
}

func waitTimeout(t *testing.T, wg *sync.WaitGroup, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("timed out waiting for deliveries")
	}
}

func ExampleNewSimCluster() {
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	members := []int{0, 1, 2, 3}
	var root *rdmc.Group
	for i := range members {
		g, err := cluster.Node(i).CreateGroup(1, members, rdmc.GroupConfig{}, rdmc.Callbacks{})
		if err != nil {
			panic(err)
		}
		if i == 0 {
			root = g
		}
	}
	if err := root.SendSized(256 << 20); err != nil {
		panic(err)
	}
	elapsed := cluster.Run()
	gbps := float64(256<<20) * 8 / elapsed.Seconds() / 1e9
	fmt.Printf("replicated 256 MB to 3 nodes at %.0f Gb/s aggregate\n", gbps)
	// Output:
	// replicated 256 MB to 3 nodes at 99 Gb/s aggregate
}

// TestTCPRegroupAfterFailure reproduces the paper's §3 recovery story over
// real sockets: a member crashes mid-transfer, the close barrier fails, and
// the application re-forms the group among survivors and retries.
func TestTCPRegroupAfterFailure(t *testing.T) {
	nodes, err := rdmc.NewLocalCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				_ = n.Close()
			}
		}
	}()

	members := []int{0, 1, 2, 3}
	var groups []*rdmc.Group
	for _, n := range nodes {
		g, err := n.CreateGroup(1, members, rdmc.GroupConfig{BlockSize: 1 << 20}, rdmc.Callbacks{
			Incoming: func(size int) []byte { return make([]byte, size) },
		})
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	if err := groups[0].Send(make([]byte, 24<<20)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	crashed := nodes[3]
	nodes[3] = nil
	_ = crashed.Close()
	if err := groups[0].DestroyWait(15 * time.Second); err == nil {
		t.Fatal("close barrier succeeded despite crash")
	}

	// Re-form among survivors and run a full transfer.
	survivors := []int{0, 1, 2}
	var (
		mu    sync.Mutex
		count int
	)
	var groups2 []*rdmc.Group
	for _, id := range survivors {
		g, err := nodes[id].CreateGroup(2, survivors, rdmc.GroupConfig{BlockSize: 1 << 20}, rdmc.Callbacks{
			Incoming: func(size int) []byte { return make([]byte, size) },
			Completion: func(int, []byte, int) {
				mu.Lock()
				count++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		groups2 = append(groups2, g)
	}
	if err := groups2[0].Send(make([]byte, 8<<20)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		done := count == len(survivors)
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retry transfer among survivors never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := groups2[0].DestroyWait(15 * time.Second); err != nil {
		t.Fatalf("survivor close barrier: %v", err)
	}
}

func TestSimClusterSurface(t *testing.T) {
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Nodes() != 2 || cluster.Node(1).ID() != 1 {
		t.Fatal("cluster shape wrong")
	}
	members := []int{0, 1}
	var groups []*rdmc.Group
	for i := range members {
		g, err := cluster.Node(i).CreateGroup(1, members, rdmc.GroupConfig{
			RecordStats: true,
		}, rdmc.Callbacks{})
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	// Slow the only data link and confirm virtual time reflects it.
	cluster.SetLinkBandwidthGbps(0, 1, 10)
	if err := groups[0].SendSized(16 << 20); err != nil {
		t.Fatal(err)
	}
	if done := cluster.RunUntil(1 * time.Millisecond); done {
		t.Error("16MB at 10Gb/s drained within 1ms of virtual time")
	}
	cluster.Run()
	elapsed := cluster.Now()
	if elapsed < 12*time.Millisecond {
		t.Errorf("elapsed %v, want ≥ ~13ms at 10 Gb/s", elapsed)
	}
	if groups[1].Delivered() != 1 || groups[0].Err() != nil {
		t.Errorf("delivered=%d err=%v", groups[1].Delivered(), groups[0].Err())
	}
	st := groups[1].Stats()
	if st == nil || st.Blocks != 16 {
		t.Errorf("stats = %+v", st)
	}
	if cluster.Grid() == nil {
		t.Error("Grid accessor nil")
	}
	var destroyErr error
	called := false
	groups[0].Destroy(func(err error) { destroyErr = err; called = true })
	cluster.Run()
	if !called || destroyErr != nil {
		t.Errorf("destroy called=%v err=%v", called, destroyErr)
	}
}

func TestCreateGroupValidation(t *testing.T) {
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Node(0).CreateGroup(-1, []int{0}, rdmc.GroupConfig{}, rdmc.Callbacks{}); err == nil {
		t.Error("negative group id accepted")
	}
	if _, err := cluster.Node(0).CreateGroup(1, []int{0}, rdmc.GroupConfig{Algorithm: rdmc.Algorithm(99)}, rdmc.Callbacks{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestNewLocalClusterValidation(t *testing.T) {
	if _, err := rdmc.NewLocalCluster(0); err == nil {
		t.Error("zero-node cluster accepted")
	}
}

func TestQuickRandomSimMulticasts(t *testing.T) {
	// Property: any (algorithm, size, group) combination delivers the
	// exact bytes to every member in virtual time.
	algos := []rdmc.Algorithm{
		rdmc.SequentialSend, rdmc.ChainSend, rdmc.BinomialTree,
		rdmc.BinomialPipeline, rdmc.MPIBcast,
	}
	f := func(aRaw, nRaw uint8, sizeRaw uint16) bool {
		algo := algos[int(aRaw)%len(algos)]
		n := int(nRaw)%7 + 2
		size := int(sizeRaw)%50000 + 1
		cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: n, Seed: int64(sizeRaw)})
		if err != nil {
			return false
		}
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		msg := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(msg)
		okCount := 0
		var root *rdmc.Group
		for i := range members {
			g, err := cluster.Node(i).CreateGroup(1, members, rdmc.GroupConfig{
				BlockSize: 4 << 10,
				Algorithm: algo,
			}, rdmc.Callbacks{
				Incoming: func(size int) []byte { return make([]byte, size) },
				Completion: func(_ int, data []byte, _ int) {
					if data == nil || bytes.Equal(data, msg) {
						okCount++
					}
				},
			})
			if err != nil {
				return false
			}
			if i == 0 {
				root = g
			}
		}
		if err := root.Send(msg); err != nil {
			return false
		}
		cluster.Run()
		return okCount == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
