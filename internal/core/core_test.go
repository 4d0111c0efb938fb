package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"rdmc/internal/core"
	"rdmc/internal/rdma"
	"rdmc/internal/schedule"
	"rdmc/internal/simhost"
	"rdmc/internal/simnet"
)

// testGrid builds an n-node simulated deployment with fast links so protocol
// logic, not bandwidth, dominates test time.
func testGrid(t *testing.T, n int) *simhost.Grid {
	t.Helper()
	grid, err := simhost.New(simhost.Config{
		Cluster: simnet.ClusterConfig{
			Nodes:         n,
			LinkBandwidth: 12.5e9, // 100 Gb/s
			Latency:       1.5e-6,
			CPU:           simnet.DefaultCPUConfig(),
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// receiverState collects what one member observed.
type receiverState struct {
	delivered [][]byte
	sizes     []int
	failures  []error
}

// makeGroup creates the same group on every engine and returns the root's
// handle plus per-member observation state.
func makeGroup(t *testing.T, grid *simhost.Grid, id core.GroupID, cfg core.GroupConfig, withData bool) ([]*core.Group, []*receiverState) {
	t.Helper()
	n := grid.Nodes()
	members := make([]rdma.NodeID, n)
	for i := range members {
		members[i] = rdma.NodeID(i)
	}
	groups := make([]*core.Group, n)
	states := make([]*receiverState, n)
	for i := 0; i < n; i++ {
		st := &receiverState{}
		states[i] = st
		c := cfg
		c.Callbacks = core.Callbacks{
			Completion: func(seq int, data []byte, size int) {
				if data != nil {
					data = append([]byte(nil), data...)
				}
				st.delivered = append(st.delivered, data)
				st.sizes = append(st.sizes, size)
			},
			Failure: func(err error) { st.failures = append(st.failures, err) },
		}
		if withData {
			c.Callbacks.Incoming = func(size int) []byte { return make([]byte, size) }
		}
		g, err := grid.Engine(i).CreateGroup(id, members, c)
		if err != nil {
			t.Fatalf("CreateGroup on node %d: %v", i, err)
		}
		groups[i] = g
	}
	return groups, states
}

func TestMulticastDeliversIdenticalBytes(t *testing.T) {
	grid := testGrid(t, 4)
	groups, states := makeGroup(t, grid, 1, core.GroupConfig{BlockSize: 1024}, true)

	msg := make([]byte, 10_000)
	rand.New(rand.NewSource(7)).Read(msg)
	if err := groups[0].Send(msg); err != nil {
		t.Fatal(err)
	}
	grid.Run()

	for i, st := range states {
		if len(st.failures) != 0 {
			t.Fatalf("node %d failures: %v", i, st.failures)
		}
		if len(st.delivered) != 1 {
			t.Fatalf("node %d delivered %d messages, want 1", i, len(st.delivered))
		}
		if st.sizes[0] != len(msg) {
			t.Errorf("node %d size = %d, want %d", i, st.sizes[0], len(msg))
		}
		if i != 0 && !bytes.Equal(st.delivered[0], msg) {
			t.Errorf("node %d delivered corrupt bytes", i)
		}
	}
}

func TestMulticastAllAlgorithmsAndSizes(t *testing.T) {
	sizes := []int{1, 100, 1024, 1025, 9973} // including non-block-aligned
	for _, algo := range schedule.Algorithms() {
		for _, n := range []int{2, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/n=%d", algo, n), func(t *testing.T) {
				grid := testGrid(t, n)
				groups, states := makeGroup(t, grid, 1, core.GroupConfig{
					BlockSize: 1024,
					Generator: schedule.New(algo),
				}, true)
				var want [][]byte
				rng := rand.New(rand.NewSource(int64(n)))
				for seq, size := range sizes {
					msg := make([]byte, size)
					rng.Read(msg)
					want = append(want, msg)
					if err := groups[0].Send(msg); err != nil {
						t.Fatalf("send %d: %v", seq, err)
					}
				}
				grid.Run()
				for i, st := range states {
					if len(st.failures) != 0 {
						t.Fatalf("node %d failed: %v", i, st.failures)
					}
					if len(st.delivered) != len(sizes) {
						t.Fatalf("node %d delivered %d, want %d", i, len(st.delivered), len(sizes))
					}
					if i == 0 {
						continue
					}
					for seq := range want {
						if !bytes.Equal(st.delivered[seq], want[seq]) {
							t.Errorf("node %d message %d corrupted", i, seq)
						}
					}
				}
			})
		}
	}
}

func TestMessagesDeliverInSenderOrder(t *testing.T) {
	grid := testGrid(t, 4)
	groups, states := makeGroup(t, grid, 1, core.GroupConfig{BlockSize: 512}, true)
	for seq := 0; seq < 5; seq++ {
		msg := []byte{byte(seq)}
		if err := groups[0].Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	grid.Run()
	for i, st := range states {
		if len(st.delivered) != 5 {
			t.Fatalf("node %d delivered %d, want 5", i, len(st.delivered))
		}
		if i == 0 {
			continue
		}
		for seq, data := range st.delivered {
			if len(data) != 1 || data[0] != byte(seq) {
				t.Errorf("node %d message %d out of order: %v", i, seq, data)
			}
		}
	}
}

func TestSendSizedMetadataOnly(t *testing.T) {
	grid := testGrid(t, 4)
	groups, states := makeGroup(t, grid, 1, core.GroupConfig{BlockSize: 1 << 20}, false)
	if err := groups[0].SendSized(64 << 20); err != nil {
		t.Fatal(err)
	}
	grid.Run()
	for i, st := range states {
		if len(st.delivered) != 1 || st.sizes[0] != 64<<20 {
			t.Fatalf("node %d: delivered %d sizes %v", i, len(st.delivered), st.sizes)
		}
		if st.delivered[0] != nil {
			t.Errorf("node %d: metadata-only delivery carried data", i)
		}
	}
}

func TestSendErrors(t *testing.T) {
	grid := testGrid(t, 3)
	groups, _ := makeGroup(t, grid, 1, core.GroupConfig{BlockSize: 1024}, false)

	if err := groups[1].SendSized(100); !errors.Is(err, core.ErrNotRoot) {
		t.Errorf("non-root send: err = %v, want ErrNotRoot", err)
	}
	if err := groups[0].SendSized(0); err == nil {
		t.Error("zero-size send succeeded")
	}
	if err := groups[0].SendSized(1 << 40); !errors.Is(err, core.ErrMessageTooLarge) {
		t.Errorf("oversize send: err = %v, want ErrMessageTooLarge", err)
	}
}

func TestCreateGroupErrors(t *testing.T) {
	grid := testGrid(t, 3)
	members := []rdma.NodeID{0, 1, 2}
	if _, err := grid.Engine(0).CreateGroup(1, members, core.GroupConfig{}); err == nil {
		t.Error("zero block size accepted")
	}
	cfg := core.GroupConfig{BlockSize: 1024}
	if _, err := grid.Engine(0).CreateGroup(1, nil, cfg); err == nil {
		t.Error("empty member list accepted")
	}
	if _, err := grid.Engine(0).CreateGroup(1, []rdma.NodeID{1, 2}, cfg); !errors.Is(err, core.ErrNotMember) {
		t.Errorf("non-member create: err = %v, want ErrNotMember", err)
	}
	if _, err := grid.Engine(0).CreateGroup(1, members, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := grid.Engine(0).CreateGroup(1, members, cfg); !errors.Is(err, core.ErrGroupExists) {
		t.Errorf("duplicate create: err = %v, want ErrGroupExists", err)
	}
}

// TestSingleMemberGroupDeliversLocally sends a multi-block message and then
// one-block ones through a group with no receivers. The one-block path has
// no target to grant credit, so the root must never hold a message for it.
func TestSingleMemberGroupDeliversLocally(t *testing.T) {
	grid := testGrid(t, 1)
	var delivered int
	g, err := grid.Engine(0).CreateGroup(1, []rdma.NodeID{0}, core.GroupConfig{
		BlockSize: 64,
		Callbacks: core.Callbacks{Completion: func(int, []byte, int) { delivered++ }},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1000, 10, 64, 5} {
		if err := g.SendSized(size); err != nil {
			t.Fatal(err)
		}
	}
	grid.Run()
	if delivered != 4 {
		t.Errorf("delivered = %d, want 4", delivered)
	}
}

func TestDestroyBarrierSucceedsWhenAllDelivered(t *testing.T) {
	grid := testGrid(t, 4)
	groups, _ := makeGroup(t, grid, 1, core.GroupConfig{BlockSize: 1024}, false)
	for i := 0; i < 3; i++ {
		if err := groups[0].SendSized(5000); err != nil {
			t.Fatal(err)
		}
	}
	var closeErr = errors.New("sentinel: callback not invoked")
	groups[0].Destroy(func(err error) { closeErr = err })
	grid.Run()
	if closeErr != nil {
		t.Fatalf("close barrier: %v", closeErr)
	}
	// The paper's guarantee: a successful close means every message
	// reached every destination.
	for i := 1; i < 4; i++ {
		if got := groups[i].Delivered(); got != 3 {
			t.Errorf("node %d delivered %d, want 3", i, got)
		}
	}
	if err := groups[0].SendSized(10); !errors.Is(err, core.ErrGroupClosed) {
		t.Errorf("send after destroy: err = %v, want ErrGroupClosed", err)
	}
}

func TestDestroyBarrierWithNoMessages(t *testing.T) {
	grid := testGrid(t, 3)
	groups, _ := makeGroup(t, grid, 1, core.GroupConfig{BlockSize: 1024}, false)
	var closeErr = errors.New("sentinel")
	groups[0].Destroy(func(err error) { closeErr = err })
	grid.Run()
	if closeErr != nil {
		t.Fatalf("empty-group close: %v", closeErr)
	}
}

func TestFailureMidTransferReachesAllSurvivors(t *testing.T) {
	grid := testGrid(t, 8)
	groups, states := makeGroup(t, grid, 1, core.GroupConfig{BlockSize: 1 << 20}, false)
	if err := groups[0].SendSized(512 << 20); err != nil { // long transfer
		t.Fatal(err)
	}
	grid.Sim().After(0.005, func() { grid.FailNode(3) })
	grid.Run()

	for i, st := range states {
		if i == 3 {
			continue
		}
		if len(st.failures) == 0 {
			t.Errorf("survivor %d saw no failure", i)
			continue
		}
		var fe *core.FailureError
		if !errors.As(st.failures[0], &fe) {
			t.Errorf("survivor %d failure type %T", i, st.failures[0])
		}
	}
	// The root's close must report the failure.
	var closeErr error
	groups[0].Destroy(func(err error) { closeErr = err })
	grid.Run()
	if closeErr == nil {
		t.Error("close after failure reported success")
	}
	// And new sends must be refused.
	if err := groups[0].SendSized(10); err == nil {
		t.Error("send on failed group succeeded")
	}
}

func TestFailureCallbackFiresExactlyOnce(t *testing.T) {
	grid := testGrid(t, 4)
	groups, states := makeGroup(t, grid, 1, core.GroupConfig{BlockSize: 1 << 20}, false)
	if err := groups[0].SendSized(256 << 20); err != nil {
		t.Fatal(err)
	}
	grid.Sim().After(0.002, func() { grid.FailNode(2) })
	grid.Sim().After(0.004, func() { grid.FailNode(3) })
	grid.Run()
	for i, st := range states {
		if i >= 2 {
			continue
		}
		if len(st.failures) != 1 {
			t.Errorf("node %d failure callbacks = %d, want 1", i, len(st.failures))
		}
	}
}

func TestOverlappingGroupsWithDifferentSenders(t *testing.T) {
	// The paper's Figure 10 pattern: identical membership, k groups, one
	// sender each. All transfers must complete and share bandwidth.
	grid := testGrid(t, 4)
	n := grid.Nodes()
	members := make([]rdma.NodeID, n)
	for i := range members {
		members[i] = rdma.NodeID(i)
	}
	delivered := make([]int, n)
	var roots []*core.Group
	for gid := 0; gid < n; gid++ {
		rotated := make([]rdma.NodeID, n)
		for i := range members {
			rotated[i] = members[(i+gid)%n]
		}
		for i := 0; i < n; i++ {
			idx := i
			g, err := grid.Engine(i).CreateGroup(core.GroupID(gid+1), rotated, core.GroupConfig{
				BlockSize: 1 << 20,
				Callbacks: core.Callbacks{
					Completion: func(int, []byte, int) { delivered[idx]++ },
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if g.Rank() == 0 {
				roots = append(roots, g)
			}
		}
	}
	for _, g := range roots {
		if err := g.SendSized(32 << 20); err != nil {
			t.Fatal(err)
		}
	}
	grid.Run()
	for i, d := range delivered {
		if d != n {
			t.Errorf("node %d completed %d transfers, want %d", i, d, n)
		}
	}
}

func TestStatsRecorded(t *testing.T) {
	grid := testGrid(t, 4)
	groups, _ := makeGroup(t, grid, 1, core.GroupConfig{
		BlockSize:   1 << 20,
		RecordStats: true,
	}, false)
	if err := groups[0].SendSized(16 << 20); err != nil {
		t.Fatal(err)
	}
	grid.Run()

	root := groups[0].LastStats()
	if root == nil {
		t.Fatal("root stats missing")
	}
	if root.Blocks != 16 {
		t.Errorf("root blocks = %d, want 16", root.Blocks)
	}
	if root.SetupDoneAt < root.StartAt || root.DeliveredAt < root.SetupDoneAt {
		t.Errorf("root timeline inverted: %+v", root)
	}
	if len(root.Sends) == 0 {
		t.Error("root recorded no sends")
	}
	if root.SendBusy() <= 0 {
		t.Error("root send busy time not positive")
	}

	recv := groups[3].LastStats()
	if recv == nil {
		t.Fatal("receiver stats missing")
	}
	if len(recv.Recvs) != 16 {
		t.Errorf("receiver recv stamps = %d, want 16", len(recv.Recvs))
	}
	if recv.CopyTime <= 0 {
		t.Error("receiver copy time not charged")
	}
	if recv.TotalTime() <= 0 || recv.RecvSpan() <= 0 {
		t.Errorf("receiver spans not positive: total=%v span=%v", recv.TotalTime(), recv.RecvSpan())
	}
	if gaps := recv.RecvGaps(); len(gaps) != 15 {
		t.Errorf("receiver gaps = %d, want 15", len(gaps))
	}
}

func TestBinomialBeatsSequentialAtScale(t *testing.T) {
	// The core performance claim, as physics: replicating 64 MB to 7
	// receivers must take ≈7× the one-copy time sequentially but ≈1× with
	// the binomial pipeline.
	run := func(gen schedule.Generator) float64 {
		grid := testGrid(t, 8)
		groups, _ := makeGroup(t, grid, 1, core.GroupConfig{
			BlockSize: 1 << 20,
			Generator: gen,
		}, false)
		if err := groups[0].SendSized(64 << 20); err != nil {
			t.Fatal(err)
		}
		return grid.Run()
	}
	seq := run(schedule.New(schedule.Sequential))
	bin := run(schedule.New(schedule.BinomialPipeline))
	oneCopy := float64(64<<20) / 12.5e9

	if ratio := seq / oneCopy; ratio < 6.5 || ratio > 8 {
		t.Errorf("sequential/one-copy = %.2f, want ≈7", ratio)
	}
	if ratio := bin / oneCopy; ratio < 1.0 || ratio > 1.5 {
		t.Errorf("binomial/one-copy = %.2f, want ≈1", ratio)
	}
	if seq/bin < 4 {
		t.Errorf("sequential/binomial = %.2f, want ≫1", seq/bin)
	}
}

func TestEngineCloseReleasesGroupsQuietly(t *testing.T) {
	grid := testGrid(t, 3)
	groups, states := makeGroup(t, grid, 1, core.GroupConfig{BlockSize: 1024}, false)
	if err := grid.Engine(1).Close(); err != nil {
		t.Fatal(err)
	}
	// Closing one's own node is shutdown, not a failure.
	if len(states[1].failures) != 0 {
		t.Errorf("closed engine's group failure callbacks = %d, want 0", len(states[1].failures))
	}
	if err := groups[1].SendSized(1); !errors.Is(err, core.ErrNotRoot) {
		t.Errorf("send on closed member group: err = %v, want ErrNotRoot first", err)
	}
	if _, err := grid.Engine(1).CreateGroup(9, []rdma.NodeID{1}, core.GroupConfig{BlockSize: 1}); !errors.Is(err, core.ErrEngineClosed) {
		t.Errorf("create after close: err = %v, want ErrEngineClosed", err)
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	run := func() float64 {
		grid := testGrid(t, 8)
		groups, _ := makeGroup(t, grid, 1, core.GroupConfig{BlockSize: 1 << 20}, false)
		if err := groups[0].SendSized(32 << 20); err != nil {
			t.Fatal(err)
		}
		return grid.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical runs ended at %v and %v", a, b)
	}
}

// TestSendWindowEquivalence pins the send window down as a pure throughput
// knob: widening it changes when blocks move, never which blocks move or
// what the application sees. The same message multicast under SendWindow 1
// (the lockstep discipline) and SendWindow 4 (the default pipeline) must
// deliver identical bytes on every member and drive the identical set of
// scheduled block sends and receives through every member's stats.
func TestSendWindowEquivalence(t *testing.T) {
	type memberRecord struct {
		delivered [][]byte
		sends     map[int]int // block → times sent
		recvs     map[int]int // block → times received
	}
	msg := make([]byte, 50_000)
	rand.New(rand.NewSource(11)).Read(msg)

	runWith := func(t *testing.T, n, window int) []memberRecord {
		grid := testGrid(t, n)
		groups, states := makeGroup(t, grid, 1, core.GroupConfig{
			BlockSize:   2048,
			SendWindow:  window,
			RecordStats: true,
		}, true)
		if err := groups[0].Send(msg); err != nil {
			t.Fatal(err)
		}
		grid.Run()
		records := make([]memberRecord, n)
		for i := range records {
			if len(states[i].failures) != 0 {
				t.Fatalf("window %d: member %d failed: %v", window, i, states[i].failures)
			}
			rec := memberRecord{
				delivered: states[i].delivered,
				sends:     map[int]int{},
				recvs:     map[int]int{},
			}
			stats := groups[i].LastStats()
			if stats == nil {
				t.Fatalf("window %d: member %d has no stats", window, i)
			}
			for _, s := range stats.Sends {
				if s.DoneAt == 0 {
					t.Errorf("window %d: member %d send of block %d never completed", window, i, s.Block)
				}
				rec.sends[s.Block]++
			}
			for _, r := range stats.Recvs {
				rec.recvs[r.Block]++
			}
			records[i] = rec
		}
		return records
	}

	for _, n := range []int{3, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			lockstep := runWith(t, n, 1)
			windowed := runWith(t, n, 4)
			for i := range lockstep {
				a, b := lockstep[i], windowed[i]
				if len(a.delivered) != 1 || len(b.delivered) != 1 {
					t.Fatalf("member %d deliveries = %d/%d, want 1/1", i, len(a.delivered), len(b.delivered))
				}
				if i > 0 && !bytes.Equal(b.delivered[0], msg) {
					t.Errorf("member %d windowed delivery differs from message", i)
				}
				if !bytes.Equal(a.delivered[0], b.delivered[0]) {
					t.Errorf("member %d bytes differ between windows", i)
				}
				if !maps.Equal(a.sends, b.sends) {
					t.Errorf("member %d send blocks differ: lockstep %v, windowed %v", i, a.sends, b.sends)
				}
				if !maps.Equal(a.recvs, b.recvs) {
					t.Errorf("member %d recv blocks differ: lockstep %v, windowed %v", i, a.recvs, b.recvs)
				}
			}
		})
	}
}
