package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"rdmc/internal/core"
	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/schedule"
	"rdmc/internal/simhost"
	"rdmc/internal/simnet"
)

// TestAdaptiveDecidesOncePerTransfer runs an 8-member adaptive group on a
// 12-node, 3-rack fabric and saturates rack 1's trunk with foreign flows
// while the transfer is in flight. The root samples contention once, at the
// start of the transfer; the shifted signal mid-transfer never revisits that
// decision, and every member still delivers the message exactly once, intact.
func TestAdaptiveDecidesOncePerTransfer(t *testing.T) {
	sink := obs.New(1 << 16)
	// Racks 0 and 1 hold the group; rack 2's nodes stay outside it as
	// foreign-traffic sources. The trunk matches one NIC (12.5 GB/s), so a
	// handful of foreign flows into rack 1 pushes its trunk pressure far
	// past the saturation threshold.
	grid, err := simhost.New(simhost.Config{
		Cluster: simnet.ClusterConfig{
			Nodes:          12,
			RackSize:       4,
			LinkBandwidth:  12.5e9,
			TrunkBandwidth: 12.5e9,
			Latency:        1.5e-6,
			CPU:            simnet.DefaultCPUConfig(),
		},
		Seed:     1,
		Observer: sink,
	})
	if err != nil {
		t.Fatal(err)
	}

	const groupSize = 8
	members := make([]rdma.NodeID, groupSize)
	rackOf := make([]int, groupSize)
	for i := range members {
		members[i] = rdma.NodeID(i)
		rackOf[i] = i / 4
	}
	groups := make([]*core.Group, groupSize)
	states := make([]*receiverState, groupSize)
	for i := range members {
		st := &receiverState{}
		states[i] = st
		g, err := grid.Engine(i).CreateGroup(1, members, core.GroupConfig{
			BlockSize: 512 << 10,
			Generator: schedule.AdaptiveGen{RackOf: rackOf},
			Callbacks: core.Callbacks{
				Incoming: func(size int) []byte { return make([]byte, size) },
				Completion: func(seq int, data []byte, size int) {
					st.delivered = append(st.delivered, append([]byte(nil), data...))
					st.sizes = append(st.sizes, size)
				},
				Failure: func(err error) { st.failures = append(st.failures, err) },
			},
		})
		if err != nil {
			t.Fatalf("CreateGroup on node %d: %v", i, err)
		}
		groups[i] = g
	}

	msg := make([]byte, 32<<20) // 64 blocks of 512 KiB
	rand.New(rand.NewSource(5)).Read(msg)
	// Four bulk flows from rack 2 into rack 1's members, well after the
	// clean-signal plan decision.
	grid.Sim().At(0.5e-3, func() {
		for i := 0; i < 4; i++ {
			grid.Cluster().Transfer(simnet.NodeID(8+i), simnet.NodeID(4+i), 64<<20, func(bool) {})
		}
	})
	if err := groups[0].Send(msg); err != nil {
		t.Fatal(err)
	}
	grid.Run()

	for i, st := range states {
		if len(st.failures) != 0 {
			t.Fatalf("member %d failed: %v", i, st.failures)
		}
		if len(st.delivered) != 1 {
			t.Fatalf("member %d delivered %d messages, want exactly 1", i, len(st.delivered))
		}
		if st.sizes[0] != len(msg) {
			t.Errorf("member %d size = %d, want %d", i, st.sizes[0], len(msg))
		}
		if i != 0 && !bytes.Equal(st.delivered[0], msg) {
			t.Errorf("member %d delivered corrupt bytes", i)
		}
	}

	ring := sink.Ring()
	if ring.Total() != uint64(ring.Len()) {
		t.Fatalf("event ring overwrote %d events; enlarge it", ring.Total()-uint64(ring.Len()))
	}
	var samples int
	for _, e := range ring.Snapshot() {
		if e.Kind == obs.EvContentionSample {
			samples++
			if e.Node != 0 || e.Seq != 0 {
				t.Errorf("contention sample on node %d for seq %d, want the root's seq 0", e.Node, e.Seq)
			}
		}
	}
	if samples != 1 {
		t.Errorf("contention samples = %d, want exactly 1 for one transfer", samples)
	}
}
