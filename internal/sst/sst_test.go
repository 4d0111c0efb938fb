package sst

import (
	"testing"

	"rdmc/internal/rdma"
	"rdmc/internal/rdma/simnic"
	"rdmc/internal/simnet"
)

func testTables(t *testing.T, n, cols int) (*simnet.Sim, []*Table) {
	t.Helper()
	sim := simnet.NewSim(1)
	cluster, err := simnet.NewCluster(sim, simnet.ClusterConfig{
		Nodes:         n,
		LinkBandwidth: 1e9,
		Latency:       1e-6,
		CPU:           simnet.CPUConfig{Mode: simnet.ModePolling},
	})
	if err != nil {
		t.Fatal(err)
	}
	network := simnic.NewNetwork(cluster)
	ids := make([]rdma.NodeID, n)
	for i := range ids {
		ids[i] = rdma.NodeID(i)
	}
	tables := make([]*Table, n)
	for i := 0; i < n; i++ {
		p := network.Provider(ids[i])
		p.SetHandler(func(rdma.Completion) {})
		tb, err := New(p, 7, ids, cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tb
	}
	return sim, tables
}

func TestSetReplicatesToAllMembers(t *testing.T) {
	sim, tables := testTables(t, 3, 2)
	if err := tables[1].Set(0, 42); err != nil {
		t.Fatal(err)
	}
	if err := tables[1].Set(1, 7); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	for i, tb := range tables {
		if got := tb.Get(1, 0); got != 42 {
			t.Errorf("table %d cell (1,0) = %d, want 42", i, got)
		}
		if got := tb.Get(1, 1); got != 7 {
			t.Errorf("table %d cell (1,1) = %d, want 7", i, got)
		}
	}
}

// TestColumnMin checks every replica holds every member's cell of a column,
// so a reader's minimum over the column (the stable frontier a session
// computes from its rows) is the same at every member.
func TestColumnMin(t *testing.T) {
	sim, tables := testTables(t, 4, 1)
	for i, tb := range tables {
		if err := tb.Set(0, uint64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	for i, tb := range tables {
		lo := ^uint64(0)
		for row := range tables {
			v := tb.Get(row, 0)
			if v != uint64(10+row) {
				t.Errorf("table %d cell (%d,0) = %d, want %d", i, row, v, 10+row)
			}
			lo = min(lo, v)
		}
		if lo != 10 {
			t.Errorf("table %d min = %d, want 10", i, lo)
		}
	}
}

func TestWatchFiresOnRemoteUpdates(t *testing.T) {
	sim := simnet.NewSim(1)
	cluster, err := simnet.NewCluster(sim, simnet.ClusterConfig{
		Nodes:         2,
		LinkBandwidth: 1e9,
		Latency:       1e-6,
		CPU:           simnet.CPUConfig{Mode: simnet.ModePolling},
	})
	if err != nil {
		t.Fatal(err)
	}
	network := simnic.NewNetwork(cluster)
	ids := []rdma.NodeID{0, 1}
	tables := make([]*Table, 2)
	var updates [][3]int
	for i := range ids {
		p := network.Provider(ids[i])
		p.SetHandler(func(rdma.Completion) {})
		var onPush func(row, col int, v uint64)
		if i == 1 {
			onPush = func(row, col int, v uint64) { updates = append(updates, [3]int{row, col, int(v)}) }
		}
		if tables[i], err = New(p, 7, ids, 1, onPush); err != nil {
			t.Fatal(err)
		}
	}
	if err := tables[0].Set(0, 5); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(updates) != 1 || updates[0] != [3]int{0, 0, 5} {
		t.Errorf("updates = %v, want [[0 0 5]]", updates)
	}
}

func TestRowCopy(t *testing.T) {
	sim, tables := testTables(t, 2, 3)
	for c := uint(0); c < 3; c++ {
		if err := tables[0].Set(c, uint64(c)*100); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	for c := 0; c < 3; c++ {
		if got := tables[1].Get(0, c); got != uint64(c)*100 {
			t.Errorf("cell (0,%d) = %d, want %d", c, got, c*100)
		}
	}
}

func TestSetKeepsPushingPastDeadMember(t *testing.T) {
	sim := simnet.NewSim(1)
	cluster, err := simnet.NewCluster(sim, simnet.ClusterConfig{
		Nodes:         3,
		LinkBandwidth: 1e9,
		Latency:       1e-6,
		RetryTimeout:  1e-4,
		CPU:           simnet.CPUConfig{Mode: simnet.ModePolling},
	})
	if err != nil {
		t.Fatal(err)
	}
	network := simnic.NewNetwork(cluster)
	ids := []rdma.NodeID{0, 1, 2}
	tables := make([]*Table, 3)
	for i := range ids {
		p := network.Provider(ids[i])
		p.SetHandler(func(rdma.Completion) {})
		if tables[i], err = New(p, 7, ids, 1, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Node 1 dies. The first Set's push into it breaks the 0↔1 queue pair
	// after the retry timeout; the second Set then sees a posting error for
	// rank 1 but must still reach rank 2 — a survivor behind the dead peer
	// in iteration order.
	cluster.FailNode(1)
	if err := tables[0].Set(0, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	err = tables[0].Set(0, 2)
	if err == nil {
		t.Error("Set reported no error with a broken member push")
	}
	sim.Run()
	if got := tables[2].Get(0, 0); got != 2 {
		t.Errorf("survivor replica = %d, want 2 (push must continue past the dead member)", got)
	}
}

func TestValidation(t *testing.T) {
	sim, _ := testTables(t, 2, 1)
	_ = sim
	cluster, err := simnet.NewCluster(simnet.NewSim(1), simnet.ClusterConfig{
		Nodes: 2, LinkBandwidth: 1e9, CPU: simnet.CPUConfig{Mode: simnet.ModePolling},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := simnic.NewNetwork(cluster).Provider(0)
	p.SetHandler(func(rdma.Completion) {})
	ids := []rdma.NodeID{0, 1}
	if _, err := New(p, 1, ids, 0, nil); err == nil {
		t.Error("zero columns accepted")
	}
	if _, err := New(p, 1, []rdma.NodeID{0}, 1, nil); err == nil {
		t.Error("single member accepted")
	}
	if _, err := New(p, 1<<30, ids, 1, nil); err == nil {
		t.Error("oversized id accepted")
	}
	if _, err := New(p, 1, []rdma.NodeID{4, 5}, 1, nil); err == nil {
		t.Error("non-member accepted")
	}
	tb, err := New(p, 1, ids, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Set(5, 1); err == nil {
		t.Error("out-of-range column accepted")
	}
}
