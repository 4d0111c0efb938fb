package core_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"rdmc/internal/core"
	"rdmc/internal/rdma"
)

// TestSendWaitClampsLeadIn is the regression test for the unclamped lead-in:
// a root posts its first send before SetupDoneAt is stamped (it stamps setup
// once that send has posted), and the negative lead-in used to subtract
// from the genuine inter-send gaps, silently deflating Table 1's send-wait
// row.
func TestSendWaitClampsLeadIn(t *testing.T) {
	s := &core.TransferStats{
		SetupDoneAt: 100 * time.Microsecond,
		Sends: []core.BlockStamp{
			{Block: 0, PostedAt: 60 * time.Microsecond, DoneAt: 90 * time.Microsecond},
			{Block: 1, PostedAt: 95 * time.Microsecond, DoneAt: 120 * time.Microsecond},
		},
	}
	// Lead-in 60-100 = -40µs must clamp to 0; the only wait is the 5µs gap
	// between the first completion (90) and the second post (95).
	if got, want := s.SendWait(), 5*time.Microsecond; got != want {
		t.Fatalf("SendWait = %v, want %v (negative lead-in not clamped)", got, want)
	}

	// The positive lead-in still counts.
	s.SetupDoneAt = 50 * time.Microsecond
	if got, want := s.SendWait(), 15*time.Microsecond; got != want {
		t.Fatalf("SendWait = %v, want %v (positive lead-in lost)", got, want)
	}

	if (&core.TransferStats{}).SendWait() != 0 {
		t.Fatal("SendWait on empty stats not zero")
	}
}

// TestLastStatsIsStableSnapshot is the regression test for LastStats handing
// out the group's internal pointer. With a single-block transfer the
// simulated host charges the first-block copy through a callback that fires
// *after* delivery publishes the record, so a caller that grabbed LastStats
// at delivery time would see CopyTime change under it. The deep copy must be
// immune to that later mutation.
func TestLastStatsIsStableSnapshot(t *testing.T) {
	grid := testGrid(t, 2)
	members := []rdma.NodeID{0, 1}
	cfg := core.GroupConfig{
		BlockSize:   1 << 20, // single block: the copy charge resolves after delivery
		RecordStats: true,
	}
	root, err := grid.Engine(0).CreateGroup(1, members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		recv     *core.Group
		snap     *core.TransferStats
		snapCopy time.Duration
	)
	recvCfg := cfg
	recvCfg.Callbacks = core.Callbacks{
		Completion: func(int, []byte, int) {
			if snap == nil {
				snap = recv.LastStats()
				snapCopy = snap.CopyTime
			}
		},
	}
	recv, err = grid.Engine(1).CreateGroup(1, members, recvCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.SendSized(1 << 20); err != nil {
		t.Fatal(err)
	}
	grid.Run() // drains delivery AND the deferred copy charge

	if snap == nil {
		t.Fatal("completion callback never captured stats")
	}
	final := recv.LastStats()
	if final.CopyTime <= snapCopy {
		// Guard that the hazard is actually exercised: the internal record
		// must have been amended after the snapshot was taken.
		t.Fatalf("internal record not amended after delivery (snap %v, final %v); test lost its teeth", snapCopy, final.CopyTime)
	}
	if snap.CopyTime != snapCopy {
		t.Fatalf("snapshot mutated after capture: CopyTime %v, was %v at delivery", snap.CopyTime, snapCopy)
	}
}

// statsReaderSink keeps TestLastStatsConcurrentReaders' field reads live.
var statsReaderSink time.Duration

// TestLastStatsConcurrentReaders reads a LastStats record from another
// goroutine while the simulation is still running the next transfers (and
// still amending the just-delivered record with its deferred copy charge).
// Under -race the old pointer-returning implementation reports a data race
// between the reader's field walk and the group's stats mutation; the deep
// copy is private to the reader and stays clean.
func TestLastStatsConcurrentReaders(t *testing.T) {
	grid := testGrid(t, 2)
	members := []rdma.NodeID{0, 1}
	cfg := core.GroupConfig{
		BlockSize:   1 << 20, // single block: the copy charge lands after delivery
		RecordStats: true,
	}
	root, err := grid.Engine(0).CreateGroup(1, members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recv *core.Group
	captured := make(chan *core.TransferStats, 1)
	recvCfg := cfg
	recvCfg.Callbacks = core.Callbacks{
		Completion: func(int, []byte, int) {
			select {
			case captured <- recv.LastStats():
			default:
			}
			// Yield so the reader goroutine interleaves with the event loop
			// even on GOMAXPROCS=1 — without it the whole simulation can run
			// to completion before the reader is ever scheduled.
			runtime.Gosched()
		},
	}
	recv, err = grid.Engine(1).CreateGroup(1, members, recvCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := root.SendSized(1 << 20); err != nil {
			t.Fatal(err)
		}
	}

	// The reader receives the first delivery's record exactly once and then
	// walks it with no further synchronization, exactly as an application
	// monitoring thread would. The record's deferred copy charge (and, with
	// the old aliasing bug, the whole record's reuse) lands while the sim is
	// still delivering the remaining 299 messages.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var s *core.TransferStats
		select {
		case s = <-captured:
		case <-done:
			return
		}
		var sink time.Duration
		// The sink escapes to a package variable so the CopyTime reads
		// cannot be optimized away (they are the whole point of the test).
		defer func() { statsReaderSink = sink }()
		for {
			select {
			case <-done:
				return
			default:
				sink += s.CopyTime
			}
		}
	}()
	grid.Run()
	close(done)
	wg.Wait()
}
