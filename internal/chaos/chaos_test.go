package chaos

import (
	"fmt"
	"testing"

	"rdmc/internal/core"
	"rdmc/internal/rdma"
)

// TestChaosScenarios runs the full suite — crash-of-relay, crash-of-root,
// and transient cross-rack partition — at n ∈ {4, 8, 16}, and for each
// schedule also replays it against bare, session-less engine groups to
// prove the fault actually bites there: the baseline must hang or leave
// survivors short, while the session layer must deliver identical gap-free
// sequences with finite recovery latency.
func TestChaosScenarios(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		for _, sc := range Scenarios(n, 1) {
			sc := sc
			t.Run(fmt.Sprintf("%s/n=%d", sc.Name, n), func(t *testing.T) {
				res, err := Run(sc)
				if err != nil {
					t.Fatalf("session run violated the contract: %v", err)
				}
				if !res.Drained {
					t.Fatal("session run did not drain")
				}
				if res.RecoverySeconds <= 0 {
					t.Errorf("recovery latency %v, want > 0", res.RecoverySeconds)
				}
				if res.Epochs < 2 {
					t.Errorf("majority epoch %d, want >= 2", res.Epochs)
				}
				if res.Delivered < sc.Epilogue {
					t.Errorf("majority delivered %d messages, want >= %d", res.Delivered, sc.Epilogue)
				}

				base, err := RunBaseline(sc)
				if err != nil {
					t.Fatalf("baseline replay: %v", err)
				}
				if !base.Failed() {
					t.Errorf("session-less baseline survived the fault (delivered %d/%d, drained %v) — scenario does not bite",
						base.MinDelivered, base.Sent, base.Drained)
				}
			})
		}
	}
}

// TestChaosScenariosUniform runs the same suite with uniform delivery: the
// contract above still holds, and no excluded node — crashed, or cut off by
// the partition — delivered a message the survivors do not.
func TestChaosScenariosUniform(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		for _, sc := range Scenarios(n, 1) {
			sc := sc
			sc.uniform = true
			t.Run(fmt.Sprintf("%s/n=%d", sc.Name, n), func(t *testing.T) {
				res, err := Run(sc)
				if err != nil {
					t.Fatalf("uniform session run violated the contract: %v", err)
				}
				if res.Epochs < 2 || res.Delivered < sc.Epilogue {
					t.Errorf("majority epoch %d, delivered %d; want a recovery epoch and the epilogue", res.Epochs, res.Delivered)
				}
			})
		}
	}
}

// TestChaosResendAccounting pins that a mid-transfer relay crash forces the
// surviving root to actually re-send: the bytes re-sent must match the
// resend count and the recovery histogram input must be finite.
func TestChaosResendAccounting(t *testing.T) {
	sc := CrashRelay(8, 7)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResentBytes != res.Resent*uint64(sc.MsgBytes) {
		t.Errorf("resent bytes %d inconsistent with %d resends of %d bytes",
			res.ResentBytes, res.Resent, sc.MsgBytes)
	}
	if res.BaselineSeconds <= 0 || res.RecoverySeconds > res.BaselineSeconds*20 {
		t.Errorf("recovery %.6fs implausible against baseline %.6fs", res.RecoverySeconds, res.BaselineSeconds)
	}
}

// TestChaosSeedsAreDeterministic runs the same scenario twice and expects
// bit-identical results — the whole point of the virtual-time harness.
func TestChaosSeedsAreDeterministic(t *testing.T) {
	sc := CrashRoot(4, 3)
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
}

// TestChaosOneBlockRelayCrash runs the relay-crash schedule on one-block
// messages and crashes rank 1, which relays the one-block plan (to rank 3,
// and at n ≥ 8 to more). Sessions must recover as they do on multi-block
// messages, bare groups must fail as they do, and once the survivors have
// destroyed their groups no group callback may fire.
func TestChaosOneBlockRelayCrash(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		sc := CrashRelay(n, 1)
		sc.Name = "crash-one-block-relay"
		sc.MsgBytes = sc.BlockBytes
		sc.Faults[0].Node = 1
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("session run violated the contract: %v", err)
			}
			if !res.Drained || res.Epochs < 2 || res.Delivered < sc.Epilogue {
				t.Errorf("drained %v, majority epoch %d, delivered %d; want a drained recovery epoch and the epilogue",
					res.Drained, res.Epochs, res.Delivered)
			}
			base, err := RunBaseline(sc)
			if err != nil {
				t.Fatalf("baseline replay: %v", err)
			}
			if !base.Failed() {
				t.Errorf("session-less baseline survived the fault (delivered %d/%d)", base.MinDelivered, base.Sent)
			}
			if late := callbacksAfterDestroy(t, sc); late != 0 {
				t.Errorf("%d group callbacks fired after Destroy", late)
			}
		})
	}
}

// callbacksAfterDestroy replays the schedule on bare groups, has every
// survivor destroy its group midway between the crash and the end of the
// paced workload, runs on, and counts the group callbacks that fire on a
// destroyed member.
func callbacksAfterDestroy(t *testing.T, sc Scenario) int {
	t.Helper()
	spacing, baseline, err := sc.calibrate()
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.newGrid()
	if err != nil {
		t.Fatal(err)
	}
	members := make([]rdma.NodeID, sc.Nodes)
	for i := range members {
		members[i] = rdma.NodeID(i)
	}
	destroyed := make([]bool, sc.Nodes)
	late := 0
	groups := make([]*core.Group, sc.Nodes)
	for i := range groups {
		i := i
		note := func() {
			if destroyed[i] {
				late++
			}
		}
		groups[i], err = g.Engine(i).CreateGroup(1, members, core.GroupConfig{
			BlockSize: sc.BlockBytes,
			Callbacks: core.Callbacks{
				Incoming:   func(size int) []byte { note(); return make([]byte, size) },
				Completion: func(int, []byte, int) { note() },
				Failure:    func(error) { note() },
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for m := 0; m < sc.Messages; m++ {
		m := m
		g.Sim().At(float64(m)*spacing, func() { _ = groups[0].Send(msg(sc.MsgBytes, byte(m))) })
	}
	sc.schedule(g, baseline)
	lost := sc.lost()
	g.Sim().At(0.75*baseline, func() {
		for i, grp := range groups {
			if !lost[i] {
				destroyed[i] = true
				grp.Destroy(nil)
			}
		}
	})
	g.RunUntil(20*baseline + 0.05)
	return late
}
