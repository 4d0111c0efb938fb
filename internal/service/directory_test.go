package service

import (
	"errors"
	"testing"

	"rdmc/internal/rdma"
)

func testDirectory(t *testing.T, nodes int) *Directory {
	t.Helper()
	d := NewDirectory(DirectoryConfig{Seed: 42})
	for i := 0; i < nodes; i++ {
		d.Attach(rdma.NodeID(i))
	}
	return d
}

// TestDrawGroupIsSeededAndLive pins the k-of-n draw: deterministic under a
// fixed seed, distinct members, never a detached node, and disjoint id
// ranges between registrations.
func TestDrawGroupIsSeededAndLive(t *testing.T) {
	d := testDirectory(t, 15)
	if _, err := d.AddTenant("cosmos", TenantConfig{}); err != nil {
		t.Fatal(err)
	}

	d2 := testDirectory(t, 15)
	if _, err := d2.AddTenant("cosmos", TenantConfig{}); err != nil {
		t.Fatal(err)
	}

	var prevEnd uint32
	for i := 0; i < 50; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		g1, err := d.DrawGroup("cosmos", name, 3)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := d2.DrawGroup("cosmos", name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(g1.Members) != 3 {
			t.Fatalf("draw %d: %d members, want 3", i, len(g1.Members))
		}
		seen := map[rdma.NodeID]bool{}
		for j, m := range g1.Members {
			if seen[m] {
				t.Fatalf("draw %d repeats member %d", i, m)
			}
			seen[m] = true
			if m != g2.Members[j] {
				t.Fatalf("draw %d diverged between same-seed directories", i)
			}
		}
		if uint32(g1.ID) < prevEnd {
			t.Fatalf("draw %d id %d overlaps previous range ending %d", i, g1.ID, prevEnd)
		}
		prevEnd = uint32(g1.ID) + g1.Span
	}

	// Detached nodes leave the draw pool.
	d.Detach(7)
	for i := 0; i < 30; i++ {
		g, err := d.DrawGroup("cosmos", "post-detach-"+string(rune('a'+i)), 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range g.Members {
			if m == 7 {
				t.Fatal("draw picked a detached node")
			}
		}
	}

	if _, err := d.DrawGroup("cosmos", "too-big", 20); !errors.Is(err, ErrRosterTooSmall) {
		t.Fatalf("oversized draw error = %v, want ErrRosterTooSmall", err)
	}
	if _, err := d.DrawGroup("nobody", "x", 3); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant error = %v, want ErrUnknownTenant", err)
	}
	if _, err := d.DrawGroup("cosmos", "a0", 3); !errors.Is(err, ErrGroupExists) {
		t.Fatalf("duplicate name error = %v, want ErrGroupExists", err)
	}
}

// TestTenantAdmission pins the reject-vs-queue policy: in-flight slots admit
// immediately, the queue absorbs up to MaxQueuedBytes, the rest is rejected,
// and Done drains the queue FIFO.
func TestTenantAdmission(t *testing.T) {
	d := testDirectory(t, 3)
	ten, err := d.AddTenant("batch", TenantConfig{MaxInFlight: 2, MaxQueuedBytes: 100})
	if err != nil {
		t.Fatal(err)
	}

	var started []int
	submit := func(id int, bytes int64) error {
		return ten.Submit(bytes, func() { started = append(started, id) })
	}

	if err := submit(1, 50); err != nil {
		t.Fatal(err)
	}
	if err := submit(2, 50); err != nil {
		t.Fatal(err)
	}
	if len(started) != 2 {
		t.Fatalf("started %v, want the two in-flight slots filled synchronously", started)
	}
	if err := submit(3, 60); err != nil { // queues (60 ≤ 100)
		t.Fatal(err)
	}
	if err := submit(4, 40); err != nil { // queues (60+40 ≤ 100)
		t.Fatal(err)
	}
	if err := submit(5, 1); !errors.Is(err, ErrOverloaded) { // 101 > 100
		t.Fatalf("over-budget submit error = %v, want ErrOverloaded", err)
	}
	if len(started) != 2 {
		t.Fatalf("queueing started work early: %v", started)
	}

	ten.Done()
	ten.Done()
	if want := []int{1, 2, 3, 4}; len(started) != 4 || started[2] != 3 || started[3] != 4 {
		t.Fatalf("started %v, want %v (FIFO drain)", started, want)
	}
	ten.Done()
	ten.Done()

	s := ten.Stats()
	if s.Admitted != 4 || s.Queued != 2 || s.Rejected != 1 || s.Completed != 4 {
		t.Fatalf("stats = %+v, want 4 admitted / 2 queued / 1 rejected / 4 completed", s)
	}
	if s.InFlight != 0 || s.QueuedNow != 0 {
		t.Fatalf("stats = %+v, want drained", s)
	}

	// Zero queue budget is the pure-reject policy.
	rej, err := d.AddTenant("interactive", TenantConfig{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rej.Submit(10, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := rej.Submit(10, func() {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("reject-policy second submit error = %v, want ErrOverloaded", err)
	}
}
