package simnet

import (
	"math/rand"
	"testing"
)

func TestSimRunsEventsInTimeOrder(t *testing.T) {
	s := NewSim(1)
	var got []int
	s.At(3.0, func() { got = append(got, 3) })
	s.At(1.0, func() { got = append(got, 1) })
	s.At(2.0, func() { got = append(got, 2) })
	end := s.Run()
	if end != 3.0 {
		t.Errorf("end time = %v, want 3.0", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSimTieBreaksBySchedulingOrder(t *testing.T) {
	s := NewSim(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1.0, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("simultaneous events out of scheduling order: %v", got)
		}
	}
}

func TestSimAfterIsRelative(t *testing.T) {
	s := NewSim(1)
	var at float64
	s.At(5.0, func() {
		s.After(2.5, func() { at = s.Now() })
	})
	s.Run()
	if at != 7.5 {
		t.Errorf("After fired at %v, want 7.5", at)
	}
}

func TestSimPastEventRunsNow(t *testing.T) {
	s := NewSim(1)
	var at float64 = -1
	s.At(5.0, func() {
		s.At(1.0, func() { at = s.Now() })
	})
	s.Run()
	if at != 5.0 {
		t.Errorf("past event fired at %v, want clamped to 5.0", at)
	}
}

func TestSimCancelledEventDoesNotFire(t *testing.T) {
	s := NewSim(1)
	fired := false
	ev := s.At(1.0, func() { fired = true })
	ev.Cancel()
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestSimRunUntilStopsAtDeadline(t *testing.T) {
	s := NewSim(1)
	var fired []float64
	s.At(1.0, func() { fired = append(fired, 1.0) })
	s.At(3.0, func() { fired = append(fired, 3.0) })
	drained := s.RunUntil(2.0)
	if drained {
		t.Error("RunUntil reported drained with a pending event")
	}
	if len(fired) != 1 || fired[0] != 1.0 {
		t.Errorf("fired = %v, want [1.0]", fired)
	}
	if s.Now() != 2.0 {
		t.Errorf("Now = %v, want deadline 2.0", s.Now())
	}
	if !s.RunUntil(10.0) {
		t.Error("second RunUntil should drain the queue")
	}
	if len(fired) != 2 {
		t.Errorf("fired = %v, want both events", fired)
	}
}

func TestSimPendingCountsLiveEvents(t *testing.T) {
	s := NewSim(1)
	s.At(1, func() {})
	ev := s.At(2, func() {})
	ev.Cancel()
	if got := s.Pending(); got != 1 {
		t.Errorf("Pending = %d, want 1", got)
	}
}

func TestSimDeterministicRand(t *testing.T) {
	a := NewSim(42).Rand().Int63()
	b := NewSim(42).Rand().Int63()
	if a != b {
		t.Error("same seed produced different random streams")
	}
}

// TestSimMatchesReferenceQueue drives the event queue with a seeded random
// mix of At, After, handle-free schedules, past-time clamps, cancels (some of
// already-fired events) and RunUntil deadlines, issued both from outside and
// from inside firing callbacks. Every firing must be the earliest live event
// by (time, scheduling order) — a stable sort by time — at that event's time,
// and Pending must count exactly the live unfired events throughout.
func TestSimMatchesReferenceQueue(t *testing.T) {
	type record struct {
		time      float64
		seq       int
		ev        *Event // nil for handle-free schedules
		cancelled bool
		fired     bool
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim(seed)
		var recs []*record
		fired := 0
		live := func() int {
			n := 0
			for _, r := range recs {
				if !r.cancelled && !r.fired {
					n++
				}
			}
			return n
		}
		var schedule func()
		var fire func(r *record) func()
		fire = func(r *record) func() {
			return func() {
				if r.fired || r.cancelled {
					t.Fatalf("seed %d: event %d fired twice or after Cancel", seed, r.seq)
				}
				for _, o := range recs {
					if o != r && !o.fired && !o.cancelled && (o.time < r.time || o.time == r.time && o.seq < r.seq) {
						t.Fatalf("seed %d: event %d (t=%g) fired before event %d (t=%g)", seed, r.seq, r.time, o.seq, o.time)
					}
				}
				if s.Now() != r.time {
					t.Fatalf("seed %d: event %d fired at %g, scheduled for %g", seed, r.seq, s.Now(), r.time)
				}
				r.fired = true
				fired++
				for i := rng.Intn(3); i > 0 && len(recs) < 2000; i-- {
					schedule()
				}
			}
		}
		schedule = func() {
			r := &record{seq: len(recs)}
			// Whole-millisecond offsets make ties common; negative ones are
			// past-time clamps.
			d := float64(rng.Intn(12)-2) * 1e-3
			if d < 0 {
				r.time = s.Now()
			} else {
				r.time = s.Now() + d
			}
			recs = append(recs, r)
			switch rng.Intn(4) {
			case 0:
				r.ev = s.At(s.Now()+d, fire(r))
			case 1:
				r.ev = s.After(d, fire(r))
			case 2:
				s.schedule(s.Now()+d, fire(r))
			default:
				s.after(d, fire(r))
			}
			if r.ev != nil && r.ev.Time() != r.time {
				t.Fatalf("seed %d: event %d Time() = %g, want %g", seed, r.seq, r.ev.Time(), r.time)
			}
		}
		for i := 0; i < 50; i++ {
			schedule()
		}
		for step := 0; ; step++ {
			switch op := rng.Intn(10); {
			case op < 3 && len(recs) < 2000:
				schedule()
			case op < 5:
				// Cancel a random handle, fired or not.
				r := recs[rng.Intn(len(recs))]
				if r.ev != nil {
					r.ev.Cancel()
					if !r.fired {
						r.cancelled = true
					}
				}
			case op < 7:
				deadline := s.Now() + float64(rng.Intn(5))*1e-3
				drained := s.RunUntil(deadline)
				for _, r := range recs {
					if !r.fired && !r.cancelled && r.time <= deadline {
						t.Fatalf("seed %d: RunUntil(%g) left event %d at %g", seed, deadline, r.seq, r.time)
					}
				}
				if drained != (live() == 0) {
					t.Fatalf("seed %d: RunUntil drained = %v with %d live events", seed, drained, live())
				}
				if !drained && s.Now() != deadline {
					t.Fatalf("seed %d: Now = %g after RunUntil(%g)", seed, s.Now(), deadline)
				}
			default:
				if !s.Step() && live() != 0 {
					t.Fatalf("seed %d: Step found nothing with %d live events", seed, live())
				}
			}
			if got, want := s.Pending(), live(); got != want {
				t.Fatalf("seed %d step %d: Pending = %d, want %d", seed, step, got, want)
			}
			if live() == 0 && step > 200 {
				break
			}
		}
		if fired == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
	}
}
