package simnet

import (
	"fmt"
	"testing"
)

// Every test here runs at testConfig's 100 B/s and 1 ms one-way latency, so a
// 100-byte frame takes T = 1 s on the wire.

func TestLaneSerialisesFrames(t *testing.T) {
	s := NewSim(1)
	c, err := NewCluster(s, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var lane Lane
	var laned, shared [2]float64
	for i := range laned {
		c.TransferOn(&lane, 0, 1, 100, func(bool) { laned[i] = s.Now() })
	}
	s.Run()
	approx(t, laned[0], 0.001+1, 1e-9, "first frame on the lane")
	approx(t, laned[1], 0.001+2, 1e-9, "second frame on the lane")

	// Without a lane the two frames share the port and land together.
	s = NewSim(1)
	c, _ = NewCluster(s, testConfig(2))
	for i := range shared {
		c.Transfer(0, 1, 100, func(bool) { shared[i] = s.Now() })
	}
	s.Run()
	approx(t, shared[0], 0.001+2, 1e-9, "first laneless frame")
	approx(t, shared[1], 0.001+2, 1e-9, "second laneless frame")
}

func TestLanesShareAPort(t *testing.T) {
	s := NewSim(1)
	c, err := NewCluster(s, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var a, b Lane
	var ta, tb float64
	c.TransferOn(&a, 0, 1, 100, func(bool) { ta = s.Now() })
	c.TransferOn(&b, 0, 2, 100, func(bool) { tb = s.Now() })
	s.Run()
	approx(t, ta, 0.001+2, 1e-9, "lane 0→1")
	approx(t, tb, 0.001+2, 1e-9, "lane 0→2")
}

// TestLaneOverlapsLatencyHop sends eight frames at once over a path whose
// latency is five frame times: only the wire is serial, so frame i lands at
// L + (i+1)T, all by L + 8T.
func TestLaneOverlapsLatencyHop(t *testing.T) {
	s := NewSim(1)
	cfg := testConfig(2)
	cfg.Latency = 0.5
	c, err := NewCluster(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lane Lane
	var landed [8]float64
	for i := range landed {
		c.TransferFrameOn(&lane, 0, 1, 10, func(o Outcome) {
			if o != OutcomeDelivered {
				t.Errorf("frame %d: %v", i, o)
			}
			landed[i] = s.Now()
		})
	}
	s.Run()
	for i, at := range landed {
		approx(t, at, 0.5+float64(i+1)*0.1, 1e-9, fmt.Sprintf("frame %d", i))
	}
}

// TestLaneBreakFailsWaitingFrames breaks the path under a lane's flow: the
// frames waiting behind it break after the same retry timeout, in send
// order, and the lane is free for traffic once the path heals.
func TestLaneBreakFailsWaitingFrames(t *testing.T) {
	for _, tc := range []struct {
		name          string
		fail, restore func(c *Cluster)
	}{
		{"link", func(c *Cluster) { c.BreakLink(0, 1) }, func(c *Cluster) { c.RestoreLink(0, 1) }},
		{"node", func(c *Cluster) { c.FailNode(1) }, func(c *Cluster) { c.RestoreNode(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSim(1)
			cfg := testConfig(2)
			cfg.RetryTimeout = 0.01
			c, err := NewCluster(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var lane Lane
			var order []int
			for i := 0; i < 3; i++ {
				c.TransferOn(&lane, 0, 1, 100, func(broken bool) {
					if !broken {
						t.Errorf("frame %d delivered across a broken path", i)
					}
					approx(t, s.Now(), 0.5+0.01, 1e-9, fmt.Sprintf("frame %d broken", i))
					order = append(order, i)
				})
			}
			s.At(0.5, func() { tc.fail(c) })
			s.At(0.6, func() { tc.restore(c) })
			var after float64 = -1
			s.At(0.7, func() {
				c.TransferOn(&lane, 0, 1, 100, func(broken bool) {
					if broken {
						t.Error("frame after the heal broke")
					}
					after = s.Now()
				})
			})
			s.Run()
			if fmt.Sprint(order) != "[0 1 2]" {
				t.Errorf("broken frames surfaced in order %v, want [0 1 2]", order)
			}
			approx(t, after, 0.7+0.001+1, 1e-9, "frame after the heal")
		})
	}
}

// TestLaneFrameInHopBreaksAsAFlowDoes breaks the path while frames are
// still in their latency hop: each surfaces broken one retry timeout after
// its hop, as a laneless frame does.
func TestLaneFrameInHopBreaksAsAFlowDoes(t *testing.T) {
	s := NewSim(1)
	cfg := testConfig(2)
	cfg.RetryTimeout = 0.01
	c, err := NewCluster(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lane Lane
	var at []float64
	for i := 0; i < 2; i++ {
		c.TransferOn(&lane, 0, 1, 100, func(broken bool) {
			if !broken {
				t.Errorf("frame %d delivered across a broken path", i)
			}
			at = append(at, s.Now())
		})
	}
	s.At(0.0005, func() { c.BreakLink(0, 1) })
	s.Run()
	if len(at) != 2 {
		t.Fatalf("%d of 2 frames completed", len(at))
	}
	for i, v := range at {
		approx(t, v, 0.001+0.01, 1e-9, fmt.Sprintf("frame %d broken", i))
	}
}
