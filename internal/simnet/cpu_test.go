package simnet

import (
	"testing"
)

func TestCPUExecSerializesTasks(t *testing.T) {
	s := NewSim(1)
	cpu := NewCPU(s, CPUConfig{Mode: ModePolling})
	var ends []float64
	cpu.Exec(1.0, func() { ends = append(ends, s.Now()) })
	cpu.Exec(2.0, func() { ends = append(ends, s.Now()) })
	s.Run()
	if len(ends) != 2 {
		t.Fatalf("tasks run = %d, want 2", len(ends))
	}
	approx(t, ends[0], 1.0, 1e-12, "first task end")
	approx(t, ends[1], 3.0, 1e-12, "second task queued behind first")
	approx(t, cpu.BusySeconds(), 3.0, 1e-12, "busy accounting")
}

func TestCPUExecLaterSubmissionStartsWhenFree(t *testing.T) {
	s := NewSim(1)
	cpu := NewCPU(s, CPUConfig{Mode: ModePolling})
	var end float64
	cpu.Exec(1.0, func() {})
	s.At(5.0, func() {
		cpu.Exec(1.0, func() { end = s.Now() })
	})
	s.Run()
	approx(t, end, 6.0, 1e-12, "idle CPU starts immediately")
}

func TestCPUDeliverModes(t *testing.T) {
	const (
		compCost = 1e-6
		irqLat   = 10e-6
	)
	run := func(mode CompletionMode, window float64) float64 {
		s := NewSim(1)
		cpu := NewCPU(s, CPUConfig{
			CompletionCost:   compCost,
			InterruptLatency: irqLat,
			PollWindow:       window,
			Mode:             mode,
		})
		var at float64
		s.At(1.0, func() { cpu.Deliver(func() { at = s.Now() }) })
		s.Run()
		return at - 1.0
	}

	approx(t, run(ModePolling, 0), compCost, 1e-12, "polling delivery cost")
	approx(t, run(ModeInterrupt, 0), irqLat+compCost, 1e-12, "interrupt delivery cost")
	// Hybrid with a cold completion queue pays the interrupt.
	approx(t, run(ModeHybrid, 50e-3), irqLat+compCost, 1e-12, "hybrid cold delivery")
}

func TestCPUHybridPollsWithinWindow(t *testing.T) {
	s := NewSim(1)
	cpu := NewCPU(s, CPUConfig{
		CompletionCost:   1e-6,
		InterruptLatency: 10e-6,
		PollWindow:       50e-3,
		Mode:             ModeHybrid,
	})
	var second float64
	s.At(1.0, func() { cpu.Deliver(func() {}) })
	s.At(1.01, func() { cpu.Deliver(func() { second = s.Now() }) }) // inside window
	s.Run()
	approx(t, second-1.01, 1e-6, 1e-12, "hybrid warm delivery skips interrupt")
}

func TestCPUHybridInterruptsAfterWindow(t *testing.T) {
	s := NewSim(1)
	cpu := NewCPU(s, CPUConfig{
		CompletionCost:   1e-6,
		InterruptLatency: 10e-6,
		PollWindow:       50e-3,
		Mode:             ModeHybrid,
	})
	var second float64
	s.At(1.0, func() { cpu.Deliver(func() {}) })
	s.At(2.0, func() { cpu.Deliver(func() { second = s.Now() }) }) // window expired
	s.Run()
	approx(t, second-2.0, 11e-6, 1e-12, "hybrid cold delivery pays interrupt")
}

func TestCPUDelayInjection(t *testing.T) {
	s := NewSim(1)
	cpu := NewCPU(s, CPUConfig{
		Mode:          ModePolling,
		DelayInjector: func() float64 { return 0.5 },
	})
	var end float64
	cpu.Exec(1.0, func() { end = s.Now() })
	s.Run()
	approx(t, end, 1.5, 1e-12, "injected delay extends occupancy")
	approx(t, cpu.InjectedDelaySeconds(), 0.5, 1e-12, "injected delay accounting")
	approx(t, cpu.BusySeconds(), 1.0, 1e-12, "busy excludes injected delay")
}

func TestCPUUtilizationByMode(t *testing.T) {
	s := NewSim(1)
	poll := NewCPU(s, CPUConfig{Mode: ModePolling})
	irq := NewCPU(s, CPUConfig{Mode: ModeInterrupt})
	poll.Exec(1.0, func() {})
	irq.Exec(1.0, func() {})
	s.Run()
	approx(t, poll.Utilization(10), 1.0, 1e-12, "polling pins a core")
	approx(t, irq.Utilization(10), 0.1, 1e-12, "interrupt pays only task time")
	approx(t, irq.Utilization(0), 0, 1e-12, "zero session duration")
}

func TestCompletionModeString(t *testing.T) {
	tests := []struct {
		mode CompletionMode
		want string
	}{
		{ModeHybrid, "hybrid"},
		{ModePolling, "polling"},
		{ModeInterrupt, "interrupts"},
		{CompletionMode(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.mode.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.mode, got, tt.want)
		}
	}
}

// TestCPUHybridKeepsArrivalOrder delivers a completion into a cold hybrid
// CPU and a second one while the first still waits for its wake-up. The
// second needs no wake-up of its own, but must not run before the first.
func TestCPUHybridKeepsArrivalOrder(t *testing.T) {
	s := NewSim(1)
	cpu := NewCPU(s, CPUConfig{
		CompletionCost:   1e-6,
		InterruptLatency: 10e-6,
		PollWindow:       50e-3,
		Mode:             ModeHybrid,
	})
	var order []int
	var at []float64
	s.At(1.0, func() { cpu.Deliver(func() { order = append(order, 1); at = append(at, s.Now()) }) })
	s.At(1.0+2e-6, func() { cpu.Deliver(func() { order = append(order, 2); at = append(at, s.Now()) }) })
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("completions ran in order %v, want [1 2]", order)
	}
	approx(t, at[0]-1.0, 11e-6, 1e-12, "first pays the wake-up")
	approx(t, at[1]-1.0, 12e-6, 1e-12, "second queues behind the first")
}
