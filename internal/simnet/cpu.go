package simnet

// CompletionMode selects how NIC completions reach the software layer,
// mirroring the RDMC paper's §5.2.3 resource-consideration experiments.
type CompletionMode int

const (
	// ModeHybrid polls for a window after each completion event and then
	// falls back to interrupts: RDMC's default (50 ms window in the paper).
	ModeHybrid CompletionMode = iota + 1
	// ModePolling burns a core spinning on the completion queue; delivery
	// is immediate but CPU utilization is 100% while a session is active.
	ModePolling
	// ModeInterrupt blocks on the completion channel; each completion pays
	// an interrupt wake-up latency but the CPU is otherwise idle.
	ModeInterrupt
)

func (m CompletionMode) String() string {
	switch m {
	case ModeHybrid:
		return "hybrid"
	case ModePolling:
		return "polling"
	case ModeInterrupt:
		return "interrupts"
	default:
		return "unknown"
	}
}

// CPUConfig holds the software-overhead constants of a node. The defaults are
// order-of-magnitude values for the paper's Xeon-class hosts.
type CPUConfig struct {
	// PostCost is the CPU time to post one work request (send or recv).
	PostCost float64
	// CompletionCost is the CPU time to process one completion upcall.
	CompletionCost float64
	// InterruptLatency is the wake-up delay paid per completion in
	// interrupt mode (or in hybrid mode outside the polling window).
	InterruptLatency float64
	// PollWindow is the hybrid-mode duration after an event during which
	// completions are picked up by polling.
	PollWindow float64
	// Mode selects the completion delivery mode.
	Mode CompletionMode
	// DelayInjector, when non-nil, returns an extra occupancy delay
	// (seconds) sampled per CPU task; it models OS scheduling preemptions
	// (§4.5, Figure 5's anomalous wait).
	DelayInjector func() float64
}

// DefaultCPUConfig returns the constants used by the benchmark harness.
func DefaultCPUConfig() CPUConfig {
	return CPUConfig{
		PostCost:         0.7e-6,
		CompletionCost:   1.0e-6,
		InterruptLatency: 6.0e-6,
		PollWindow:       50e-3,
		Mode:             ModeHybrid,
	}
}

// CPU models a node's software execution as a serial resource: tasks execute
// one at a time in submission order, each occupying the CPU for its cost plus
// any injected scheduling delay.
type CPU struct {
	sim  *Sim
	cfg  CPUConfig
	free float64 // time the CPU becomes free

	busy          float64 // accumulated task seconds
	injectedDelay float64 // accumulated injected delay seconds
	lastEvent     float64 // last completion event (hybrid window tracking)
	wakeEnd       float64 // when the latest pending wake-up ends
}

// NewCPU returns a CPU bound to the simulation clock.
func NewCPU(sim *Sim, cfg CPUConfig) *CPU {
	return &CPU{sim: sim, cfg: cfg, lastEvent: -1e18}
}

// Config returns the CPU's configuration.
func (c *CPU) Config() CPUConfig { return c.cfg }

// Exec schedules fn after the CPU has spent cost seconds on the task,
// queueing behind earlier tasks. It returns the virtual completion time.
func (c *CPU) Exec(cost float64, fn func()) float64 {
	start := c.sim.Now()
	if c.free > start {
		start = c.free
	}
	delay := 0.0
	if c.cfg.DelayInjector != nil {
		delay = c.cfg.DelayInjector()
	}
	end := start + cost + delay
	c.free = end
	c.busy += cost
	c.injectedDelay += delay
	c.sim.schedule(end, fn)
	return end
}

// Deliver routes a NIC completion to fn, charging the mode-dependent delivery
// latency and the completion processing cost. Completions run in arrival
// order: one that needs no wake-up still waits for an earlier one's.
func (c *CPU) Deliver(fn func()) {
	now := c.sim.Now()
	wake := 0.0
	switch c.cfg.Mode {
	case ModePolling:
	case ModeInterrupt:
		wake = c.cfg.InterruptLatency
	case ModeHybrid:
		if now-c.lastEvent > c.cfg.PollWindow {
			wake = c.cfg.InterruptLatency
		}
	}
	c.lastEvent = now
	if at := max(now+wake, c.wakeEnd); at > now {
		c.wakeEnd = at
		c.sim.schedule(at, func() { c.Exec(c.cfg.CompletionCost, fn) })
		return
	}
	c.Exec(c.cfg.CompletionCost, fn)
}

// Post charges the work-request posting cost and then runs fn.
func (c *CPU) Post(fn func()) { c.Exec(c.cfg.PostCost, fn) }

// BusySeconds returns the accumulated task execution time (excluding
// injected delays).
func (c *CPU) BusySeconds() float64 { return c.busy }

// InjectedDelaySeconds returns the accumulated injected scheduling delay.
func (c *CPU) InjectedDelaySeconds() float64 { return c.injectedDelay }

// Utilization returns the CPU utilization over a session of the given
// duration. Polling mode (and hybrid mode, which in practice polls
// continuously during active transfers) pins a core, matching the paper's
// "almost exactly 100%" observation; interrupt mode pays only task time.
func (c *CPU) Utilization(sessionSeconds float64) float64 {
	if sessionSeconds <= 0 {
		return 0
	}
	switch c.cfg.Mode {
	case ModePolling, ModeHybrid:
		return 1.0
	default:
		u := c.busy / sessionSeconds
		if u > 1 {
			u = 1
		}
		return u
	}
}
