package core

// SendThrottle rations outbound data-plane bytes across the groups sharing
// one NIC. The engine's cumulative-credit path already paces each group
// against its receivers; a throttle adds the cross-group dimension — how much
// of the port's send budget each group (or the tenant behind it) may hold in
// flight at once. The hook sits exactly where credit gating does: a send that
// has cleared the schedule, presence, and receiver-credit gates must also
// Acquire its block's bytes before posting, and returns them when the send
// completes.
//
// Locking contract: every method is called with the acquiring/releasing
// group's mutex held, so implementations take their own lock inside the
// group's (Group.mu → throttle.mu, never the reverse). Acquire must never
// invoke resume synchronously — it is a wakeup for later, called at most once
// per stall, outside any throttle or group lock. Release and Forget return
// the wakeups they unblock instead of running them, and the caller runs them
// after dropping its own lock; a resume re-enters the group state machine,
// which re-Acquires, so running one under a lock would deadlock or invert
// the order.
//
// A nil Throttle in GroupConfig disables the feature entirely; the hot path
// pays one nil check.
type SendThrottle interface {
	// Acquire requests bytes of send budget on behalf of group g. True
	// grants the budget immediately. False refuses it: the group stalls,
	// and the throttle must call resume (once, later, outside locks) when
	// budget may have become available; the group then re-Acquires. A
	// repeated Acquire for a group already waiting replaces its
	// registration rather than queueing a second one.
	Acquire(g GroupID, bytes int, resume func()) bool
	// Release returns bytes of budget and reports the resume callbacks now
	// unblocked. The caller must run them after releasing its locks.
	Release(g GroupID, bytes int) []func()
	// Forget drops all throttle state for a departed group — its waiting
	// registration and any reserved-but-unclaimed budget — and reports
	// resumes unblocked by the departure. Held bytes must be Released by
	// the caller first; Forget only clears bookkeeping.
	Forget(g GroupID) []func()
}

// acquireThrottleLocked gates one block send of n bytes through the group's
// throttle. True means post; false means stall until resume.
func (g *Group) acquireThrottleLocked(n int) bool {
	th := g.cfg.Throttle
	if th == nil {
		return true
	}
	if !th.Acquire(g.id, n, g.resume) {
		g.stallThrottle++
		return false
	}
	g.throttleHeld += n
	return true
}

// releaseThrottleLocked returns n held bytes to the throttle, clamping to
// what the group actually holds (teardown passes the full remainder).
func (g *Group) releaseThrottleLocked(n int) []func() {
	th := g.cfg.Throttle
	if th == nil || n <= 0 {
		return nil
	}
	if n > g.throttleHeld {
		n = g.throttleHeld
	}
	if n == 0 {
		return nil
	}
	g.throttleHeld -= n
	return th.Release(g.id, n)
}

// dropThrottleLocked is the terminal-path cleanup: give back every held byte
// and erase the group from the throttle. Safe to call repeatedly — after the
// first call the group holds nothing and Forget of an unknown group is a
// no-op.
func (g *Group) dropThrottleLocked() []func() {
	th := g.cfg.Throttle
	if th == nil {
		return nil
	}
	cbs := g.releaseThrottleLocked(g.throttleHeld)
	return append(cbs, th.Forget(g.id)...)
}

// resume is the stall wakeup the throttle calls when budget frees up: re-enter
// the state machine and pump. It runs outside all locks (see the SendThrottle
// contract), so taking the group lock here is safe.
func (g *Group) resume() {
	g.mu.Lock()
	var cbs []func()
	if g.state == stateActive && g.current != nil {
		cbs = g.current.pumpSendsLocked()
	}
	if cbs == nil {
		cbs = g.oneBlockSlotLocked()
	}
	g.mu.Unlock()
	runAll(cbs)
}
