// Package core implements the RDMC protocol engine (DSN 2018, §3–4): it
// executes the deterministic block-transfer plans of package schedule over
// the verbs abstraction of package rdma, asynchronously, with the paper's
// gating rules:
//
//   - a transfer begins only after every receiver has signalled readiness to
//     the root (§2: "it does a one-sided write to tell the sender, which
//     starts sending only after all are prepared");
//   - each individual block send waits for a ready-for-block notice from its
//     target, so no block is ever sent prematurely and connections never
//     break from slow receivers (§4.2);
//   - sends and receives are decoupled: a node's next send is pending only
//     on the availability of its block, the target's readiness, and FIFO
//     order of the node's own sends (§4.3).
//
// The engine is a completion-driven state machine, exactly as the real RDMC
// is written against verbs: the simulated provider invokes it in virtual
// time on one thread, the TCP provider from a dispatcher goroutine, and the
// protocol code is identical in both.
//
// # Concurrency
//
// Group state is sharded: every Group serializes its own state machine
// behind its own lock (Group.mu), and the engine routes each completion or
// control message to its group through a read-mostly table (a sync.Map keyed
// by the group id in the completion token's high 32 bits) without taking any
// engine-wide lock. Engine.mu is only a creation/close gate guarding the
// closed flag.
//
// Lock ordering: Engine.mu may be held while acquiring a Group.mu (engine
// close tears groups down under the gate), but a Group.mu must NEVER be held
// while acquiring Engine.mu. Code running under a group lock — every
// *Locked method — must not call Engine.Close, CreateGroup, or any other
// path that takes the gate; application callbacks are returned out of the
// *Locked methods and run after the group lock is released precisely so they
// may re-enter the engine freely. Schedule planning (Group.nodePlan) may
// consult the schedule package's process-wide plan cache while holding a
// Group.mu: that cache synchronizes only on its own sync.Map and per-entry
// sync.Once — it never touches engine or group locks — so the first member
// to need a plan computes it while any concurrent member blocks on the
// entry's Once, and no lock-order edge to Engine.mu or another Group.mu is
// created.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/rdma/nicbase"
	"rdmc/internal/schedule"
)

// GroupID identifies an RDMC group; all members use the same number, as in
// the paper's create_group(group_number, ...) API. It must fit in 32 bits.
type GroupID uint32

// CtrlKind enumerates the out-of-band control messages RDMC exchanges over
// its bootstrap mesh.
type CtrlKind int

// Control message kinds.
const (
	// CtrlPrepare announces a new transfer (sequence and total size) from
	// the root to every member. It plays the role of the paper's
	// size-announcing immediate on the first block, generalized so that
	// receivers can compute the block plan before any data moves.
	CtrlPrepare CtrlKind = iota + 1
	// CtrlReceiverReady tells the root a member has posted all buffers
	// for a sequence — the paper's pre-transfer one-sided write.
	CtrlReceiverReady
	// CtrlReadyBlock tells a specific sender that the target has posted
	// the receive for one scheduled block transfer.
	CtrlReadyBlock
	// CtrlFailure relays a detected failure to all survivors.
	CtrlFailure
	// CtrlClose starts the close barrier: the root announces how many
	// messages the group carried.
	CtrlClose
	// CtrlCloseAck acknowledges the barrier once a member has delivered
	// every message (OK) or knows it cannot (not OK).
	CtrlCloseAck
	// CtrlDestroyed finalizes a successful close: members tear down.
	CtrlDestroyed
	// CtrlReplanFreeze opens the adaptive mid-transfer re-plan barrier: the
	// root asks every member to stop advancing its receive window for the
	// sequence and report the highest block it has posted a receive for.
	CtrlReplanFreeze
	// CtrlReplanAck answers the freeze: Block is the highest posted-recv
	// block (-1 if none) and OK is true while the transfer is still active
	// locally; OK false means the member already completed it.
	CtrlReplanAck
	// CtrlReplanCommit commits the cutover: blocks at and above Block move
	// to the plan selected by Mask; blocks below finish under the old plan.
	CtrlReplanCommit
	// CtrlReplanResume abandons an opened freeze barrier (too few blocks
	// remained past it): members resume their receive windows unchanged.
	CtrlReplanResume
)

// CtrlMsg is one control-plane message. Fields beyond Kind and Group are
// kind-specific.
type CtrlMsg struct {
	Kind  CtrlKind
	Group GroupID
	Seq   int
	Size  int64
	Round int
	Block int
	Node  rdma.NodeID
	Total int
	OK    bool
	// Count batches readiness credit on CtrlReadyBlock: the receiver has
	// posted Count more receives for the sender's scheduled transfers, of
	// which (Round, Block) is the first. Zero means one (a legacy
	// single-block notice).
	Count int
	// Mask carries the adaptive contention bucket: on CtrlPrepare the mask
	// the root planned the transfer under, on CtrlReplanCommit the mask the
	// remaining blocks cut over to. Zero (the static case) selects the
	// group's configured plan unchanged.
	Mask uint64
	// BS is the per-transfer block size on CtrlPrepare; zero means the
	// group's configured block size (the static case).
	BS int
}

// Control is the out-of-band channel the engine uses for smalls: the
// bootstrap TCP mesh in the real system, a latency-only message in the
// simulator. Delivery must preserve per-sender order; lost messages are
// acceptable only for destinations that have failed.
type Control interface {
	// Send transmits m to the peer asynchronously.
	Send(to rdma.NodeID, m CtrlMsg) error
	// SetHandler installs the receive callback; it must be installed
	// before any engine activity and is invoked serially per sender.
	SetHandler(fn func(from rdma.NodeID, m CtrlMsg))
}

// Host provides the platform services that differ between virtual and real
// time: clocks for statistics and the cost model for critical-path memory
// copies (the paper's Table 1 "Copy Time" row).
type Host interface {
	// Now returns the current time (virtual or wall).
	Now() time.Duration
	// ChargeCopy accounts for copying n bytes on the critical path and
	// then runs fn. The simulated host schedules fn after n divided by
	// the modelled memory bandwidth; the real host runs fn immediately
	// (the caller has already spent the real time).
	ChargeCopy(n int, fn func())
}

// Engine is one node's RDMC instance: it owns the node's provider, control
// channel, and groups, mirroring the paper's per-process library state
// (single completion queue and thread shared by all sessions).
type Engine struct {
	provider rdma.Provider
	ctrl     Control
	host     Host

	// staging recycles first-block landing buffers across transfers and
	// groups (see transfer.postRecvWindowLocked).
	staging nicbase.BufPool

	// groups maps GroupID → *Group. Read-mostly: written on group
	// creation and teardown, read on every completion and control
	// message.
	groups sync.Map

	mu     sync.Mutex // creation/close gate; see the package comment
	closed bool

	// failObs holds the externally reported failure observers — the hooks
	// membership layers use to wedge their sessions. Copy-on-write under
	// failMu so NotifyFailure reads the list with one atomic load while
	// sessions subscribe and unsubscribe concurrently (a multi-tenant node
	// churns many sessions over one engine).
	failMu  sync.Mutex
	failObs atomic.Pointer[[]*failureObserver]

	// eobs is the engine's observability sink; nil (the default) disables
	// all instrumentation. Installed via SetObserver before any activity.
	eobs *engineObs

	// sampler, when non-nil, snapshots fabric contention for adaptive
	// groups (see ContentionSampler). Installed before any activity via
	// SetContentionSampler; nil leaves adaptive groups permanently on
	// their uncontended (mask 0) plan.
	sampler ContentionSampler
}

// ContentionSampler provides a point-in-time snapshot of fabric contention
// — per-rack trunk pressure and per-NIC concurrent-flow counts — for the
// adaptive planner. The simulated host implements it over simnet's fluid
// model; transports with no fabric introspection leave it uninstalled.
type ContentionSampler interface {
	SampleContention() schedule.Contention
}

// SetContentionSampler installs (or, with nil, removes) the engine's fabric
// contention source. Like SetObserver it must be called before any group
// activity: the pointer is read without synchronization on planning paths.
func (e *Engine) SetContentionSampler(s ContentionSampler) { e.sampler = s }

// NewEngine wires an engine to its node-local services and installs the
// completion and control handlers.
func NewEngine(provider rdma.Provider, ctrl Control, host Host) *Engine {
	e := &Engine{
		provider: provider,
		ctrl:     ctrl,
		host:     host,
	}
	if bp, ok := provider.(rdma.BatchProvider); ok {
		bp.SetBatchHandler(e.onCompletionBatch)
	} else {
		provider.SetHandler(e.onCompletion)
	}
	ctrl.SetHandler(e.onCtrl)
	return e
}

// NodeID returns the engine's node identity.
func (e *Engine) NodeID() rdma.NodeID { return e.provider.NodeID() }

// Now returns the host clock (virtual time in the simulator, time since
// start on real transports) — for layers above the engine that must stamp
// events on the same timeline as the protocol.
func (e *Engine) Now() time.Duration { return e.host.Now() }

// failureObserver is one subscription's identity: removal matches on the
// box, not the function value, so identical callbacks stay distinguishable.
type failureObserver struct {
	fn func(rdma.NodeID)
}

// AddFailureObserver subscribes a callback to every node failure reported
// through NotifyFailure, after the engine's own groups have handled it. It
// returns the unsubscribe function. Safe to call at any time, concurrently
// with notifications: the observer list is copy-on-write and notification
// reads it with a single atomic load. Observers must not block; they run on
// the notification path.
func (e *Engine) AddFailureObserver(fn func(rdma.NodeID)) (remove func()) {
	ob := &failureObserver{fn: fn}
	e.failMu.Lock()
	e.failObs.Store(appendObservers(e.failObs.Load(), ob))
	e.failMu.Unlock()
	return func() {
		e.failMu.Lock()
		e.failObs.Store(removeObserver(e.failObs.Load(), ob))
		e.failMu.Unlock()
	}
}

func appendObservers(cur *[]*failureObserver, ob *failureObserver) *[]*failureObserver {
	var next []*failureObserver
	if cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, ob)
	return &next
}

func removeObserver(cur *[]*failureObserver, ob *failureObserver) *[]*failureObserver {
	if cur == nil {
		return nil
	}
	next := make([]*failureObserver, 0, len(*cur))
	for _, o := range *cur {
		if o != ob {
			next = append(next, o)
		}
	}
	if len(next) == 0 {
		return nil
	}
	return &next
}

// Errors returned by the engine.
var (
	// ErrGroupExists is returned by CreateGroup for a duplicate group id.
	ErrGroupExists = errors.New("core: group already exists")
	// ErrNotMember is returned when the local node is not in the member
	// list.
	ErrNotMember = errors.New("core: local node is not a group member")
	// ErrNotRoot is returned by Send on a non-root member, matching the
	// paper's "will fail if not the root".
	ErrNotRoot = errors.New("core: only the root may send")
	// ErrGroupClosed is returned by operations on a destroyed group.
	ErrGroupClosed = errors.New("core: group destroyed")
	// ErrMessageTooLarge is returned for messages whose size does not fit
	// the 32-bit immediate that announces it.
	ErrMessageTooLarge = errors.New("core: message exceeds 4 GiB immediate limit")
	// ErrEngineClosed is returned by operations on a closed engine.
	ErrEngineClosed = errors.New("core: engine closed")
)

// FailureError reports a group failure and the first node it was attributed
// to.
type FailureError struct {
	Group GroupID
	Node  rdma.NodeID
}

func (e *FailureError) Error() string {
	return fmt.Sprintf("core: group %d failed (node %d unreachable)", e.Group, e.Node)
}

// Close tears the engine down. Local groups are released quietly — closing
// one's own node is shutdown, not a failure; peers detect the departure
// through their own transports.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	// Engine.mu → Group.mu is the documented ordering; holding the gate
	// here keeps teardown atomic with the closed flag so no new group can
	// slip in behind the sweep.
	var cbs []func()
	e.groups.Range(func(_, v any) bool {
		g := v.(*Group)
		g.mu.Lock()
		cbs = append(cbs, g.teardownLocked()...)
		g.mu.Unlock()
		return true
	})
	e.mu.Unlock()
	// Throttle resumes collected during the sweep target groups already
	// torn down; running them is harmless (the state machine sees
	// stateClosed) but keeps the throttle contract uniform.
	runAll(cbs)
	return e.provider.Close()
}

// NotifyFailure injects an externally detected node failure (for example
// from the bootstrap mesh noticing a broken TCP connection); every group
// containing the node fails and relays the notice.
func (e *Engine) NotifyFailure(node rdma.NodeID) {
	e.groups.Range(func(_, v any) bool {
		g := v.(*Group)
		g.mu.Lock()
		var cbs []func()
		if g.rankOf(node) >= 0 {
			cbs = g.failLocked(node, true)
		}
		g.mu.Unlock()
		runAll(cbs)
		return true
	})
	if obs := e.failObs.Load(); obs != nil {
		for _, ob := range *obs {
			ob.fn(node)
		}
	}
}

// NumGroups reports the number of routable groups. Wedged and torn-down
// groups leave the table immediately, so a churning workload that tears all
// its groups down must see this return to zero — the leak check a
// multi-tenant service runs after group churn.
func (e *Engine) NumGroups() int {
	n := 0
	e.groups.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// group resolves a group id through the read-mostly table.
func (e *Engine) group(id GroupID) *Group {
	if v, ok := e.groups.Load(id); ok {
		return v.(*Group)
	}
	return nil
}

// onCompletion is the engine's single completion handler (the paper's shared
// completion thread). It routes by the group bits of the completion token
// and serializes only against that group.
func (e *Engine) onCompletion(c rdma.Completion) {
	g := e.group(GroupID(c.Token >> 32))
	if g == nil {
		return
	}
	g.mu.Lock()
	cbs := g.onCompletionLocked(c)
	g.mu.Unlock()
	runAll(cbs)
}

// onCompletionBatch consumes a drained slice of completions (providers that
// implement rdma.BatchProvider). Completions stay in order; consecutive
// completions for the same group — the common case when a send window keeps
// several blocks in flight on one group — are processed under one
// acquisition of that group's lock instead of one per completion. Callbacks
// surfaced by a run still fire before the next run's lock is taken, so the
// observable callback order matches per-completion dispatch.
func (e *Engine) onCompletionBatch(batch []rdma.Completion) {
	for i := 0; i < len(batch); {
		id := GroupID(batch[i].Token >> 32)
		j := i + 1
		for j < len(batch) && GroupID(batch[j].Token>>32) == id {
			j++
		}
		if g := e.group(id); g != nil {
			if eo := e.eobs; eo != nil {
				eo.batchRun.Observe(int64(j - i))
				eo.record(e.host.Now(), obs.EvBatchDispatch, id, -1, -1, -1, int64(j-i))
			}
			var cbs []func()
			g.mu.Lock()
			g.noticeDefer = true
			for _, c := range batch[i:j] {
				cbs = append(cbs, g.onCompletionLocked(c)...)
			}
			g.noticeDefer = false
			g.flushNoticesLocked()
			g.mu.Unlock()
			runAll(cbs)
		}
		i = j
	}
}

// onCtrl dispatches control-plane messages.
func (e *Engine) onCtrl(from rdma.NodeID, m CtrlMsg) {
	g := e.group(m.Group)
	if g == nil {
		return
	}
	if eo := e.eobs; eo != nil {
		eo.ctrlRx.Inc()
		eo.record(e.host.Now(), obs.EvCtrlRecv, m.Group, m.Seq, m.Block, int(from), int64(m.Kind))
	}
	g.mu.Lock()
	cbs := g.onCtrlLocked(from, m)
	g.mu.Unlock()
	runAll(cbs)
}

func runAll(cbs []func()) {
	for _, cb := range cbs {
		cb()
	}
}
