package obs

import (
	"sync"
	"time"
)

// EventKind enumerates the structured events the stack records. The taxonomy
// follows the protocol's own vocabulary (§4.2's ready-for-block notices,
// block sends and arrivals, the close/failure control plane) plus the
// planner- and dispatch-level events the performance work cares about.
type EventKind uint8

// Event kinds.
const (
	// EvSendPosted / EvSendDone bracket one block send work request: Block
	// is the block number, Peer the target rank, Arg the schedule index of
	// the send (which pairs the two events under a send window's
	// out-of-order completions).
	EvSendPosted EventKind = iota + 1
	EvSendDone
	// EvRecvPosted / EvRecvDone bracket one posted receive: Block is the
	// block, Peer the source rank, Arg the schedule index (posted) or the
	// bytes received (done).
	EvRecvPosted
	EvRecvDone
	// EvCtrlSent / EvCtrlRecv record control-plane frames: Peer is the
	// remote rank, Arg the control message kind.
	EvCtrlSent
	EvCtrlRecv
	// EvCreditUpdate records readiness credit arriving at a sender: Peer is
	// the receiver's rank, Arg the batched credit count.
	EvCreditUpdate
	// EvFailureRelay records this node relaying a failure notice: Arg is
	// the suspected node id.
	EvFailureRelay
	// EvPlanCacheHit / EvPlanCacheMiss record the group-level plan lookup
	// for a block count (Arg is the block count k).
	EvPlanCacheHit
	EvPlanCacheMiss
	// EvSetupDone marks local transfer setup complete (buffers posted and
	// readiness signalled; on the root, all receivers ready).
	EvSetupDone
	// EvDelivered marks a message locally complete: Arg is the size in
	// bytes.
	EvDelivered
	// EvBatchDispatch records one same-group completion run processed under
	// a single lock acquisition: Arg is the run length.
	EvBatchDispatch
	// EvSessionWedge / EvSessionInstall / EvSessionResend record the
	// membership layer above the engine: a session wedging on a suspected
	// failure (Arg is the epoch being abandoned), installing a new epoch
	// (Arg is the epoch number), and re-sending a message that was not
	// globally stable when its epoch died (Arg is the session sequence).
	EvSessionWedge
	EvSessionInstall
	EvSessionResend
	// EvContentionSample records one contention-signal sample feeding an
	// adaptive plan decision: Arg is the mask the sample quantized to.
	EvContentionSample
)

// String returns the event kind's name (used by the trace exporter).
func (k EventKind) String() string {
	switch k {
	case EvSendPosted:
		return "send_posted"
	case EvSendDone:
		return "send_done"
	case EvRecvPosted:
		return "recv_posted"
	case EvRecvDone:
		return "recv_done"
	case EvCtrlSent:
		return "ctrl_sent"
	case EvCtrlRecv:
		return "ctrl_recv"
	case EvCreditUpdate:
		return "credit_update"
	case EvFailureRelay:
		return "failure_relay"
	case EvPlanCacheHit:
		return "plan_cache_hit"
	case EvPlanCacheMiss:
		return "plan_cache_miss"
	case EvSetupDone:
		return "setup_done"
	case EvDelivered:
		return "delivered"
	case EvBatchDispatch:
		return "batch_dispatch"
	case EvSessionWedge:
		return "session_wedge"
	case EvSessionInstall:
		return "session_install"
	case EvSessionResend:
		return "session_resend"
	case EvContentionSample:
		return "contention_sample"
	default:
		return "unknown"
	}
}

// Event is one fixed-size structured record. Field meaning beyond At/Kind/
// Node is kind-specific (see the kind constants); unused fields are zero.
// Events carry no pointers, so recording one allocates nothing.
type Event struct {
	// At is the node-local timestamp: virtual time in the simulator, time
	// since process start on real transports.
	At time.Duration `json:"at"`
	// Kind is the event type.
	Kind EventKind `json:"kind"`
	// Node is the recording node.
	Node int32 `json:"node"`
	// Group is the multicast group, when the event concerns one.
	Group uint32 `json:"group"`
	// Seq is the message sequence number within the group.
	Seq int32 `json:"seq"`
	// Block is the block number for block-level events.
	Block int32 `json:"block"`
	// Peer is the remote rank (or node) involved.
	Peer int32 `json:"peer"`
	// Arg is the kind-specific argument (schedule index, credit count,
	// byte count, control kind, batch length).
	Arg int64 `json:"arg"`
}

// Ring is a bounded ring buffer of events: once full, new events overwrite
// the oldest, so a long-running node keeps the most recent window — the part
// a timeline of "what just went wrong" needs. Recording takes one short
// mutex-protected store into preallocated memory (no allocation); a nil *Ring
// discards events, which is the disabled fast path.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	total uint64 // events ever recorded; buf index is total % len(buf)
}

// NewRing builds a ring holding up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record appends one event, overwriting the oldest when full. No-op on a nil
// receiver.
func (r *Ring) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = e
	r.total++
	r.mu.Unlock()
}

// Len returns the number of events currently held (zero on nil).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}

// Total returns the number of events ever recorded, including overwritten
// ones (zero on nil).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot copies the held events out in recording order, oldest first.
// Returns nil on a nil receiver.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.total <= n {
		return append([]Event(nil), r.buf[:r.total]...)
	}
	out := make([]Event, 0, n)
	start := r.total % n
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}

// Obs bundles one deployment's observability surfaces. A nil *Obs is the
// disabled state: both accessors return nil, and every instrument resolved
// through them is the nil no-op form, so instrumentation wiring is written
// once, unconditionally.
type Obs struct {
	// Metrics is the deployment's registry (shared across nodes in a
	// simulated grid; counters aggregate).
	Metrics *Registry
	// Events is the structured event ring (events carry the node id).
	Events *Ring
}

// New builds an enabled observer: a fresh registry plus an event ring of the
// given capacity (capacity ≤ 0 selects 1<<18 events, about 12 MB).
func New(ringCapacity int) *Obs {
	if ringCapacity <= 0 {
		ringCapacity = 1 << 18
	}
	return &Obs{Metrics: NewRegistry(), Events: NewRing(ringCapacity)}
}

// Registry returns the metrics registry (nil when disabled).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Ring returns the event ring (nil when disabled).
func (o *Obs) Ring() *Ring {
	if o == nil {
		return nil
	}
	return o.Events
}
