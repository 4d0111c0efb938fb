package rdmc

import (
	"errors"
	"fmt"

	"rdmc/internal/core"
	"rdmc/internal/rdma"
	"rdmc/internal/schedule"
	"rdmc/internal/session"
)

// SessionState is the lifecycle state of a Session (see Session).
type SessionState = session.State

// Session states.
const (
	// SessionActive: the current epoch is installed and moving data.
	SessionActive = session.StateActive
	// SessionWedged: a failure is suspected; the session has stopped
	// transmitting and is agreeing on the survivor set. Sends queue.
	SessionWedged = session.StateWedged
	// SessionStalled: fewer than a strict majority of the original
	// members survive; the session holds its delivered prefix forever.
	SessionStalled = session.StateStalled
	// SessionEvicted: the other members suspected THIS node and moved on
	// without it.
	SessionEvicted = session.StateEvicted
	// SessionClosed: Close was called locally.
	SessionClosed = session.StateClosed
)

// Session errors.
var (
	// ErrSessionEvicted is reported once the rest of the membership has
	// excluded this node.
	ErrSessionEvicted = session.ErrEvicted
	// ErrNotSessionRoot rejects sends from a member that is not the
	// current epoch's root.
	ErrNotSessionRoot = session.ErrNotRoot
)

// SessionConfig carries the parameters of a reliable session.
type SessionConfig struct {
	// ID names the session. It reserves the group-id range [ID+1, ID+n]
	// for its epochs — keep that range free of plain CreateGroup ids.
	ID int
	// Members lists the original membership (2..64 node ids);
	// Members[0] is the first root. Every member must construct the
	// session with the same id and list.
	Members []int
	// BlockSize is the relaying granularity; zero selects 1 MiB.
	BlockSize int
	// Algorithm selects the schedule; zero selects BinomialPipeline.
	// HybridBinomial is not supported: its rack map is keyed by rank,
	// which remaps on every view change.
	Algorithm Algorithm
	// SendWindow / RecvWindow configure each epoch's group (see
	// GroupConfig).
	SendWindow int
	RecvWindow int
	// MetadataOnly runs transfers without payload bytes (simulation
	// studies); Deliver then carries nil data.
	MetadataOnly bool
	// Uniform delivers a message only once every member of the epoch holds
	// it: if any member delivered it, every survivor delivers it too.
	Uniform bool
	// Tenant, when set, paces every epoch of this session under the named
	// registry tenant's bandwidth weight (the node must have joined a
	// Registry with QoS enabled; see Node.JoinRegistry). Empty leaves the
	// session unthrottled.
	Tenant string
}

// SessionCallbacks notify the application of session events. All callbacks
// run outside the session's lock and may call back into the Session.
type SessionCallbacks struct {
	// Deliver runs for every message, in session-sequence order, gap-free
	// and duplicate-suppressed — across view changes. data is nil for
	// metadata-only sessions.
	Deliver func(seq uint64, data []byte, size int)
	// OnEpoch runs when an epoch is installed (including the first), with
	// the surviving membership; members[0] is the epoch's root.
	OnEpoch func(epoch uint64, members []int)
	// OnState runs on every lifecycle transition.
	OnState func(state SessionState, err error)
}

// NewSession builds this node's endpoint of a reliable multicast session: an
// epoch-based membership layer over the multicast engine. Within an epoch it
// is an RDMC group; when a member fails (a broken transfer, or the failure
// detector) the survivors agree on the next membership through a shared
// status table, re-send whatever was not yet delivered everywhere, and
// continue — so Deliver observes at-least-once, gap-free, identically
// ordered messages on every surviving member. See DESIGN.md §7.
func (n *Node) NewSession(cfg SessionConfig, cbs SessionCallbacks) (*Session, error) {
	if n.provider == nil {
		return nil, errors.New("rdmc: this node's transport does not support sessions")
	}
	if cfg.ID < 0 || int64(cfg.ID) > int64(^uint32(0)) {
		return nil, fmt.Errorf("rdmc: session id %d outside 32-bit range", cfg.ID)
	}
	var gen schedule.Generator
	switch {
	case cfg.Algorithm == HybridBinomial:
		return nil, errors.New("rdmc: sessions do not support HybridBinomial (rack maps go stale across view changes)")
	case cfg.Algorithm == 0:
		// Session default (binomial pipeline).
	case cfg.Algorithm.base() == schedule.Algorithm(0):
		return nil, fmt.Errorf("rdmc: unknown algorithm %d", cfg.Algorithm)
	default:
		gen = schedule.New(cfg.Algorithm.base())
	}
	blockSize := cfg.BlockSize
	if blockSize == 0 {
		blockSize = 1 << 20
	}
	members := make([]rdma.NodeID, len(cfg.Members))
	for i, m := range cfg.Members {
		members[i] = rdma.NodeID(m)
	}
	var throttle core.SendThrottle
	if cfg.Tenant != "" {
		if n.registry == nil {
			return nil, fmt.Errorf("rdmc: session tenant %q needs the node to join a registry first", cfg.Tenant)
		}
		if n.registry.Tenant(cfg.Tenant) == nil {
			return nil, fmt.Errorf("rdmc: unknown registry tenant %q", cfg.Tenant)
		}
		if th := n.registry.nodeThrottle(n.id); th != nil {
			// Epoch groups burn ids ID+1, ID+2, ... — bind the whole range
			// once so every future view change inherits the tenant's class.
			_ = th.BindSpan(core.GroupID(cfg.ID+1), 1<<10, cfg.Tenant)
			throttle = th
		}
	}
	mgr, err := session.New(n.engine, n.provider, session.Config{
		ID:           uint32(cfg.ID),
		Members:      members,
		BlockSize:    blockSize,
		Generator:    gen,
		SendWindow:   cfg.SendWindow,
		RecvWindow:   cfg.RecvWindow,
		MetadataOnly: cfg.MetadataOnly,
		Uniform:      cfg.Uniform,
		Throttle:     throttle,
		Observer:     n.observer,
	}, session.Callbacks{
		Deliver: cbs.Deliver,
		OnEpoch: wrapOnEpoch(cbs.OnEpoch),
		OnState: cbs.OnState,
	})
	if err != nil {
		return nil, err
	}
	return &Session{inner: mgr}, nil
}

func wrapOnEpoch(fn func(epoch uint64, members []int)) func(uint64, []rdma.NodeID) {
	if fn == nil {
		return nil
	}
	return func(epoch uint64, members []rdma.NodeID) {
		out := make([]int, len(members))
		for i, m := range members {
			out[i] = int(m)
		}
		fn(epoch, out)
	}
}

// Session is a reliable multicast session: group semantics that survive
// member failures through epoch-based view changes.
type Session struct {
	inner *session.Manager
}

// Send multicasts data; only the current epoch's root may call it. While the
// session is wedged mid-view-change the message queues and transmits after
// the next install. The buffer must stay untouched until delivered locally.
func (s *Session) Send(data []byte) error { return s.inner.Send(data) }

// SendSized multicasts a metadata-only message of the given size.
func (s *Session) SendSized(size int) error { return s.inner.SendSized(size) }

// State returns the lifecycle state and, for terminal states, its cause.
func (s *Session) State() (SessionState, error) { return s.inner.State() }

// Epoch returns the highest installed epoch (1 is the initial membership).
func (s *Session) Epoch() uint64 { return s.inner.Epoch() }

// Members returns the current epoch's membership; members[0] is the root.
func (s *Session) Members() []int {
	ms := s.inner.Members()
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = int(m)
	}
	return out
}

// IsRoot reports whether this node is the current epoch's root.
func (s *Session) IsRoot() bool { return s.inner.IsRoot() }

// Delivered returns the next session sequence to deliver (= messages
// delivered so far, since delivery is gap-free from zero).
func (s *Session) Delivered() uint64 { return s.inner.Delivered() }

// Stats returns the session's lifetime counters (epochs installed, messages
// re-sent across view changes, duplicates suppressed, recovery latency).
func (s *Session) Stats() session.Stats { return s.inner.Stats() }

// Close tears the local endpoint down. Peers observe the departure as a
// failure and continue without this node.
func (s *Session) Close() error { return s.inner.Close() }
