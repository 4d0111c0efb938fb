// Package session layers epoch-based reliable multicast sessions over the
// RDMC engine, in the style of the paper's §4.6 Derecho sketch: RDMC itself
// "assumes failures are rare" and simply wedges a group when a member dies;
// the layer above is responsible for agreeing on the survivors and restarting
// multicast among them. A session owns a monotonically numbered epoch. Each
// epoch is one core RDMC group; when any member is suspected of failure the
// session wedges, the survivors agree on the next membership through a shared
// state table (package sst), and a fresh group is installed with remapped
// ranks. Messages that were sent but not yet stable everywhere are re-sent in
// the new epoch, so callers observe at-least-once, gap-free, identically
// ordered delivery across failures.
//
// # Agreement protocol
//
// Every original member owns one row of a five-column SST (one-sided writes,
// per-queue-pair FIFO):
//
//	col 0  delivered  next session sequence this member will deliver
//	col 1  suspected  bitmap (by original rank) of members it suspects
//	col 2  installed  highest epoch this member has installed
//	col 3  proposed   highest epoch this member proposes to install
//	col 4  have       end of this member's message log (received, plus —
//	                  on a root — assigned-but-unsent sequences)
//
// On suspicion a member wedges: it freezes the current group (core
// Group.Wedge), publishes its suspicion bitmap and a proposal for epoch+1,
// and stops publishing its frontier — so the (delivered, have) pair each
// member exposes is frozen before its proposal becomes visible, and per-QP
// FIFO ordering lets everyone else read a consistent snapshot. Members then
// gossip suspicions to a fixpoint: each unions the bitmaps of the rows it
// trusts (rows of members it does not itself suspect) and republishes until
// nothing changes. A member that finds its own bit in a trusted row concedes
// — the connected majority has spoken — and becomes Evicted. The survivor
// set is the complement of the fixpoint; it must be a strict majority of the
// original membership or the session parks in Stalled (a partitioned
// minority must never install an epoch of its own). Once every survivor
// publishes the same suspicion set and proposal, each installs the new epoch
// deterministically from the frozen rows: the new root is the survivor with
// the largest log (ties to the lowest original rank), members are ordered
// root first then by original rank, and the re-send base is the minimum
// delivered frontier across survivors.
//
// # Re-send rule
//
// The new root re-sends its log from the minimum delivered frontier to its
// log end, in order, before accepting new messages. Receivers map the new
// group's sequence numbers onto session sequences starting at that base and
// drop anything below their own frontier, so duplicates are suppressed and
// the delivered sequence has no gaps. The root's log always covers the range:
// it delivered (or assigned) every sequence below its own log end, and log
// pruning stays below the minimum delivered frontier of the trusted members.
// Messages the old root assigned that no survivor received die with it —
// survivors converge on a common gap-free prefix, which is the strongest
// guarantee available without acknowledging every send.
//
// A new epoch starts quiet: the root transmits nothing until every member of
// the new view has published installed ≥ the new epoch, so a prepare can
// never race a member that has not yet created its group endpoint (this also
// closes the equivalent startup race for epoch 1).
//
// # Uniform delivery
//
// A member delivers up to its frontier: by default its received count, so
// delivered = have on every non-root. With Config.Uniform it is the minimum
// of have over the current view (§4.6's stability rule), so delivered trails
// have until all hold s: if any member delivered s, every survivor does.
//
// # Limitations
//
// Failure detection is external (broken queue pairs and the host's failure
// notifications); a partitioned minority that happens to be completely idle
// has nothing in flight to break and simply stops hearing from the majority
// — it keeps its last state rather than stalling, exactly like a real
// deployment without heartbeats. Suspicion fixpoints assume failures split
// the membership cleanly (crashes, partitions); pathological one-way link
// failures can stall a session but never split it: installing disjoint
// epochs would take two disjoint strict majorities. Broken queue pairs are
// never reconnected, so a healed minority stays parked until the process
// restarts — the standard CAP trade, chosen for the majority side's
// availability.
package session

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rdmc/internal/core"
	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/schedule"
	"rdmc/internal/sst"
)

// Table columns (see the package comment).
const (
	colDelivered = 0
	colSuspected = 1
	colInstalled = 2
	colProposed  = 3
	colHave      = 4
	numCols      = 5
)

// State is a session's lifecycle state.
type State int

// Session states.
const (
	// StateActive: an epoch is installed and multicast is (or is becoming)
	// live.
	StateActive State = iota + 1
	// StateWedged: a member is suspected; the group is frozen and the
	// survivors are agreeing on the next epoch.
	StateWedged
	// StateStalled: the local node cannot assemble a majority — it is on
	// the losing side of a partition and parks rather than split the
	// session.
	StateStalled
	// StateEvicted: the connected majority declared this node failed; the
	// session is permanently disabled locally.
	StateEvicted
	// StateClosed: Close was called (or an epoch install failed fatally).
	StateClosed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateWedged:
		return "wedged"
	case StateStalled:
		return "stalled"
	case StateEvicted:
		return "evicted"
	case StateClosed:
		return "closed"
	default:
		return "unknown"
	}
}

// Errors returned by a session.
var (
	// ErrEvicted is returned once the majority has removed this node.
	ErrEvicted = fmt.Errorf("session: evicted by the surviving majority")
	// ErrNotRoot is returned by Send on a member that is not the current
	// root.
	ErrNotRoot = fmt.Errorf("session: only the current root may send")
	// ErrClosed is returned after Close.
	ErrClosed = fmt.Errorf("session: closed")
)

// Config describes one session. Every member constructs its Manager with an
// identical ID and member list.
type Config struct {
	// ID names the session: it is the SST table id, and epochs use group
	// ids ID+1, ID+2, ... — the caller must keep that range free of other
	// groups. Must be below 1<<30 minus the epoch budget.
	ID uint32
	// Members lists the original membership; Members[0] is the first root.
	// At most 64 members (the suspicion bitmap).
	Members []rdma.NodeID
	// BlockSize, Generator, SendWindow, RecvWindow configure each epoch's
	// underlying group (see core.GroupConfig).
	BlockSize  int
	Generator  schedule.Generator
	SendWindow int
	RecvWindow int
	// MetadataOnly runs transfers without data buffers (simulation
	// workloads); Deliver callbacks then carry nil data.
	MetadataOnly bool
	// Uniform delays delivery until every view member holds the message.
	Uniform bool
	// Throttle, when non-nil, is handed to every epoch's core group so a
	// multi-tenant service can ration the NIC's send budget across
	// sessions (see core.SendThrottle). Epoch groups come and go across
	// view changes; the core releases and forgets each retired epoch's
	// budget, so the throttle only ever sees the live one.
	Throttle core.SendThrottle
	// Observer, when non-nil, instruments the session (counters
	// session.epochs, session.resends and histogram session.recovery_ms,
	// plus structured events).
	Observer *obs.Obs
}

// Callbacks notify the application. All callbacks run outside the session's
// lock and may call back into the Manager.
type Callbacks struct {
	// Deliver runs for every delivered message, in session-sequence order
	// with no gaps and no duplicates. data is nil for metadata-only
	// sessions.
	Deliver func(seq uint64, data []byte, size int)
	// OnEpoch runs after a new epoch is installed (including epoch 1),
	// with the new membership in rank order (members[0] is the root).
	OnEpoch func(epoch uint64, members []rdma.NodeID)
	// OnState runs on wedge, stall, eviction, and close transitions; err
	// is non-nil for terminal failures.
	OnState func(state State, err error)
}

// Stats is a snapshot of a session's counters.
type Stats struct {
	// Epochs installed locally, including the first.
	Epochs uint64
	// Resent counts messages re-sent across epoch changes (root only).
	Resent uint64
	// ResentBytes is the byte volume of those re-sends.
	ResentBytes uint64
	// Delivered counts locally delivered messages.
	Delivered uint64
	// Duplicates counts re-sent messages suppressed at delivery.
	Duplicates uint64
	// Dropped counts queued sends discarded — because the node lost the
	// root role across a view change, was evicted, or closed with sends
	// still queued. Every discard path counts each entry exactly once.
	Dropped uint64
	// WedgedInFlight is the number of sends caught in flight by the most
	// recent wedge.
	WedgedInFlight int
	// LastRecovery is the wedge-to-install latency of the most recent
	// view change.
	LastRecovery time.Duration
}

// logEntry is one sent or received message retained for possible re-send.
type logEntry struct {
	size int64
	data []byte
}

// Manager is one node's endpoint of a session.
type Manager struct {
	engine *core.Engine
	cfg    Config
	cbs    Callbacks
	so     *sessionObs

	// mu serializes the session state machine. Lock order is Manager.mu →
	// Group.mu/Engine.mu: the manager calls into core under mu, and core
	// returns application callbacks out of its own locks, so core never
	// calls the manager while holding one.
	mu sync.Mutex

	table  *sst.Table
	rows   [][]uint64 // race-free shadow of the table, advanced on push notifications
	myRank int        // original rank
	n      int

	state State
	err   error

	epoch     uint64
	epochBase uint64 // session sequence of the current epoch's core sequence 0
	members   []rdma.NodeID
	group     *core.Group
	retired   []*core.Group // wedged old-epoch groups awaiting connection close

	suspected uint64 // bitmap by original rank
	proposed  uint64

	log         map[uint64]logEntry
	stableFloor uint64 // log holds [stableFloor, haveEnd)
	nextDeliver uint64
	received    uint64 // end of the core deliveries logged so far
	haveEnd     uint64
	queued      []logEntry // root-side sends accepted while wedged
	ready       []logEntry // the sequences just below nextDeliver not yet handed to Deliver
	handing     bool       // a thread is running Deliver callbacks

	barrier    bool // every member of the current view has installed it
	resendDone bool
	wedgedAt   time.Duration

	// unobserve detaches this session's failure subscription from the
	// engine; terminal transitions call it so a churned-through session
	// leaves nothing behind on the engine.
	unobserve func()

	stats Stats
}

// New creates the local endpoint of a session. The provider must be the one
// the engine runs on (the table registers memory and queue pairs beside the
// groups'). New subscribes to the engine's failure notifications
// (Engine.AddFailureObserver), so any number of sessions — and other
// observers — may share one engine; the subscription is released when the
// session reaches a terminal state.
func New(engine *core.Engine, provider rdma.Provider, cfg Config, cbs Callbacks) (*Manager, error) {
	if len(cfg.Members) < 2 || len(cfg.Members) > 64 {
		return nil, fmt.Errorf("session: need 2..64 members, got %d", len(cfg.Members))
	}
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("session: block size must be positive, got %d", cfg.BlockSize)
	}
	m := &Manager{
		engine:  engine,
		cfg:     cfg,
		cbs:     cbs,
		so:      newSessionObs(cfg.Observer, engine.NodeID(), cfg.ID),
		n:       len(cfg.Members),
		members: append([]rdma.NodeID(nil), cfg.Members...),
		log:     make(map[uint64]logEntry),
	}
	m.rows = make([][]uint64, m.n)
	for i := range m.rows {
		m.rows[i] = make([]uint64, numCols)
	}
	// Hold the lock across construction: on multi-threaded transports a
	// peer's push can fire the watcher before New returns.
	m.mu.Lock()
	defer m.mu.Unlock()
	table, err := sst.New(provider, cfg.ID, cfg.Members, numCols, m.onTableUpdate)
	if err != nil {
		return nil, fmt.Errorf("session: state table: %w", err)
	}
	m.table = table
	m.myRank = table.Rank()
	m.epoch = 1
	if err := m.createEpochGroupLocked(); err != nil {
		return nil, err
	}
	m.state = StateActive
	m.stats.Epochs = 1
	if m.so != nil {
		m.so.epochs.Inc()
	}
	m.setLocked(colInstalled, 1)
	m.unobserve = engine.AddFailureObserver(m.onNodeFailure)
	return m, nil
}

// groupID maps an epoch to its core group id.
func (m *Manager) groupID(epoch uint64) core.GroupID {
	return core.GroupID(uint64(m.cfg.ID) + epoch)
}

// setLocked publishes one cell of the local row and mirrors it in the
// shadow.
func (m *Manager) setLocked(col uint, v uint64) {
	m.rows[m.myRank][col] = v
	_ = m.table.Set(col, v) // push errors surface as peer-side suspicion
}

// onTableUpdate folds a remote member's cell update into the shadow and
// reacts. It runs on the provider's completion dispatcher, never on the
// pusher's stack (rdma.Provider.WatchRegion), so it may wait for mu.
func (m *Manager) onTableUpdate(row, col int, v uint64) {
	m.mu.Lock()
	m.rows[row][col] = v // peers write only their own rows
	var actions []func()
	switch m.state {
	case StateActive:
		switch col {
		case colSuspected, colProposed:
			actions = m.reactRemoteLocked(row)
		case colInstalled:
			actions = m.tryPumpLocked()
		case colDelivered:
			m.pruneLocked()
		case colHave:
			m.advanceLocked()
		}
	case StateWedged, StateStalled:
		actions = m.tryDecideLocked()
	}
	m.mu.Unlock()
	runAll(actions)
	m.handOff()
}

// onNodeFailure receives the engine's externally detected failures (the
// bootstrap mesh noticing a dead peer).
func (m *Manager) onNodeFailure(node rdma.NodeID) {
	m.mu.Lock()
	actions := m.suspectLocked(node)
	m.mu.Unlock()
	runAll(actions)
}

// onGroupFailure receives an epoch group's failure callback and attributes
// it to the suspected node.
func (m *Manager) onGroupFailure(epoch uint64, err error) {
	m.mu.Lock()
	var actions []func()
	if epoch == m.epoch {
		var fe *core.FailureError
		if errors.As(err, &fe) {
			actions = m.suspectLocked(fe.Node)
		}
	}
	m.mu.Unlock()
	runAll(actions)
}

// origRank maps a node id to its original rank, or -1.
func (m *Manager) origRank(node rdma.NodeID) int {
	for i, mm := range m.cfg.Members {
		if mm == node {
			return i
		}
	}
	return -1
}

// rootLocked reports whether the local node leads the current view.
func (m *Manager) rootLocked() bool {
	return len(m.members) > 0 && m.members[0] == m.engine.NodeID()
}

// suspectLocked records a failure suspicion and advances the protocol.
func (m *Manager) suspectLocked(node rdma.NodeID) []func() {
	switch m.state {
	case StateActive, StateWedged, StateStalled:
	default:
		return nil
	}
	r := m.origRank(node)
	if r < 0 || r == m.myRank {
		return nil
	}
	bit := uint64(1) << uint(r)
	if m.suspected&bit != 0 {
		if m.state == StateActive {
			return nil // stale report about an already-excluded member
		}
		return m.tryDecideLocked()
	}
	actions := m.wedgeLocked()
	m.suspected |= bit
	m.setLocked(colSuspected, m.suspected)
	return append(actions, m.tryDecideLocked()...)
}

// reactRemoteLocked folds a trusted member's published suspicions or
// proposal into the local state while active.
func (m *Manager) reactRemoteLocked(row int) []func() {
	if m.suspected&(1<<uint(row)) != 0 {
		return nil
	}
	sus, prop := m.rows[row][colSuspected], m.rows[row][colProposed]
	newBits := sus &^ m.suspected
	if newBits == 0 && prop <= m.epoch {
		return nil
	}
	actions := m.wedgeLocked()
	if nb := newBits &^ (1 << uint(m.myRank)); nb != 0 {
		m.suspected |= nb
		m.setLocked(colSuspected, m.suspected)
	}
	return append(actions, m.tryDecideLocked()...)
}

// wedgeLocked freezes the current epoch: the group stops, the frontier
// columns stop advancing, and a proposal for the next epoch is published.
// The frozen (delivered, have) pair was pushed before the proposal on the
// same FIFO queue pairs, so every peer that sees the proposal reads a stable
// frontier.
func (m *Manager) wedgeLocked() []func() {
	if m.state != StateActive {
		return nil
	}
	m.state = StateWedged
	m.wedgedAt = m.engine.Now()
	m.barrier, m.resendDone = false, false
	if m.proposed <= m.epoch {
		m.proposed = m.epoch + 1
		m.setLocked(colProposed, m.proposed)
	}
	if m.group != nil {
		ds := m.group.Wedge()
		m.stats.WedgedInFlight = len(ds.Pending)
		if ds.InFlightSeq >= 0 {
			m.stats.WedgedInFlight++
		}
		m.retired = append(m.retired, m.group)
		m.group = nil
	}
	if m.so != nil {
		m.so.wedges.Inc()
		m.so.record(m.wedgedAt, obs.EvSessionWedge, int64(m.epoch))
	}
	var actions []func()
	if fn := m.cbs.OnState; fn != nil {
		actions = append(actions, func() { fn(StateWedged, nil) })
	}
	return actions
}

// tryDecideLocked runs the agreement round: gossip suspicions to a fixpoint,
// check for self-eviction and quorum, align on the highest proposed epoch,
// and install once every survivor's row matches.
func (m *Manager) tryDecideLocked() []func() {
	if m.state != StateWedged && m.state != StateStalled {
		return nil
	}
	s := m.suspected
	for again := true; again; {
		again = false
		for r := 0; r < m.n; r++ {
			if r == m.myRank || s&(1<<uint(r)) != 0 {
				continue
			}
			if extra := m.rows[r][colSuspected] &^ s; extra != 0 {
				s |= extra
				again = true
			}
		}
	}
	if s&(1<<uint(m.myRank)) != 0 {
		return m.evictLocked()
	}
	if s != m.suspected {
		m.suspected = s
		m.setLocked(colSuspected, s)
	}
	var survivors []int
	for r := 0; r < m.n; r++ {
		if s&(1<<uint(r)) == 0 {
			survivors = append(survivors, r)
		}
	}
	if len(survivors)*2 <= m.n {
		var actions []func()
		if m.state != StateStalled {
			m.state = StateStalled
			if fn := m.cbs.OnState; fn != nil {
				actions = append(actions, func() { fn(StateStalled, nil) })
			}
		}
		return actions
	}
	target := m.proposed
	for _, r := range survivors {
		if r == m.myRank {
			continue
		}
		if p := m.rows[r][colProposed]; p > target {
			target = p
		}
	}
	if target > m.proposed {
		m.proposed = target
		m.setLocked(colProposed, target)
	}
	for _, r := range survivors {
		if r == m.myRank {
			continue
		}
		if m.rows[r][colSuspected] != s || m.rows[r][colProposed] != target {
			return nil
		}
	}
	return m.installLocked(target, survivors)
}

// dropQueuedLocked discards the sends queued while wedged, counting each
// entry in Stats.Dropped exactly once. Every path that abandons the queue
// (losing the root role, eviction, close) goes through here, so the count and
// the queue can never diverge and no entry is double-counted.
func (m *Manager) dropQueuedLocked() {
	if len(m.queued) == 0 {
		return
	}
	m.stats.Dropped += uint64(len(m.queued))
	m.queued = nil
}

// teardownLocked releases everything a terminal session holds on the engine
// and provider: the failure subscription, the state table's queue pairs and
// registered region, and the retired epochs' (plus the live group's) queue
// pairs — returned as deferred actions so connections close outside the
// lock. Eviction is terminal — the majority has wedged the shared epochs, so
// closing is as quiet as the post-install close on the surviving side — and a
// session that kept its connections parked forever would leak dataplane
// state on every churned-through membership (Storm's lesson: per-connection
// state is what breaks RDMA systems at scale).
func (m *Manager) teardownLocked() []func() {
	var actions []func()
	if m.unobserve != nil {
		un := m.unobserve
		m.unobserve = nil
		actions = append(actions, un)
	}
	gs := m.retired
	m.retired = nil
	if m.group != nil {
		m.group.Wedge()
		gs = append(gs, m.group)
		m.group = nil
	}
	for _, g := range gs {
		actions = append(actions, g.CloseConnections)
	}
	if m.table != nil {
		actions = append(actions, m.table.Close)
	}
	return actions
}

// evictLocked concedes to the majority's verdict.
func (m *Manager) evictLocked() []func() {
	if m.state == StateEvicted || m.state == StateClosed {
		return nil
	}
	m.state = StateEvicted
	m.err = ErrEvicted
	actions := m.teardownLocked()
	m.dropQueuedLocked()
	if fn := m.cbs.OnState; fn != nil {
		actions = append(actions, func() { fn(StateEvicted, ErrEvicted) })
	}
	return actions
}

// installLocked moves to the agreed epoch. Every survivor computes the same
// view from the same frozen rows: the root is the survivor with the largest
// log (ties to the lowest original rank, which keeps a surviving root in
// place — no live survivor can out-log the member that assigned every
// sequence), and the re-send base is the minimum delivered frontier.
func (m *Manager) installLocked(target uint64, survivors []int) []func() {
	var actions []func()
	minD := ^uint64(0)
	root, rootHave := -1, uint64(0)
	for _, r := range survivors {
		d, h := m.rows[r][colDelivered], m.rows[r][colHave]
		if d < minD {
			minD = d
		}
		if root < 0 || h > rootHave {
			root, rootHave = r, h
		}
	}
	// Every survivor has wedged (its proposal proves it), so closing the
	// dead epochs' connections is quiet for the living and moot for the
	// dead. Deferred out of the lock like any other callback.
	for _, g := range m.retired {
		actions = append(actions, g.CloseConnections)
	}
	m.retired = nil

	m.epoch = target
	m.epochBase = minD
	members := make([]rdma.NodeID, 0, len(survivors))
	members = append(members, m.cfg.Members[root])
	for _, r := range survivors {
		if r != root {
			members = append(members, m.cfg.Members[r])
		}
	}
	m.members = members
	if err := m.createEpochGroupLocked(); err != nil {
		m.state = StateClosed
		m.err = err
		if fn := m.cbs.OnState; fn != nil {
			actions = append(actions, func() { fn(StateClosed, err) })
		}
		return actions
	}
	m.state = StateActive
	m.barrier, m.resendDone = false, false
	if !m.rootLocked() {
		m.dropQueuedLocked()
	}
	m.advanceLocked()
	m.stats.Epochs++
	lat := m.engine.Now() - m.wedgedAt
	m.stats.LastRecovery = lat
	if m.so != nil {
		m.so.epochs.Inc()
		m.so.recovery.Observe(lat.Milliseconds())
		m.so.record(m.engine.Now(), obs.EvSessionInstall, int64(target))
	}
	m.setLocked(colInstalled, target)
	if fn := m.cbs.OnEpoch; fn != nil {
		e, mem := target, append([]rdma.NodeID(nil), members...)
		actions = append(actions, func() { fn(e, mem) })
	}
	return append(actions, m.tryPumpLocked()...)
}

// createEpochGroupLocked builds the current epoch's core group.
func (m *Manager) createEpochGroupLocked() error {
	e := m.epoch
	cfg := core.GroupConfig{
		BlockSize:  m.cfg.BlockSize,
		Generator:  m.cfg.Generator,
		SendWindow: m.cfg.SendWindow,
		RecvWindow: m.cfg.RecvWindow,
		Throttle:   m.cfg.Throttle,
		Callbacks: core.Callbacks{
			Completion: func(seq int, data []byte, size int) { m.onGroupDeliver(e, seq, data, size) },
			Failure:    func(err error) { m.onGroupFailure(e, err) },
		},
	}
	if !m.cfg.MetadataOnly {
		cfg.Callbacks.Incoming = func(size int) []byte { return make([]byte, size) }
	}
	g, err := m.engine.CreateGroup(m.groupID(e), m.members, cfg)
	if err != nil {
		return fmt.Errorf("session: epoch %d group: %w", e, err)
	}
	m.group = g
	return nil
}

// tryPumpLocked is the root's transmit gate: once every member of the view
// has installed the epoch, flush the re-send range, then any sends queued
// while wedged. Sends accepted before the barrier sit in the log and are
// carried by the flush, so each sequence is transmitted exactly once and in
// order — the group's core sequence k always carries session sequence
// epochBase+k.
func (m *Manager) tryPumpLocked() []func() {
	if m.state != StateActive || !m.rootLocked() {
		return nil
	}
	if !m.barrier {
		for _, mm := range m.members {
			if m.rows[m.origRank(mm)][colInstalled] < m.epoch {
				return nil
			}
		}
		m.barrier = true
	}
	if !m.resendDone {
		m.resendDone = true
		for s := m.epochBase; s < m.haveEnd; s++ {
			e := m.log[s]
			m.transmitLocked(e)
			if m.epoch > 1 {
				m.stats.Resent++
				m.stats.ResentBytes += uint64(e.size)
				if m.so != nil {
					m.so.resends.Inc()
					m.so.record(m.engine.Now(), obs.EvSessionResend, int64(s))
				}
			}
		}
	}
	if len(m.queued) > 0 {
		q := m.queued
		m.queued = nil
		for _, e := range q {
			m.appendLocked(e)
		}
	}
	return nil
}

// appendLocked assigns the next session sequence to a root-side send and
// transmits it if the epoch is already pumping.
func (m *Manager) appendLocked(e logEntry) {
	sseq := m.haveEnd
	m.log[sseq] = e
	m.haveEnd = sseq + 1
	m.setLocked(colHave, m.haveEnd)
	if m.barrier && m.resendDone {
		m.transmitLocked(e)
	}
}

// transmitLocked hands one log entry to the current group. Errors are not
// surfaced: a group that refuses a send has wedged, and the entry stays in
// the log for the next epoch's flush.
func (m *Manager) transmitLocked(e logEntry) {
	if e.data != nil {
		_ = m.group.Send(e.data)
	} else {
		_ = m.group.SendSized(int(e.size))
	}
}

// onGroupDeliver receives a core group delivery. Deliveries from retired
// epochs — including callbacks already in flight when a wedge hit — are
// dropped: their content is covered by the next epoch's re-send, and
// advancing the log after the frontier froze would let different nodes pick
// different roots.
func (m *Manager) onGroupDeliver(epoch uint64, coreSeq int, data []byte, size int) {
	m.mu.Lock()
	if epoch == m.epoch && m.state == StateActive {
		m.deliverLocked(coreSeq, data, size)
	}
	m.mu.Unlock()
	m.handOff()
}

// deliverLocked maps a core delivery onto the session sequence, suppresses
// re-send duplicates, logs the entry, publishes have, and advances delivery.
func (m *Manager) deliverLocked(coreSeq int, data []byte, size int) {
	sseq := m.epochBase + uint64(coreSeq)
	if sseq < m.received {
		m.stats.Duplicates++
		return
	}
	// Core delivers in order, so sseq == received.
	m.log[sseq] = logEntry{size: int64(size), data: data}
	m.received = sseq + 1
	if m.haveEnd < m.received {
		m.haveEnd = m.received
		m.setLocked(colHave, m.haveEnd) // before delivered: peers must see have ≥ delivered
	}
	m.advanceLocked()
}

// advanceLocked queues [nextDeliver, frontier) for Deliver and publishes it.
// The frontier is received, or with Uniform its minimum with the view's have.
func (m *Manager) advanceLocked() {
	frontier := m.received
	if m.cfg.Uniform {
		for r, row := range m.rows { // while active, the view is the unsuspected
			if m.suspected&(1<<uint(r)) == 0 {
				frontier = min(frontier, row[colHave])
			}
		}
	}
	if frontier <= m.nextDeliver {
		return
	}
	for ; m.nextDeliver < frontier; m.nextDeliver++ {
		if m.cbs.Deliver != nil {
			m.ready = append(m.ready, m.log[m.nextDeliver])
		}
		m.stats.Delivered++
	}
	m.setLocked(colDelivered, m.nextDeliver)
	m.pruneLocked()
}

// handOff runs Deliver for the ready queue, in order and outside the lock.
// Core deliveries and, with Uniform, table updates both advance the frontier,
// and the engine promises no single thread for its callbacks, so only the
// thread that finds no hand-off running drains the queue.
func (m *Manager) handOff() {
	m.mu.Lock()
	for !m.handing && len(m.ready) > 0 {
		batch, seq := m.ready, m.nextDeliver-uint64(len(m.ready))
		m.ready, m.handing = nil, true
		m.mu.Unlock()
		for i, e := range batch {
			m.cbs.Deliver(seq+uint64(i), e.data, int(e.size))
		}
		m.mu.Lock()
		m.handing = false
	}
	m.mu.Unlock()
}

// pruneLocked drops log entries every trusted member has delivered, but keeps
// a root's pending flush from epochBase (Uniform delivery may pass it).
func (m *Manager) pruneLocked() {
	min := m.nextDeliver
	if m.rootLocked() && !m.resendDone {
		min = m.epochBase
	}
	for r := 0; r < m.n; r++ {
		if r == m.myRank || m.suspected&(1<<uint(r)) != 0 {
			continue
		}
		if v := m.rows[r][colDelivered]; v < min {
			min = v
		}
	}
	for ; m.stableFloor < min; m.stableFloor++ {
		delete(m.log, m.stableFloor)
	}
}

// Send multicasts data to the session (current root only). While the session
// is wedged or stalled the send is queued and transmitted — still in order —
// once a new epoch is live; if the node loses the root role across the view
// change, queued sends are dropped and counted in Stats.Dropped.
func (m *Manager) Send(data []byte) error {
	return m.submit(logEntry{size: int64(len(data)), data: data})
}

// SendSized multicasts a metadata-only message of the given size.
func (m *Manager) SendSized(size int) error {
	return m.submit(logEntry{size: int64(size)})
}

func (m *Manager) submit(e logEntry) error {
	if e.size <= 0 {
		return fmt.Errorf("session: message must have at least one byte, got %d", e.size)
	}
	if e.size >= 1<<32 {
		return core.ErrMessageTooLarge
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.state {
	case StateEvicted:
		return ErrEvicted
	case StateClosed:
		return ErrClosed
	}
	if !m.rootLocked() {
		return ErrNotRoot
	}
	if m.state == StateActive {
		m.appendLocked(e)
	} else {
		m.queued = append(m.queued, e)
	}
	return nil
}

// State returns the session state and, for terminal states, the cause.
func (m *Manager) State() (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state, m.err
}

// Epoch returns the current epoch number.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Members returns the current view, root first.
func (m *Manager) Members() []rdma.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]rdma.NodeID(nil), m.members...)
}

// IsRoot reports whether the local node leads the current view.
func (m *Manager) IsRoot() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rootLocked()
}

// Delivered returns the next session sequence to deliver (all sequences
// below it have been delivered locally, gap-free).
func (m *Manager) Delivered() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextDeliver
}

// Stats returns a snapshot of the session counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Close shuts the session down locally. Peers observe the departure as a
// failure — leaving and crashing are the same event to the survivors. Sends
// still queued from a wedge are discarded and counted in Stats.Dropped.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.state == StateClosed {
		m.mu.Unlock()
		return nil
	}
	m.state = StateClosed
	m.err = ErrClosed
	actions := m.teardownLocked()
	m.dropQueuedLocked()
	m.mu.Unlock()
	runAll(actions)
	return nil
}

func runAll(cbs []func()) {
	for _, cb := range cbs {
		cb()
	}
}
