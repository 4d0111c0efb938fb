package core

import (
	"fmt"
	"sync"

	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/schedule"
)

// Callbacks notify the application of group events, mirroring the paper's
// Figure 1 interface. All callbacks run on the engine's dispatch context and
// may call back into the group (for example Send from Completion).
type Callbacks struct {
	// Incoming is invoked on receivers when a new transfer is announced
	// and must return a buffer of at least size bytes for the message, or
	// nil to run the transfer metadata-only (simulation workloads). It
	// corresponds to the paper's incoming_message_callback.
	Incoming func(size int) []byte
	// Completion is invoked when a message send/receive is locally
	// complete and the associated memory may be reused. data is nil for
	// metadata-only transfers.
	Completion func(seq int, data []byte, size int)
	// Failure is invoked at most once, when the group fails.
	Failure func(err error)
}

// GroupConfig carries the per-group parameters that the paper treats as
// configuration (block size, algorithm) plus the event callbacks.
type GroupConfig struct {
	// BlockSize is the block granularity in bytes for large messages.
	BlockSize int
	// Generator chooses the multicast algorithm; nil selects the binomial
	// pipeline, the paper's default.
	Generator schedule.Generator
	// SendWindow is how many block sends a member keeps posted
	// concurrently. Sends still post in schedule order — the per-queue-
	// pair FIFO guarantee depends on it — but with a window above 1 the
	// next send posts as soon as its gates clear, without waiting for the
	// previous block's completion, so the per-block completion round trip
	// is hidden behind the wire (§4.3's decoupling carried to its
	// conclusion). Completions are then tracked per work request, out of
	// order. Zero selects the default of 4.
	SendWindow int
	// RecvWindow is how many receives a member keeps posted ahead of its
	// arrivals. The paper's receivers "post only a few receives per
	// group" and post more as needed (§4.2): the window is what paces
	// senders (through ready-for-block notices). A window of 1 keeps the
	// pipeline in lockstep — concurrently arriving blocks never contend
	// for one receiver's NIC — at the cost of a small per-block
	// control-message bubble; larger windows hide that bubble but let
	// rounds overlap and steal receive bandwidth from each other (the
	// recv-window ablation benchmark quantifies the trade). Zero matches
	// SendWindow, so the two ends of the pipeline widen together.
	RecvWindow int
	// Callbacks notify the application.
	Callbacks Callbacks
	// RecordStats enables per-message timing capture (Table 1, Figure 5).
	RecordStats bool
	// Throttle, when non-nil, rations this group's outbound bytes against
	// the other groups sharing the NIC (see SendThrottle). Nil means
	// unthrottled — the receiver-credit path alone paces the group.
	Throttle SendThrottle
}

// Group is one RDMC multicast session: a static member list whose first
// entry is the only permitted sender.
type Group struct {
	engine  *Engine
	id      GroupID
	members []rdma.NodeID
	rank    int
	cfg     GroupConfig

	// mu serializes the group's state machine; every *Locked method runs
	// under it. See the package comment for the lock-ordering rule.
	mu sync.Mutex

	qps map[int]rdma.QueuePair // rank → queue pair

	// readyCounts accumulates per-receiver readiness credit, keyed by
	// (sequence, receiver rank) so a fast receiver can announce readiness
	// for a sequence this node has not started yet. Each credit licenses
	// one more scheduled send to that receiver; because both sides order
	// their (sender, target) transfers by the same deterministic plan,
	// a cumulative count is enough to agree on which blocks are licensed,
	// and counts let receivers batch several notices into one message.
	readyCounts map[readyKey]int
	planCache   map[planCacheKey]schedule.NodePlan

	// Adaptive scheduling state (see replan.go). lastMask is the root's
	// previous plan decision, fed back into the hysteresis; earlyReady
	// buffers continuation ReceiverReady notices from members whose old
	// phase quiesced before the root's own; the stall/post counters feed
	// the credit-stall component of the contention signal (sampled as a
	// delta, hence the last* shadows).
	lastMask        uint64
	earlyReady      map[int]map[int]bool
	stallCredit     uint64
	postedSends     uint64
	lastStallCredit uint64
	lastPostedSends uint64

	// Cross-group throttle accounting: bytes of send budget currently held
	// (acquired for posted-but-incomplete sends) and how often the throttle
	// refused a send the credit path had already licensed.
	throttleHeld  int
	stallThrottle uint64

	// Notice deferral: while a completion batch is being processed (see
	// Engine.onCompletionBatch), outbound ready-for-block notices merge
	// into noticeQ instead of hitting the control channel one by one; the
	// batch handler flushes them — one credit-carrying message per
	// (receiver sequence, source) — before releasing the lock. Credit is
	// cumulative, so merging never changes what senders may do, only how
	// many control messages say so.
	noticeDefer bool
	noticeQ     []queuedNotice

	state     groupState
	failure   error
	failedVia map[rdma.NodeID]bool // failures already relayed

	seq       int // next sequence to assign (root) / highest seen + 1
	delivered int // messages locally complete
	current   *transfer
	pending   []pendingMsg // root: queued sends; member: queued prepares

	lastStats *TransferStats

	// close barrier state (root)
	closeTotal int
	closeAcks  map[int]bool
	closeCb    func(error)
	// close barrier state (member)
	memberCloseRecv  bool
	memberCloseTotal int
	memberCloseSent  bool
}

type groupState int

const (
	stateActive groupState = iota + 1
	stateFailed
	stateClosed
)

type pendingMsg struct {
	seq       int
	size      int64
	buf       rdma.Buffer // root side only
	mask      uint64      // adaptive contention bucket (0 = static plan)
	blockSize int         // per-transfer block size (0 = configured)
}

// CreateGroup creates the local endpoint of a group. Every member must call
// it with an identical member list (members[0] is the root), as the paper's
// create_group is "called concurrently (with identical membership
// information) by all group members".
func (e *Engine) CreateGroup(id GroupID, members []rdma.NodeID, cfg GroupConfig) (*Group, error) {
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("core: block size must be positive, got %d", cfg.BlockSize)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("core: group needs at least one member")
	}
	if cfg.Generator == nil {
		cfg.Generator = schedule.New(schedule.BinomialPipeline)
	}
	if cfg.SendWindow <= 0 {
		cfg.SendWindow = 4
	}
	if cfg.RecvWindow <= 0 {
		cfg.RecvWindow = cfg.SendWindow
	}
	g := &Group{
		engine:      e,
		id:          id,
		members:     append([]rdma.NodeID(nil), members...),
		rank:        -1,
		cfg:         cfg,
		qps:         make(map[int]rdma.QueuePair),
		readyCounts: make(map[readyKey]int),
		state:       stateActive,
		failedVia:   make(map[rdma.NodeID]bool),
		closeAcks:   make(map[int]bool),
	}
	for i, m := range members {
		if m == e.NodeID() {
			g.rank = i
			break
		}
	}
	if g.rank < 0 {
		return nil, ErrNotMember
	}

	// The gate makes creation atomic with engine close: a group can never
	// be added behind Close's teardown sweep.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	if _, loaded := e.groups.LoadOrStore(id, g); loaded {
		return nil, ErrGroupExists
	}
	return g, nil
}

// Rank returns the local member's rank; rank 0 is the root.
func (g *Group) Rank() int { return g.rank }

// Members returns a copy of the member list.
func (g *Group) Members() []rdma.NodeID {
	return append([]rdma.NodeID(nil), g.members...)
}

// Err returns the group's failure, if any.
func (g *Group) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failure
}

// Delivered returns the number of locally completed messages.
func (g *Group) Delivered() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.delivered
}

// LastStats returns the timing record of the most recently completed
// message, when RecordStats is enabled. The result is a deep copy: the
// group's internal record can still be amended after delivery (the simulated
// host charges copy time through a deferred callback) and is replaced by the
// next transfer, so handing out the internal pointer would let the caller
// observe those mutations mid-read.
func (g *Group) LastStats() *TransferStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lastStats == nil {
		return nil
	}
	cp := *g.lastStats
	cp.Sends = append([]BlockStamp(nil), g.lastStats.Sends...)
	cp.Recvs = append([]BlockStamp(nil), g.lastStats.Recvs...)
	return &cp
}

// Send multicasts a message to the group. Only the root may call it. The
// data buffer must stay untouched until the Completion callback fires for
// the message's sequence number. A metadata-only message may be sent with
// SendSized instead.
func (g *Group) Send(data []byte) error {
	return g.send(rdma.MakeBuffer(data))
}

// SendSized multicasts a metadata-only message of the given size: block
// transfers move through the full protocol and transport but carry no user
// bytes. Simulation workloads use it to replicate hundreds of megabytes
// without allocating them.
func (g *Group) SendSized(size int) error {
	return g.send(rdma.SizeBuffer(size))
}

func (g *Group) send(buf rdma.Buffer) error {
	if buf.Len <= 0 {
		return fmt.Errorf("core: message must have at least one byte, got %d", buf.Len)
	}
	if int64(buf.Len) > int64(^uint32(0)) {
		return ErrMessageTooLarge
	}
	g.mu.Lock()
	if g.rank != 0 {
		g.mu.Unlock()
		return ErrNotRoot
	}
	var cbs []func()
	var err error
	switch g.state {
	case stateFailed:
		err = g.failure
	case stateClosed:
		err = ErrGroupClosed
	default:
		seq := g.seq
		g.seq++
		g.pending = append(g.pending, pendingMsg{seq: seq, size: int64(buf.Len), buf: buf})
		cbs = g.maybeStartNextLocked()
	}
	g.mu.Unlock()
	runAll(cbs)
	return err
}

// Destroy tears the group down. On the root it runs the paper's close
// barrier: done receives nil only if every message reached every member, so
// "if the group close operation is successful, the sender (and all
// receivers) can be confident that every RDMC message reached every
// destination" (§4.6). On non-root members it releases local resources
// immediately.
func (g *Group) Destroy(done func(err error)) {
	if done == nil {
		done = func(error) {}
	}
	g.mu.Lock()
	var cbs []func()
	switch {
	case g.state == stateClosed:
		cbs = append(cbs, func() { done(ErrGroupClosed) })
	case g.state == stateFailed:
		err := g.failure
		cbs = append(cbs, g.teardownLocked()...)
		cbs = append(cbs, func() { done(err) })
	case g.rank != 0:
		cbs = append(cbs, g.teardownLocked()...)
		cbs = append(cbs, func() { done(nil) })
	default:
		g.closeTotal = g.seq
		g.closeCb = done
		if len(g.members) == 1 {
			cbs = append(cbs, g.teardownLocked()...)
			cbs = append(cbs, func() { done(nil) })
			break
		}
		for rank := 1; rank < len(g.members); rank++ {
			g.ctrlTo(rank, CtrlMsg{Kind: CtrlClose, Group: g.id, Total: g.closeTotal})
		}
	}
	g.mu.Unlock()
	runAll(cbs)
}

// teardownLocked releases the group's transport resources and removes it
// from the engine. The returned callbacks (throttle resumes for other groups
// unblocked by the departure) must run after the lock is dropped.
func (g *Group) teardownLocked() []func() {
	g.state = stateClosed
	for _, qp := range g.qps {
		_ = qp.Close()
	}
	g.engine.groups.Delete(g.id)
	return g.dropThrottleLocked()
}

// PendingSend is one queued message captured by Wedge: assigned its sequence
// but not yet (fully) transferred. Data is nil for metadata-only messages.
type PendingSend struct {
	Seq  int
	Size int64
	Data []byte
}

// DrainState is the frozen progress of a wedged group, for a membership layer
// deciding what must be re-sent after a view change.
type DrainState struct {
	// Delivered counts messages locally complete.
	Delivered int
	// NextSeq is the next sequence this member would assign (root) or
	// expects to see (member).
	NextSeq int
	// InFlightSeq is the sequence of the transfer that was active when the
	// group wedged, or -1 if the group was idle.
	InFlightSeq int
	// Pending are the queued-but-unstarted messages (sends on the root,
	// announced prepares on members).
	Pending []PendingSend
}

// Wedge freezes the group without failing it: the state machine stops, the
// group leaves the engine's routing table (stray completions and control
// messages for it are dropped silently), no further callbacks fire, and the
// frozen progress is returned. Unlike Destroy, Wedge keeps the queue pairs
// open — closing them would surface broken completions at live peers that
// have not wedged yet, turning a clean view change into a storm of spurious
// suspicions. Call CloseConnections once every survivor has wedged.
func (g *Group) Wedge() DrainState {
	g.mu.Lock()
	ds := DrainState{
		Delivered:   g.delivered,
		NextSeq:     g.seq,
		InFlightSeq: -1,
	}
	if g.current != nil {
		ds.InFlightSeq = g.current.seq
		if g.current.orig != nil {
			// A continuation is in flight: the membership layer knows the
			// message by its original sequence.
			ds.InFlightSeq = g.current.orig.seq
		}
	}
	for _, p := range g.pending {
		ps := PendingSend{Seq: p.seq, Size: p.size}
		if p.buf.Data != nil {
			ps.Data = p.buf.Data
		}
		ds.Pending = append(ds.Pending, ps)
	}
	if g.state != stateClosed {
		g.state = stateClosed
		g.engine.groups.Delete(g.id)
	}
	g.current = nil
	g.pending = nil
	g.closeCb = nil
	// Sends frozen mid-flight never complete (their completions are dropped
	// once the id leaves the routing table), so hand their budget back now.
	cbs := g.dropThrottleLocked()
	g.mu.Unlock()
	runAll(cbs)
	return ds
}

// CloseConnections releases a wedged group's queue pairs. Safe to call once
// all peers have wedged the group too (its id is gone from every engine's
// routing table, so the broken completions a close provokes are dropped).
func (g *Group) CloseConnections() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, qp := range g.qps {
		_ = qp.Close()
	}
	g.qps = make(map[int]rdma.QueuePair)
}

// rankOf returns the rank of a node, or -1.
func (g *Group) rankOf(node rdma.NodeID) int {
	for i, m := range g.members {
		if m == node {
			return i
		}
	}
	return -1
}

// qpTo returns (creating on demand) the queue pair to a rank. Queue pairs
// are cached for the group's lifetime, so repeated transfers reuse the
// overlay as the paper recommends.
func (g *Group) qpTo(rank int) (rdma.QueuePair, error) {
	if qp, ok := g.qps[rank]; ok {
		return qp, nil
	}
	lo, hi := g.rank, rank
	if lo > hi {
		lo, hi = hi, lo
	}
	token := uint64(g.id)<<32 | uint64(lo)<<16 | uint64(hi)
	qp, err := g.engine.provider.Connect(g.members[rank], token)
	if err != nil {
		return nil, fmt.Errorf("core: connect group %d rank %d: %w", g.id, rank, err)
	}
	g.qps[rank] = qp
	return qp, nil
}

// queuedNotice is one deferred CtrlReadyBlock, addressed by rank.
type queuedNotice struct {
	rank int
	m    CtrlMsg
}

// ctrlTo sends a control message to a rank, ignoring transport errors (a
// destination that died will be reported through failure detection). Ready
// notices are merged into the deferral queue while a completion batch runs.
func (g *Group) ctrlTo(rank int, m CtrlMsg) {
	if g.noticeDefer && m.Kind == CtrlReadyBlock {
		if m.Count <= 0 {
			m.Count = 1
		}
		for i := range g.noticeQ {
			if q := &g.noticeQ[i]; q.rank == rank && q.m.Seq == m.Seq {
				q.m.Count += m.Count
				return
			}
		}
		g.noticeQ = append(g.noticeQ, queuedNotice{rank: rank, m: m})
		return
	}
	g.ctrlSentObs(rank, m)
	_ = g.engine.ctrl.Send(g.members[rank], m)
}

// ctrlSentObs instruments one control message at the point it actually hits
// the wire (deferred notices count when flushed, not when queued).
func (g *Group) ctrlSentObs(rank int, m CtrlMsg) {
	if eo := g.engine.eobs; eo != nil {
		eo.ctrlTx.Inc()
		eo.record(g.engine.host.Now(), obs.EvCtrlSent, g.id, m.Seq, m.Block, int(g.members[rank]), int64(m.Kind))
	}
}

// flushNoticesLocked drains the deferral queue to the control channel.
func (g *Group) flushNoticesLocked() {
	for i := range g.noticeQ {
		g.ctrlSentObs(g.noticeQ[i].rank, g.noticeQ[i].m)
		_ = g.engine.ctrl.Send(g.members[g.noticeQ[i].rank], g.noticeQ[i].m)
		g.noticeQ[i] = queuedNotice{}
	}
	g.noticeQ = g.noticeQ[:0]
}

// failLocked transitions the group to the failed state, attributing the
// failure to node, and (once per suspected node) relays the notice to every
// member so that "all survivors eventually learn of the event" (§3).
func (g *Group) failLocked(node rdma.NodeID, relay bool) []func() {
	if g.state == stateClosed {
		return nil
	}
	var cbs []func()
	if relay && !g.failedVia[node] {
		g.failedVia[node] = true
		if eo := g.engine.eobs; eo != nil {
			eo.failRelay.Inc()
			eo.record(g.engine.host.Now(), obs.EvFailureRelay, g.id, -1, -1, int(node), 0)
		}
		for rank := range g.members {
			if rank != g.rank {
				g.ctrlTo(rank, CtrlMsg{Kind: CtrlFailure, Group: g.id, Node: node})
			}
		}
	}
	if g.state == stateFailed {
		return nil
	}
	g.state = stateFailed
	g.failure = &FailureError{Group: g.id, Node: node}
	g.current = nil
	g.pending = nil
	// A failed group's in-flight sends will never report completion to the
	// state machine; release their throttle budget so surviving groups are
	// not starved by a dead one's reservation.
	cbs = append(cbs, g.dropThrottleLocked()...)
	if fn := g.cfg.Callbacks.Failure; fn != nil {
		err := g.failure
		cbs = append(cbs, func() { fn(err) })
	}
	// A failed group can never satisfy the close barrier.
	if g.closeCb != nil {
		cb, err := g.closeCb, g.failure
		g.closeCb = nil
		cbs = append(cbs, func() { cb(err) })
	}
	if g.memberCloseRecv && !g.memberCloseSent {
		g.memberCloseSent = true
		g.ctrlTo(0, CtrlMsg{Kind: CtrlCloseAck, Group: g.id, Node: g.engine.NodeID()})
	}
	return cbs
}

// onCtrlLocked handles one control message for this group.
func (g *Group) onCtrlLocked(from rdma.NodeID, m CtrlMsg) []func() {
	switch m.Kind {
	case CtrlPrepare:
		if g.state != stateActive || g.rank == 0 {
			return nil
		}
		g.pending = append(g.pending, pendingMsg{seq: m.Seq, size: m.Size, mask: m.Mask, blockSize: m.BS})
		return g.maybeStartNextLocked()

	case CtrlReceiverReady:
		if g.rank != 0 {
			return nil
		}
		if g.current == nil || g.current.seq != m.Seq {
			if m.Seq&contSeqTag != 0 && g.state == stateActive {
				// A member's old phase can quiesce — and its continuation
				// report ready — before the root's own quiesce starts the
				// continuation locally. Buffer the readiness; the root
				// replays it when its continuation begins.
				if r := g.rankOf(from); r > 0 {
					if g.earlyReady == nil {
						g.earlyReady = make(map[int]map[int]bool)
					}
					set := g.earlyReady[m.Seq]
					if set == nil {
						set = make(map[int]bool)
						g.earlyReady[m.Seq] = set
					}
					set[r] = true
				}
			}
			return nil
		}
		return g.current.receiverReadyLocked(g.rankOf(from))

	case CtrlReadyBlock:
		if g.state != stateActive {
			return nil
		}
		fromRank := g.rankOf(from)
		if fromRank < 0 {
			return nil
		}
		// Credit the notice: it may concern a sequence this node has not
		// started yet (a receiver that finished the previous message and
		// prepared the next while this relayer is still draining). Count
		// carries batched credit; legacy single notices carry zero.
		inc := m.Count
		if inc <= 0 {
			inc = 1
		}
		g.readyCounts[readyKey{seq: m.Seq, to: fromRank}] += inc
		if eo := g.engine.eobs; eo != nil {
			eo.credits.Add(uint64(inc))
			eo.record(g.engine.host.Now(), obs.EvCreditUpdate, g.id, m.Seq, m.Block, fromRank, int64(inc))
		}
		if g.current != nil && g.current.seq == m.Seq {
			return g.current.pumpSendsLocked()
		}
		return nil

	case CtrlFailure:
		return g.failLocked(m.Node, true)

	case CtrlClose:
		if g.rank == 0 {
			return nil
		}
		g.memberCloseRecv = true
		g.memberCloseTotal = m.Total
		return g.maybeAckCloseLocked()

	case CtrlCloseAck:
		if g.rank != 0 || g.closeCb == nil {
			return nil
		}
		if !m.OK {
			return g.failLocked(m.Node, true)
		}
		g.closeAcks[g.rankOf(from)] = true
		if len(g.closeAcks) == len(g.members)-1 {
			cb := g.closeCb
			g.closeCb = nil
			for rank := 1; rank < len(g.members); rank++ {
				g.ctrlTo(rank, CtrlMsg{Kind: CtrlDestroyed, Group: g.id})
			}
			cbs := g.teardownLocked()
			return append(cbs, func() { cb(nil) })
		}
		return nil

	case CtrlDestroyed:
		if g.state != stateClosed {
			return g.teardownLocked()
		}
		return nil

	case CtrlReplanFreeze:
		return g.onReplanFreezeLocked(m)

	case CtrlReplanAck:
		return g.onReplanAckLocked(from, m)

	case CtrlReplanCommit:
		return g.onReplanCommitLocked(m)

	case CtrlReplanResume:
		return g.onReplanResumeLocked(m)

	default:
		return nil
	}
}

// maybeAckCloseLocked answers the close barrier once every announced message
// has been delivered locally.
func (g *Group) maybeAckCloseLocked() []func() {
	if !g.memberCloseRecv || g.memberCloseSent {
		return nil
	}
	if g.state == stateFailed {
		g.memberCloseSent = true
		g.ctrlTo(0, CtrlMsg{Kind: CtrlCloseAck, Group: g.id, Node: g.engine.NodeID()})
		return nil
	}
	if g.delivered >= g.memberCloseTotal {
		g.memberCloseSent = true
		g.ctrlTo(0, CtrlMsg{Kind: CtrlCloseAck, Group: g.id, OK: true, Node: g.engine.NodeID()})
	}
	return nil
}

// maybeStartNextLocked begins the next queued transfer when the group is
// idle: on the root that means flooding CtrlPrepare; on members, posting
// buffers and signalling readiness. RDMC does not pipeline messages (§5.1),
// so at most one transfer is active per group at a time.
func (g *Group) maybeStartNextLocked() []func() {
	if g.state != stateActive || g.current != nil || len(g.pending) == 0 {
		return nil
	}
	next := g.pending[0]
	g.pending = g.pending[1:]
	if g.rank != 0 && next.seq >= g.seq {
		g.seq = next.seq + 1
	}
	if g.rank == 0 {
		g.decideAdaptiveLocked(&next)
	}
	tr := newTransfer(g, next)
	g.current = tr
	return tr.startLocked()
}

// onCompletionLocked routes a data-plane completion.
func (g *Group) onCompletionLocked(c rdma.Completion) []func() {
	if c.Status == rdma.StatusBroken {
		if g.state != stateActive {
			return nil
		}
		// The completion may come from a sibling component (status table,
		// small-message ring) sharing the group id in its token; trust the
		// peer field over the token's rank bits when they look wrong.
		peerRank := int(c.Token) >> 16 & 0xffff
		if peerRank == g.rank {
			peerRank = int(c.Token) & 0xffff
		}
		if peerRank < 0 || peerRank >= len(g.members) || g.members[peerRank] != c.Peer {
			peerRank = g.rankOf(c.Peer)
			if peerRank < 0 {
				return nil
			}
		}
		return g.failLocked(g.members[peerRank], true)
	}
	if g.current == nil {
		return nil
	}
	return g.current.completionLocked(c)
}
