package core

import (
	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/schedule"
)

// The one-block path. A message that fits one block needs no prepare: as in
// the paper (§4.2), each member keeps receives posted ahead for it, and the
// block announces itself when it lands — the sequence rides the immediate
// and the size is the completion's byte count.
// One-block messages travel on queue pairs of their own, one per edge of the
// group's one-block plan (the generator's k = 1 plan under mask 0), so a
// standing receive never sits in front of a multi-block message's scheduled
// receives.
//
// Each receiver keeps RecvWindow standing receives per one-block edge. It
// re-posts one each time an arrival becomes its active transfer, so posted
// plus waiting arrivals always number RecvWindow, which bounds the arrival
// slot. Credit goes back to the source in batches: one CtrlReadyBlock frame
// with the reserved sequence oneBlockSeq and Count = RecvWindow, sent once
// that many re-posts are owed. A window of 1 grants every re-post on its
// own.
//
// The standing receives are armed lazily, by the group's first one-block
// message: the root sends every member a prepare for it, and a member that
// takes a prepare of one-block size connects its edge, posts the whole
// window and grants it in one frame. The message itself then rides a
// standing receive like every later one, each send waiting for its
// target's grant. A group that never carries a one-block message never
// pays for the staging. Multi-block messages always take the prepare path
// on the main queue pairs.
const (
	// oneBlockQP marks a one-block edge's queue-pair token (package sst takes
	// 1<<30 and package smc 1<<31).
	oneBlockQP = 1 << 29
	// oneBlockWR is the work-request id of a standing receive; scheduled
	// receives carry wrID(seq, idx).
	oneBlockWR = ^uint64(0)
	// oneBlockSeq is the CtrlReadyBlock sequence that grants one-block
	// credit. It survives the mesh's 32-bit sequence field, and no transfer
	// reaches it.
	oneBlockSeq = 1<<31 - 1
	// oneBlockMax bounds the messages the path carries: every member keeps
	// RecvWindow staging buffers of min(BlockSize, oneBlockMax) bytes posted
	// per armed group, so a megabyte block size must not cost megabytes per
	// member.
	oneBlockMax = 16 << 10
)

// fifo is a queue in storage of fixed size, allocated when the one-block
// path arms: the standing receives' staging buffers in post order, and the
// arrivals waiting behind the active transfer in sequence order.
type fifo[T any] struct {
	buf     []T
	head, n int
}

func (q *fifo[T]) push(v T) {
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// at returns the i-th oldest entry.
func (q *fifo[T]) at(i int) T { return q.buf[(q.head+i)%len(q.buf)] }

func (q *fifo[T]) reset() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// oneBlockCap is the largest message the one-block path carries.
func (g *Group) oneBlockCap() int { return min(g.cfg.BlockSize, oneBlockMax) }

// oneBlockPlanLocked returns this member's slice of the one-block plan,
// building it on first use (a plan memo miss). It stays apart from the plan
// memo, so one-block messages never evict the multi-block plan. Every valid
// plan gives each receiver exactly one source at k = 1
// (schedule.Plan.Validate).
func (g *Group) oneBlockPlanLocked() schedule.NodePlan {
	if g.obPlan == nil {
		g.planObs(false, 1)
		var np schedule.NodePlan
		if ap, ok := g.cfg.Generator.(schedule.AdaptivePlanner); ok {
			np = ap.MaskedNodePlan(len(g.members), 1, g.rank, 0)
		} else {
			np = g.cfg.Generator.NodePlan(len(g.members), 1, g.rank)
		}
		g.obPlan = &np
	}
	return *g.obPlan
}

// armOneBlockLocked sizes a receiver's one-block storage, posts its window
// of standing receives and grants them to the source in one frame, once per
// group: only a malformed prepare could ask again.
func (g *Group) armOneBlockLocked() []func() {
	if g.obRecv.buf != nil {
		return nil
	}
	w := g.cfg.RecvWindow
	g.obRecv.buf = make([][]byte, w)
	g.obSlot.buf = make([]*transfer, w)
	return g.postStandingLocked(w)
}

// postStandingLocked posts n standing receives. The source learns of them
// once RecvWindow re-posts are owed, as one credit frame.
func (g *Group) postStandingLocked(n int) []func() {
	src := g.oneBlockPlanLocked().Recvs[0].From
	qp, err := g.qpTo(src, oneBlockQP)
	if err != nil {
		return g.failLocked(g.members[src], true)
	}
	for ; n > 0; n-- {
		buf := g.engine.staging.Get(g.oneBlockCap())
		g.obRecv.push(buf)
		if err := qp.PostRecv(rdma.MakeBuffer(buf), oneBlockWR); err != nil {
			return g.failLocked(g.members[src], true)
		}
		g.obOwed++
		g.obsEvent(obs.EvRecvPosted, -1, 0, src, int64(len(buf)))
	}
	if g.obOwed == g.cfg.RecvWindow {
		g.ctrlTo(src, CtrlMsg{Kind: CtrlReadyBlock, Group: g.id, Seq: oneBlockSeq, Count: g.obOwed})
		g.obOwed = 0
	}
	return nil
}

// oneBlockCreditLocked credits a target's standing receives and posts what
// the credit licenses: the active one-block transfer's send, then the
// waiting arrivals' forwards. The credit may come before this member has
// armed: its target's arming prepare and its own travel on different mesh
// links.
func (g *Group) oneBlockCreditLocked(rank, count int) []func() {
	credit := g.creditRow(true)
	credit[rank] += count
	if eo := g.engine.eobs; eo != nil {
		eo.record(g.engine.host.Now(), obs.EvCreditUpdate, g.id, -1, 0, rank, int64(count))
	}
	if t := g.current; t != nil && t.ob {
		if cbs := t.pumpSendsLocked(); cbs != nil {
			return cbs
		}
	}
	return g.oneBlockSlotLocked()
}

// oneBlockArrivedLocked takes a block off the oldest standing receive. The
// arrival waits in the slot until it is the next message to start; the
// credit bound (a member re-posts only when an arrival becomes active) keeps
// posted receives plus waiting arrivals at RecvWindow, so an arrival that
// finds no receive posted came beyond the source's credit.
func (g *Group) oneBlockArrivedLocked(c rdma.Completion) []func() {
	if g.rank == 0 || g.state != stateActive {
		return nil
	}
	src := g.oneBlockPlanLocked().Recvs[0].From
	seq := int(c.Imm)
	next := g.delivered
	if n := g.obSlot.n; n > 0 {
		next = g.obSlot.at(n-1).seq + 1
	} else if g.current != nil {
		next++
	}
	if g.obRecv.n == 0 || seq < next || c.Bytes <= 0 || c.Bytes > g.oneBlockCap() {
		// The source sent beyond its credit or out of order.
		return g.failLocked(g.members[src], true)
	}
	if seq >= g.seq {
		g.seq = seq + 1
	}
	t := newTransfer(g, pendingMsg{seq: seq, size: int64(c.Bytes)}, true)
	t.staging = g.obRecv.pop()
	if t.stats != nil {
		// The receive was posted before the message existed: setup is
		// done the moment it lands.
		t.stats.SetupDoneAt = t.stats.StartAt
		t.stats.Recvs = append(t.stats.Recvs, BlockStamp{DoneAt: t.stats.StartAt})
	}
	if eo := g.engine.eobs; eo != nil {
		eo.blocksRecv.Inc()
		eo.record(g.engine.host.Now(), obs.EvRecvDone, g.id, seq, 0, src, int64(c.Bytes))
	}
	g.obSlot.push(t)
	return g.oneBlockSlotLocked()
}

// oneBlockSlotLocked advances the waiting arrivals. Once the member is idle
// and the oldest is the next message, it becomes the active transfer,
// re-posts a standing receive and asks the application for memory.
func (g *Group) oneBlockSlotLocked() []func() {
	if g.obSlot.n == 0 || g.state != stateActive {
		return nil
	}
	if g.current != nil {
		return g.forwardWaitingLocked()
	}
	t := g.obSlot.at(0)
	if t.seq != g.delivered {
		return nil
	}
	g.obSlot.pop()
	g.current = t
	if cbs := g.postStandingLocked(1); cbs != nil {
		return cbs
	}
	if cbs := t.pumpSendsLocked(); cbs != nil {
		return cbs
	}
	if cbs := g.forwardWaitingLocked(); cbs != nil {
		return cbs
	}
	return t.startLocked()
}

// forwardWaitingLocked forwards waiting arrivals from staging to their
// targets, each on that target's credit. An arrival forwards once it
// directly follows the message ahead of it and that message's one-block
// sends are all posted, so sends on each queue pair keep sequence order.
func (g *Group) forwardWaitingLocked() []func() {
	prev := g.current
	for i := 0; i < g.obSlot.n; i++ {
		t := g.obSlot.at(i)
		if t.seq != prev.seq+1 || prev.ob && prev.sendIdx < len(prev.np.Sends) {
			return nil
		}
		if cbs := t.pumpSendsLocked(); cbs != nil {
			return cbs
		}
		prev = t
	}
	return nil
}

// finishOneBlockLocked completes a one-block receiver's setup once the
// application has supplied memory: the block is copied into place from
// staging, and the message delivers when its forwards have completed.
func (t *transfer) finishOneBlockLocked(data []byte) []func() {
	g, n := t.g, int(t.size)
	if g.state != stateActive || g.current != t {
		return nil
	}
	t.buf = rdma.SizeBuffer(n)
	if data != nil {
		if len(data) < n {
			return g.failLocked(g.engine.NodeID(), true)
		}
		t.buf = rdma.MakeBuffer(data[:n])
		copy(data, t.staging[:n])
	}
	t.chargeCopyLocked(n)
	t.started = true
	g.obsEvent(obs.EvSetupDone, t.seq, -1, -1, t.size)
	return t.maybeDeliverLocked()
}
