package core

import (
	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/schedule"
)

// The one-block path. A message that fits one block needs no prepare and no
// receiver-ready barrier: as in the paper (§4.2), each member keeps a receive
// posted ahead for it, and the block announces itself when it lands — the
// sequence rides the immediate and the size is the completion's byte count.
// One-block messages travel on queue pairs of their own, one per edge of the
// group's one-block plan (the generator's k = 1 plan under mask 0), so a
// standing receive never sits in front of a multi-block message's scheduled
// receives. Each standing receive is granted to its source as one credit on
// the CtrlReadyBlock frame with the reserved sequence oneBlockSeq.
//
// The group's first one-block message takes the prepare path on those queue
// pairs, which connects them, and a receiver arms when it delivers it: it
// posts the standing receive and grants the credit. The root holds later
// one-block messages until every one of its targets has granted once, so no
// other prepared message ever meets a standing receive; then it sends them
// at once. Multi-block messages always take the prepare path on the main
// queue pairs.
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
	// oneBlockMax bounds the messages the path carries: every member keeps a
	// staging buffer of min(BlockSize, oneBlockMax) bytes posted per group,
	// so a megabyte block size must not cost a megabyte per member.
	oneBlockMax = 16 << 10
)

// oneBlockCap is the largest message the one-block path carries.
func (g *Group) oneBlockCap() int { return min(g.cfg.BlockSize, oneBlockMax) }

// oneBlockPlanLocked returns this member's slice of the one-block plan,
// building it on first use. It stays apart from the plan memo, so one-block
// messages never evict the multi-block plan. Every valid plan gives each
// receiver exactly one source at k = 1 (schedule.Plan.Validate).
func (g *Group) oneBlockPlanLocked() schedule.NodePlan {
	if g.obPlan == nil {
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

// armOneBlockLocked posts a receiver's standing receive and grants its
// source the credit.
func (g *Group) armOneBlockLocked() []func() {
	if g.rank == 0 || g.state != stateActive {
		return nil
	}
	src := g.oneBlockPlanLocked().Recvs[0].From
	qp, err := g.qpTo(src, oneBlockQP)
	if err != nil {
		return g.failLocked(g.members[src], true)
	}
	buf := g.engine.staging.Get(g.oneBlockCap())
	if err := qp.PostRecv(rdma.MakeBuffer(buf), oneBlockWR); err != nil {
		return g.failLocked(g.members[src], true)
	}
	g.obRecv = buf
	g.obsEvent(obs.EvRecvPosted, -1, 0, src, int64(len(buf)))
	g.ctrlTo(src, CtrlMsg{Kind: CtrlReadyBlock, Group: g.id, Seq: oneBlockSeq, Count: 1})
	return nil
}

// oneBlockCreditLocked credits a target's standing receive and posts what the
// credit licenses: the active one-block transfer's send, then the waiting
// arrival's forward or, on the root, a message held for the credit.
func (g *Group) oneBlockCreditLocked(rank, count int) []func() {
	if g.obPlan == nil {
		return nil // no one-block message has armed anything yet
	}
	credit := g.creditRow(true)
	credit[rank] += count
	if eo := g.engine.eobs; eo != nil {
		eo.record(g.engine.host.Now(), obs.EvCreditUpdate, g.id, -1, 0, rank, int64(count))
	}
	if g.rank == 0 && !g.obReady {
		g.obReady = true
		for _, tr := range g.obPlan.Sends {
			g.obReady = g.obReady && credit[tr.To] > 0
		}
	}
	if t := g.current; t != nil && t.ob {
		if cbs := t.pumpSendsLocked(); cbs != nil {
			return cbs
		}
	}
	if g.rank == 0 {
		return g.maybeStartNextLocked()
	}
	return g.oneBlockSlotLocked()
}

// oneBlockArrivedLocked takes a block off the standing receive. The arrival
// waits in the slot until it is the next message to start; the credit bound
// (a member re-arms only when an arrival becomes active) leaves at most one
// arrival waiting beside the active transfer.
func (g *Group) oneBlockArrivedLocked(c rdma.Completion) []func() {
	if g.rank == 0 || g.state != stateActive {
		return nil
	}
	src := g.oneBlockPlanLocked().Recvs[0].From
	seq, staging := int(c.Imm), g.obRecv
	g.obRecv = nil
	next := g.delivered
	if g.current != nil {
		next++
	}
	if staging == nil || g.obSlot != nil || seq < next || c.Bytes <= 0 || c.Bytes > len(staging) {
		// The source sent beyond its credit or out of order.
		return g.failLocked(g.members[src], true)
	}
	if seq >= g.seq {
		g.seq = seq + 1
	}
	t := newTransfer(g, pendingMsg{seq: seq, size: int64(c.Bytes)}, true)
	t.staging = staging
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
	g.obSlot = t
	return g.oneBlockSlotLocked()
}

// oneBlockSlotLocked advances the waiting arrival. Once it is the next
// message to start, it forwards the block from staging to its targets (each
// on that target's credit, and behind the active one-block transfer's sends
// on the same queue pairs); once the member is idle, it becomes the active
// transfer, re-arms the standing receive and asks the application for
// memory.
func (g *Group) oneBlockSlotLocked() []func() {
	t := g.obSlot
	if t == nil || g.state != stateActive {
		return nil
	}
	if cur := g.current; cur != nil {
		if t.seq != g.delivered+1 || cur.edges == oneBlockQP && cur.sendIdx < len(cur.np.Sends) {
			return nil
		}
		return t.pumpSendsLocked()
	}
	if t.seq != g.delivered {
		return nil
	}
	g.obSlot, g.current = nil, t
	if cbs := g.armOneBlockLocked(); cbs != nil {
		return cbs
	}
	if cbs := t.pumpSendsLocked(); cbs != nil {
		return cbs
	}
	return t.startLocked()
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
