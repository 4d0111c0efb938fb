package core

import (
	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/schedule"
)

// transfer is the per-message state machine of one group member.
type transfer struct {
	g    *Group
	seq  int
	size int64
	bs   int    // per-transfer block size (adaptive roots may scale the configured one)
	mask uint64 // contention bucket the plan was built under (0 = static)
	np   schedule.NodePlan

	buf     rdma.Buffer // message memory (Data nil for metadata-only)
	staging []byte      // first-block landing buffer when carrying data
	ob      bool        // announces itself on the one-block path (oneblock.go)
	// started is set once the message is in place: on the root from the
	// outset, on a one-block receiver once its block has been copied into
	// the application's memory.
	started bool

	// Send side: sends post in schedule order, up to SendWindow of them
	// concurrently; completions land per work request, out of order.
	sendIdx       int    // next schedule index to post
	sendsInFlight int    // posted, completion not yet seen
	sendsDone     int    // completions seen
	sendDone      []bool // per-schedule-index completion flags

	// Receive side: receives are posted through a sliding window of
	// RecvWindow entries ahead of completions, pacing upstream senders.
	have       []bool
	recvPosted int
	recvDone   int

	stats *TransferStats
}

// newTransfer builds the state machine of one message. A one-block transfer
// (ob) runs the one-block plan; a receiver creates it when the block has
// already landed in staging.
func newTransfer(g *Group, pm pendingMsg, ob bool) *transfer {
	bs := pm.blockSize
	if bs <= 0 {
		bs = g.cfg.BlockSize
	}
	k := int((pm.size + int64(bs) - 1) / int64(bs))
	t := &transfer{
		g:    g,
		seq:  pm.seq,
		size: pm.size,
		bs:   bs,
		mask: pm.mask,
		buf:  pm.buf,
		have: make([]bool, k),
		ob:   ob,
	}
	if ob {
		// The one-block plan has a memo of its own, so a one-block
		// message never evicts the multi-block plan.
		if g.obPlan != nil {
			g.planObs(true, k)
		}
		t.np = g.oneBlockPlanLocked()
	} else {
		t.np = g.nodePlan(k, pm.mask)
	}
	t.sendDone = make([]bool, len(t.np.Sends))
	switch {
	case g.rank == 0:
		t.started = true
		for b := range t.have {
			t.have[b] = true
		}
	case ob:
		t.have[0] = true
		t.recvPosted, t.recvDone = 1, 1
	}
	if g.cfg.RecordStats {
		t.stats = &TransferStats{
			Seq:     pm.seq,
			Size:    pm.size,
			Blocks:  k,
			StartAt: g.engine.host.Now(),
		}
	}
	return t
}

// planMemo is a group's one-entry plan memo: this member's plan for the
// previous transfer, reused when the next one has the same block count and
// contention mask — the common case of a group re-sending like-sized
// objects. Holding one entry keeps it bounded however many distinct sizes
// a root announces.
type planMemo struct {
	k    int // zero until the first plan: a transfer has at least one block
	mask uint64
	np   schedule.NodePlan
}

// nodePlan returns this member's slice of the group's schedule for a k-block
// transfer under the given mask, from the memo when the previous transfer
// had the same shape. It uses the generator's rank-local path: the
// closed-form generators answer in O(l+k) without ever materializing the
// global transfer list; the rest build the plan and keep this rank's
// transfers. Adaptive generators plan through their mask-conditioned entry
// point; the mask a transfer runs under is decided once by the root and
// shipped in the prepare message, so every member plans the same shape.
func (g *Group) nodePlan(k int, mask uint64) schedule.NodePlan {
	if m := &g.lastPlan; m.k == k && m.mask == mask {
		g.planObs(true, k)
		return m.np
	}
	var np schedule.NodePlan
	if ap, ok := g.cfg.Generator.(schedule.AdaptivePlanner); ok {
		np = ap.MaskedNodePlan(len(g.members), k, g.rank, mask)
	} else {
		np = g.cfg.Generator.NodePlan(len(g.members), k, g.rank)
	}
	g.lastPlan = planMemo{k: k, mask: mask, np: np}
	g.planObs(false, k)
	return np
}

// planObs counts one plan lookup as a memo hit or miss.
func (g *Group) planObs(hit bool, k int) {
	if eo := g.engine.eobs; eo != nil {
		c, kind := eo.planMiss, obs.EvPlanCacheMiss
		if hit {
			c, kind = eo.planHit, obs.EvPlanCacheHit
		}
		c.Inc()
		eo.record(g.engine.host.Now(), kind, g.id, -1, -1, -1, int64(k))
	}
}

// blockLen returns the byte length of block b (the last block may be short).
func (t *transfer) blockLen(b int) int {
	bs := int64(t.bs)
	if off := int64(b) * bs; off+bs > t.size {
		return int(t.size - off)
	}
	return int(bs)
}

// blockBuf returns the buffer descriptor for block b of the message memory.
func (t *transfer) blockBuf(b int) rdma.Buffer {
	n := t.blockLen(b)
	if t.buf.Data == nil {
		return rdma.SizeBuffer(n)
	}
	off := b * t.bs
	return rdma.MakeBuffer(t.buf.Data[off : off+n])
}

func wrID(seq, idx int) uint64 { return uint64(uint32(seq))<<32 | uint64(uint32(idx)) }

// startLocked begins the transfer. The root, its prepares sent, posts
// whatever sends its targets' credit already licenses; members allocate
// memory (through the Incoming callback, outside the lock), post their
// scheduled receives and credit their sources per block. A one-block
// receiver's block is already in staging.
func (t *transfer) startLocked() []func() {
	if t.g.rank == 0 {
		if len(t.g.members) == 1 { // nothing to move
			t.setupDoneLocked()
			return t.deliverLocked()
		}
		return t.pumpSendsLocked()
	}

	// Member path: the Incoming callback is application code, so run it
	// outside the group lock and re-enter to finish setup.
	g, size := t.g, int(t.size)
	incoming := g.cfg.Callbacks.Incoming
	return []func(){func() {
		var data []byte
		if incoming != nil {
			data = incoming(size)
		}
		g.mu.Lock()
		cbs := t.finishMemberSetupLocked(data)
		g.mu.Unlock()
		runAll(cbs)
	}}
}

func (t *transfer) finishMemberSetupLocked(data []byte) []func() {
	if t.ob {
		return t.finishOneBlockLocked(data)
	}
	g := t.g
	if g.state != stateActive || g.current != t {
		return nil
	}
	if data != nil {
		if len(data) < int(t.size) {
			return g.failLocked(g.engine.NodeID(), true)
		}
		t.buf = rdma.MakeBuffer(data[:t.size])
	} else {
		t.buf = rdma.SizeBuffer(int(t.size))
	}

	// Post the initial receive window. The first block lands in a staging
	// buffer and is copied into place on arrival — the paper's receivers
	// allocate on the critical path when the first block announces the
	// size, and Table 1's "Copy Time" row accounts for exactly this copy.
	if cbs := t.postRecvWindowLocked(); cbs != nil {
		return cbs
	}
	t.setupDoneLocked()
	return t.pumpSendsLocked()
}

// setupDoneLocked stamps the end of local setup: on a member, its receives
// posted; on the root, its first send posted, which needed the first
// target's credit.
func (t *transfer) setupDoneLocked() {
	if t.stats != nil {
		t.stats.SetupDoneAt = t.g.engine.host.Now()
	}
	t.g.obsEvent(obs.EvSetupDone, t.seq, -1, -1, t.size)
}

// postRecvWindowLocked advances the receive window: each posted receive is
// announced to its source with a ready-for-block notice, so senders never
// transmit into unposted memory and, transitively, the whole pipeline stays
// paced to receiver progress — the paper's "posts only a few receives per
// group" discipline. The notices merge in the group's deferral queue into
// one credit-carrying message per source, so widening the window does not
// multiply control traffic; outside a completion batch the pass flushes the
// queue itself on return, failure included (the notices name receives that
// were posted). It returns non-nil only on failure.
func (t *transfer) postRecvWindowLocked() []func() {
	g := t.g
	if !g.noticeDefer {
		g.noticeDefer = true
		defer g.flushNoticesLocked()
	}
	for t.recvPosted < len(t.np.Recvs) && t.recvPosted-t.recvDone < g.cfg.RecvWindow {
		idx := t.recvPosted
		tr := t.np.Recvs[idx]
		qp, err := g.qpTo(tr.From, 0)
		if err != nil {
			return g.failLocked(g.members[tr.From], true)
		}
		buf := t.blockBuf(tr.Block)
		if idx == 0 && t.buf.Data != nil {
			// The landing buffer is recycled through the engine's pool:
			// steady-state transfers allocate no per-message staging.
			t.staging = g.engine.staging.Get(buf.Len)
			buf = rdma.MakeBuffer(t.staging)
		}
		if err := qp.PostRecv(buf, wrID(t.seq, idx)); err != nil {
			return g.failLocked(g.members[tr.From], true)
		}
		g.obsEvent(obs.EvRecvPosted, t.seq, tr.Block, tr.From, int64(buf.Len))
		t.recvPosted++
		// Round and Block name the first merged transfer, for observability.
		g.ctrlTo(tr.From, CtrlMsg{Kind: CtrlReadyBlock, Group: g.id, Seq: t.seq, Round: tr.Round, Block: tr.Block, Count: 1})
	}
	return nil
}

// pumpSendsLocked posts sends in schedule order, up to SendWindow in flight
// at a time, each gated on (a) the block being locally present and (b) the
// target holding unconsumed readiness credit. Posting order never deviates
// from the schedule — a later send whose gates are clear still waits behind
// an earlier send whose gates are not — which preserves the per-queue-pair
// FIFO the receive side's window accounting depends on.
func (t *transfer) pumpSendsLocked() []func() {
	g := t.g
	if g.state != stateActive {
		return nil
	}
	for t.sendsInFlight < g.cfg.SendWindow && t.sendIdx < len(t.np.Sends) {
		tr := t.np.Sends[t.sendIdx]
		if !t.have[tr.Block] {
			return nil
		}
		credit := g.creditRow(t.ob)
		if credit[tr.To] <= 0 {
			g.stallCredit++
			return nil
		}
		// Last gate: cross-group send budget. The block has cleared the
		// schedule, presence, and receiver-credit gates; the throttle now
		// decides whether this group may put its bytes on the shared port.
		// A refusal stalls the pump exactly like a missing credit — the
		// throttle's resume callback re-enters it when budget frees up.
		if !g.acquireThrottleLocked(t.blockLen(tr.Block)) {
			return nil
		}
		// A one-block send announces itself on its own edge: its immediate
		// is the sequence, and a relay forwards straight from staging.
		buf, imm, kind := t.blockBuf(tr.Block), uint32(t.size), uint64(0)
		if t.ob {
			imm, kind = uint32(t.seq), oneBlockQP
			if t.staging != nil {
				buf = rdma.MakeBuffer(t.staging[:t.size])
			}
		}
		qp, err := g.qpTo(tr.To, kind)
		if err == nil {
			if t.stats != nil {
				t.stats.Sends = append(t.stats.Sends, BlockStamp{Block: tr.Block, PostedAt: g.engine.host.Now()})
			}
			err = qp.PostSend(buf, imm, wrID(t.seq, t.sendIdx))
		}
		if err != nil {
			if g.sending {
				// Send must not run the Failure callback on its caller's
				// stack. The transport reports the broken queue pair on its
				// dispatcher, and that fails the group.
				return nil
			}
			return g.failLocked(g.members[tr.To], true)
		}
		credit[tr.To]--
		if g.rank == 0 && t.sendIdx == 0 {
			t.setupDoneLocked()
		}
		if eo := g.engine.eobs; eo != nil {
			eo.blocksSent.Inc()
			eo.record(g.engine.host.Now(), obs.EvSendPosted, g.id, t.seq, tr.Block, tr.To, int64(t.blockLen(tr.Block)))
		}
		t.sendsInFlight++
		t.sendIdx++
		g.postedSends++
	}
	return nil
}

// completionLocked consumes a data-plane completion for this transfer.
func (t *transfer) completionLocked(c rdma.Completion) []func() {
	if int(c.WRID>>32) != int(uint32(t.seq)) {
		return nil // stale completion from an earlier sequence
	}
	idx := int(uint32(c.WRID))
	switch c.Op {
	case rdma.OpSend:
		return t.sendDoneLocked(idx)
	case rdma.OpRecv:
		return t.recvDoneLocked(idx, c)
	default:
		return nil
	}
}

func (t *transfer) sendDoneLocked(idx int) []func() {
	// Completions land per work request and may arrive out of post order
	// across queue pairs (each pair is FIFO, but a window spans pairs).
	if idx < 0 || idx >= t.sendIdx || t.sendDone[idx] {
		return nil
	}
	t.sendDone[idx] = true
	t.sendsInFlight--
	t.sendsDone++
	if t.stats != nil && idx < len(t.stats.Sends) {
		// Sends post in schedule order, so stats.Sends[idx] is the stamp
		// this work request opened.
		t.stats.Sends[idx].DoneAt = t.g.engine.host.Now()
	}
	tr := t.np.Sends[idx]
	t.g.obsEvent(obs.EvSendDone, t.seq, tr.Block, tr.To, 0)
	// The send's bytes leave the wire: return them to the cross-group
	// budget. Resumes for other groups run after this group's lock drops.
	resumes := t.g.releaseThrottleLocked(t.blockLen(tr.Block))
	if cbs := t.pumpSendsLocked(); cbs != nil {
		return append(resumes, cbs...)
	}
	if cbs := t.maybeDeliverLocked(); cbs != nil {
		return append(resumes, cbs...)
	}
	return resumes
}

func (t *transfer) recvDoneLocked(idx int, c rdma.Completion) []func() {
	if idx < 0 || idx >= len(t.np.Recvs) {
		return nil
	}
	tr := t.np.Recvs[idx]
	if c.Imm != uint32(t.size) {
		// The immediate announces the message size on every block (§4.2);
		// a mismatch means the peers disagree about the transfer.
		return t.g.failLocked(t.g.members[tr.From], true)
	}
	if t.stats != nil {
		now := t.g.engine.host.Now()
		t.stats.Recvs = append(t.stats.Recvs, BlockStamp{Block: tr.Block, DoneAt: now})
	}
	if eo := t.g.engine.eobs; eo != nil {
		eo.blocksRecv.Inc()
		eo.record(t.g.engine.host.Now(), obs.EvRecvDone, t.g.id, t.seq, tr.Block, tr.From, int64(c.Bytes))
	}
	if idx == 0 {
		// First block: copy from staging into the message region. The
		// paper overlaps this copy with the rest of the transfer ("in
		// parallel, copy the first block to the start of the receive
		// area", §4.2), so the block is usable immediately and the copy
		// cost is accounted without gating the pipeline.
		n := t.blockLen(tr.Block)
		if t.staging != nil {
			if t.buf.Data != nil {
				copy(t.buf.Data[tr.Block*t.bs:], t.staging[:n])
			}
			// The transport handed the completion back; the landing
			// buffer is free to recycle.
			t.g.engine.staging.Put(t.staging)
			t.staging = nil
		}
		t.chargeCopyLocked(n)
	}
	return t.blockArrivedLocked(tr.Block)
}

// chargeCopyLocked accounts the first block's copy out of staging.
func (t *transfer) chargeCopyLocked(n int) {
	e, g := t.g.engine, t.g
	before := e.host.Now()
	stats := t.stats
	// A real-time host runs the charge callback inline — while this
	// method still holds g.mu — whereas the simulated host schedules
	// it on the event loop after the modelled memcpy. The flag tells
	// the callback which world it is in so it never re-locks a mutex
	// the caller already holds.
	inline := true
	e.host.ChargeCopy(n, func() {
		if stats == nil {
			return
		}
		if inline {
			stats.CopyTime += e.host.Now() - before
			return
		}
		g.mu.Lock()
		stats.CopyTime += e.host.Now() - before
		g.mu.Unlock()
	})
	inline = false
}

func (t *transfer) blockArrivedLocked(block int) []func() {
	if t.have[block] {
		return nil
	}
	t.have[block] = true
	t.recvDone++
	if cbs := t.postRecvWindowLocked(); cbs != nil {
		return cbs
	}
	if cbs := t.pumpSendsLocked(); cbs != nil {
		return cbs
	}
	return t.maybeDeliverLocked()
}

// maybeDeliverLocked completes the message locally once every scheduled
// receive has arrived and every scheduled send has completed — the point at
// which "the associated memory region can be reused", which "might happen
// before other receivers have finished getting the message" (§4.1).
func (t *transfer) maybeDeliverLocked() []func() {
	if t.recvDone < len(t.np.Recvs) || t.sendsDone < len(t.np.Sends) || t.ob && !t.started {
		return nil
	}
	return t.deliverLocked()
}

func (t *transfer) deliverLocked() []func() {
	g := t.g
	g.delivered++
	g.current = nil
	if t.staging != nil {
		g.engine.staging.Put(t.staging)
		t.staging = nil
	}
	if t.stats != nil {
		t.stats.DeliveredAt = g.engine.host.Now()
		g.lastStats = t.stats
	}
	if eo := g.engine.eobs; eo != nil {
		eo.delivered.Inc()
		eo.msgBytes.Observe(t.size)
		eo.record(g.engine.host.Now(), obs.EvDelivered, g.id, t.seq, -1, -1, t.size)
	}

	var cbs []func()
	if fn := g.cfg.Callbacks.Completion; fn != nil {
		seq, data, size := t.seq, t.buf.Data, int(t.size)
		cbs = append(cbs, func() { fn(seq, data, size) })
	}
	cbs = append(cbs, g.maybeAckCloseLocked()...)
	cbs = append(cbs, g.maybeStartNextLocked()...)
	return cbs
}
