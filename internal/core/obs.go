package core

import (
	"time"

	"rdmc/internal/obs"
)

// ctrlKindNames indexes CtrlKind (iota+1) wire names; index 0 is unused.
var ctrlKindNames = [...]string{
	"invalid",
	"prepare",
	"ready_block",
	"failure",
	"close",
	"close_ack",
	"destroyed",
}

// String returns the control kind's short name, as used in metric names and
// trace annotations.
func (k CtrlKind) String() string {
	if k > 0 && int(k) < len(ctrlKindNames) {
		return ctrlKindNames[k]
	}
	return "unknown"
}

// NumCtrlKinds is the number of defined control kinds; kinds are contiguous
// from 1 to NumCtrlKinds, so a [NumCtrlKinds+1]-sized array indexed by kind
// covers them all.
const NumCtrlKinds = int(CtrlDestroyed)

// engineObs is the engine's pre-resolved instrumentation: every counter and
// histogram the hot paths touch is looked up once at SetObserver time, so a
// dispatch pass never takes the registry lock. A nil *engineObs (the default)
// disables everything; call sites guard with a single nil check and only then
// pay for a clock read.
type engineObs struct {
	ring *obs.Ring
	node int32

	ctrlTx     *obs.Counter // control messages handed to the mesh
	ctrlRx     *obs.Counter // control messages dispatched to a group
	credits    *obs.Counter // ready-for-block credit received (sum of counts)
	failRelay  *obs.Counter // failure notices relayed to peers
	blocksSent *obs.Counter // block sends posted
	blocksRecv *obs.Counter // block receives completed
	delivered  *obs.Counter // messages locally delivered
	planHit    *obs.Counter // plan memo hits (transfer shaped like the previous one)
	planMiss   *obs.Counter // plan memo misses (plan built)

	batchRun *obs.Histogram // same-group run length inside a completion batch
	msgBytes *obs.Histogram // delivered message sizes
}

// SetObserver installs (or, with nil, removes) the engine's observability
// sink. It must be called before any group activity — the pointer is read
// without synchronization on the dispatch paths — which in practice means
// right after NewEngine, exactly where the hosts wire it.
func (e *Engine) SetObserver(o *obs.Obs) {
	if o == nil {
		e.eobs = nil
		return
	}
	r := o.Registry()
	e.eobs = &engineObs{
		ring:       o.Ring(),
		node:       int32(e.NodeID()),
		ctrlTx:     r.Counter("core.ctrl_tx"),
		ctrlRx:     r.Counter("core.ctrl_rx"),
		credits:    r.Counter("core.ready_credits"),
		failRelay:  r.Counter("core.failure_relays"),
		blocksSent: r.Counter("core.blocks_sent"),
		blocksRecv: r.Counter("core.blocks_recv"),
		delivered:  r.Counter("core.delivered"),
		planHit:    r.Counter("core.plan_cache_hits"),
		planMiss:   r.Counter("core.plan_cache_misses"),
		batchRun:   r.Histogram("core.batch_run", obs.Pow2Buckets(9)),
		msgBytes:   r.Histogram("core.msg_bytes", obs.ExpBuckets(1024, 4, 12)),
	}
}

// record appends one structured event. The caller has already paid for the
// clock read under its own eobs nil check.
func (eo *engineObs) record(at time.Duration, kind obs.EventKind, g GroupID, seq, block, peer int, arg int64) {
	eo.ring.Record(obs.Event{
		At:    at,
		Kind:  kind,
		Node:  eo.node,
		Group: uint32(g),
		Seq:   int32(seq),
		Block: int32(block),
		Peer:  int32(peer),
		Arg:   arg,
	})
}

// obsEvent records one event against this group when an observer is
// installed; disabled engines pay one pointer test and no clock read.
func (g *Group) obsEvent(kind obs.EventKind, seq, block, peer int, arg int64) {
	if eo := g.engine.eobs; eo != nil {
		eo.record(g.engine.host.Now(), kind, g.id, seq, block, peer, arg)
	}
}
