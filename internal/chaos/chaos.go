// Package chaos is a deterministic fault-injection harness for the session
// layer: it replays seeded failure schedules — node crashes mid-transfer,
// root crashes, transient cross-rack partitions — against a simulated
// deployment and checks the reliability contract the paper's §4.6 sketch
// promises the layer above RDMC: every surviving member of the majority
// delivers the same gap-free message sequence, recovery completes in finite
// time, and a disconnected minority never installs a view of its own.
//
// Each scenario runs twice on identically seeded grids: a fault-free
// rehearsal measures the baseline runtime, then the real run fires each
// fault at a fixed fraction of that baseline — "crash at 50% of the
// transfer" means the same virtual instant on every machine and every run.
// After recovery, the surviving root publishes epilogue messages from its
// view-change callback, so a passing run proves the session is not merely
// consistent but still live. RunBaseline replays the same schedule against
// bare engine groups to demonstrate the failure the session layer exists to
// mask: without it, survivors are left with a shortfall (or a wedged run
// that never drains).
package chaos

import (
	"fmt"
	"time"

	"rdmc/internal/core"
	"rdmc/internal/rdma"
	"rdmc/internal/scenario"
	"rdmc/internal/session"
	"rdmc/internal/simhost"
	"rdmc/internal/simnet"
)

// FaultKind selects what a Fault does.
type FaultKind int

// Fault kinds.
const (
	// FaultCrash fails one node: its links break and the surviving hosts'
	// failure detectors fire, as the bootstrap mesh would.
	FaultCrash FaultKind = iota + 1
	// FaultPartition cuts the last rack (nodes [Nodes-Size, Nodes)) off
	// from the rest of the cluster, both directions. In-flight transfers
	// across the cut break on their own (retry timeout); a quiescent
	// link does not, so — as the bootstrap mesh's heartbeats would —
	// each side's failure detector reports the other side unreachable
	// partitionDetectFrac of the baseline runtime after the cut.
	FaultPartition
)

// Fault is one scheduled fault.
type Fault struct {
	Kind FaultKind
	// At is the firing time as a fraction of the fault-free runtime.
	At float64
	// Node is the crashed node (FaultCrash).
	Node int
	// Size is the partitioned rack size (FaultPartition).
	Size int
	// HealAfter, when positive, restores the partitioned links this
	// fraction of the baseline runtime after the cut (transient
	// partition). Healed links admit new transfers, but queue pairs that
	// broke during the cut stay broken — exactly the real-cluster
	// behavior the session layer documents.
	HealAfter float64
}

// Scenario is one reproducible chaos schedule.
type Scenario struct {
	Name string
	// Nodes is the cluster size; nodes are arranged in racks of Nodes/4
	// (minimum 1) with a non-constraining trunk.
	Nodes int
	// Messages root-originated messages of MsgBytes each, in BlockBytes
	// blocks.
	Messages   int
	MsgBytes   int
	BlockBytes int
	// Epilogue messages the surviving root sends after the first view
	// change, proving post-recovery liveness.
	Epilogue int
	// Seed fixes the virtual run.
	Seed   int64
	Faults []Fault

	// uniform runs the sessions with uniform delivery, and verify then also
	// checks that no excluded node delivered anything the survivors do not.
	uniform bool
}

// Result reports one passing chaos run.
type Result struct {
	Scenario string
	Nodes    int
	// BaselineSeconds is the fault-free runtime the schedule was scaled
	// to.
	BaselineSeconds float64
	// RecoverySeconds is the longest wedge-to-install latency among the
	// majority survivors.
	RecoverySeconds float64
	// Resent / ResentBytes count the messages the surviving root re-sent
	// to close the gap.
	Resent      uint64
	ResentBytes uint64
	// Epochs is the majority's final epoch.
	Epochs uint64
	// Delivered is the common sequence length every majority survivor
	// holds.
	Delivered int
	// Drained reports the run finished before the watchdog deadline.
	Drained bool
}

const (
	defaultBlock = 4096
	epilogueTag  = 0xE0

	// partitionDetectFrac is the heartbeat-timeout lag, as a fraction of
	// the baseline runtime, between a partition cut and the moment each
	// side's detector declares the other side dead.
	partitionDetectFrac = 0.1
)

// CrashRelay crashes a mid-tree relay at 50% of the transfer. The canned
// schedules are declarative scenario configs compiled through FromConfig —
// the scenario engine owns the fault vocabulary; this package executes it.
func CrashRelay(n int, seed int64) Scenario {
	return mustFromConfig(scenario.FailoverCrashRelay(n, seed))
}

// CrashRoot crashes the sender at 50% of the transfer.
func CrashRoot(n int, seed int64) Scenario {
	return mustFromConfig(scenario.FailoverCrashRoot(n, seed))
}

// Scenarios returns the standard suite for one cluster size.
func Scenarios(n int, seed int64) []Scenario {
	suite := scenario.FailoverSuite(n, seed)
	out := make([]Scenario, len(suite))
	for i, cfg := range suite {
		out[i] = mustFromConfig(cfg)
	}
	return out
}

func rackSize(n int) int {
	if n < 4 {
		return 1
	}
	return n / 4
}

func (sc Scenario) clusterConfig() simnet.ClusterConfig {
	rs := rackSize(sc.Nodes)
	return simnet.ClusterConfig{
		Nodes:          sc.Nodes,
		LinkBandwidth:  1e9,
		Latency:        1e-6,
		RetryTimeout:   1e-4,
		RackSize:       rs,
		TrunkBandwidth: float64(rs) * 1e9,
		CPU:            simnet.CPUConfig{Mode: simnet.ModePolling},
	}
}

func (sc Scenario) newGrid() (*simhost.Grid, error) {
	return simhost.New(simhost.Config{Cluster: sc.clusterConfig(), Seed: sc.Seed})
}

// schedule arms the scenario's faults on a grid, scaled to the baseline
// runtime.
func (sc Scenario) schedule(g *simhost.Grid, baseline float64) {
	for _, f := range sc.Faults {
		f := f
		at := f.At * baseline
		switch f.Kind {
		case FaultCrash:
			g.Sim().At(at, func() { g.FailNode(f.Node) })
		case FaultPartition:
			g.Sim().At(at, func() { partition(g.Cluster(), f.Size, sc.Nodes, true) })
			g.Sim().At(at+partitionDetectFrac*baseline, func() {
				for a := 0; a < sc.Nodes-f.Size; a++ {
					for b := sc.Nodes - f.Size; b < sc.Nodes; b++ {
						g.Engine(a).NotifyFailure(rdma.NodeID(b))
						g.Engine(b).NotifyFailure(rdma.NodeID(a))
					}
				}
			})
			if f.HealAfter > 0 {
				g.Sim().At(at+f.HealAfter*baseline, func() { partition(g.Cluster(), f.Size, sc.Nodes, false) })
			}
		}
	}
}

func partition(c *simnet.Cluster, size, n int, cut bool) {
	for a := n - size; a < n; a++ {
		for b := 0; b < n-size; b++ {
			if cut {
				c.BreakLink(simnet.NodeID(a), simnet.NodeID(b))
				c.BreakLink(simnet.NodeID(b), simnet.NodeID(a))
			} else {
				c.RestoreLink(simnet.NodeID(a), simnet.NodeID(b))
				c.RestoreLink(simnet.NodeID(b), simnet.NodeID(a))
			}
		}
	}
}

// lost returns the nodes the majority is expected to exclude.
func (sc Scenario) lost() map[int]bool {
	out := make(map[int]bool)
	for _, f := range sc.Faults {
		switch f.Kind {
		case FaultCrash:
			out[f.Node] = true
		case FaultPartition:
			for i := sc.Nodes - f.Size; i < sc.Nodes; i++ {
				out[i] = true
			}
		}
	}
	return out
}

// chaosNode records one member's observed history.
type chaosNode struct {
	mgr     *session.Manager
	seqs    []uint64
	payload map[uint64]byte
}

func msg(size int, tag byte) []byte {
	b := make([]byte, size)
	b[0] = tag
	return b
}

// workload arms the root's sends: message i fires at virtual time
// i*spacing (zero spacing submits everything up front). Pacing matters for
// partitions: the cut rack only reveals itself when fresh traffic crosses
// the cut, so the root must still be originating when the fault fires.
// Errors are collected when errs is non-nil; fault runs pass nil, because a
// send scheduled after the root's own crash legitimately fails.
func (sc Scenario) workload(g *simhost.Grid, root *session.Manager, spacing float64, errs *[]error) {
	for i := 0; i < sc.Messages; i++ {
		i := i
		g.Sim().At(float64(i)*spacing, func() {
			if err := root.Send(msg(sc.MsgBytes, byte(i))); err != nil && errs != nil {
				*errs = append(*errs, fmt.Errorf("send %d: %w", i, err))
			}
		})
	}
}

// measure runs the workload fault-free at the given pacing and returns the
// finish time, verifying every member delivered everything.
func (sc Scenario) measure(spacing float64) (float64, error) {
	g, err := sc.newGrid()
	if err != nil {
		return 0, err
	}
	nodes, err := sc.sessions(g, nil)
	if err != nil {
		return 0, err
	}
	var errs []error
	sc.workload(g, nodes[0].mgr, spacing, &errs)
	end := g.Run()
	if len(errs) > 0 {
		return 0, fmt.Errorf("rehearsal: %v", errs[0])
	}
	for i, nd := range nodes {
		if len(nd.seqs) != sc.Messages {
			return 0, fmt.Errorf("rehearsal: node %d delivered %d of %d", i, len(nd.seqs), sc.Messages)
		}
	}
	return end, nil
}

// calibrate measures the scenario's fault-free timing twice: an up-front
// burst fixes the per-message spacing, then a paced rehearsal measures the
// baseline runtime every fault fraction is scaled against.
func (sc Scenario) calibrate() (spacing, baseline float64, err error) {
	burst, err := sc.measure(0)
	if err != nil {
		return 0, 0, err
	}
	spacing = burst / float64(sc.Messages)
	baseline, err = sc.measure(spacing)
	if err != nil {
		return 0, 0, err
	}
	return spacing, baseline, nil
}

// sessions builds one session per node. epilogue, when non-nil, is armed on
// every node's view-change callback (only the surviving root fires it).
func (sc Scenario) sessions(g *simhost.Grid, epilogueSent *bool) ([]*chaosNode, error) {
	members := make([]rdma.NodeID, sc.Nodes)
	for i := range members {
		members[i] = rdma.NodeID(i)
	}
	nodes := make([]*chaosNode, sc.Nodes)
	for i := range nodes {
		nd := &chaosNode{payload: make(map[uint64]byte)}
		cbs := session.Callbacks{
			Deliver: func(seq uint64, data []byte, size int) {
				nd.seqs = append(nd.seqs, seq)
				nd.payload[seq] = data[0]
			},
		}
		if epilogueSent != nil {
			cbs.OnEpoch = func(epoch uint64, mem []rdma.NodeID) {
				if epoch > 1 && nd.mgr.IsRoot() && !*epilogueSent {
					*epilogueSent = true
					for j := 0; j < sc.Epilogue; j++ {
						_ = nd.mgr.Send(msg(sc.MsgBytes, epilogueTag+byte(j)))
					}
				}
			}
		}
		mgr, err := session.New(g.Engine(i), g.Network().Provider(rdma.NodeID(i)), session.Config{
			ID:        1000,
			Members:   members,
			BlockSize: sc.BlockBytes,
			Uniform:   sc.uniform,
		}, cbs)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		nd.mgr = mgr
		nodes[i] = nd
	}
	return nodes, nil
}

// Run executes the scenario and verifies the reliability contract. A nil
// error means every invariant held.
func Run(sc Scenario) (Result, error) {
	spacing, baseline, err := sc.calibrate()
	if err != nil {
		return Result{}, fmt.Errorf("chaos %s/n=%d: %w", sc.Name, sc.Nodes, err)
	}
	g, err := sc.newGrid()
	if err != nil {
		return Result{}, err
	}
	var epilogueSent bool
	nodes, err := sc.sessions(g, &epilogueSent)
	if err != nil {
		return Result{}, err
	}
	sc.workload(g, nodes[0].mgr, spacing, nil)
	sc.schedule(g, baseline)
	drained := g.RunUntil(20*baseline + 0.05)

	res := Result{
		Scenario:        sc.Name,
		Nodes:           sc.Nodes,
		BaselineSeconds: baseline,
		Drained:         drained,
	}
	lost := sc.lost()
	rootLost := lost[0]
	var majority []int
	for i := 0; i < sc.Nodes; i++ {
		if !lost[i] {
			majority = append(majority, i)
		}
	}

	verify := func() error {
		if !drained {
			return fmt.Errorf("run did not drain before the watchdog deadline")
		}
		ref := nodes[majority[0]]
		for _, i := range majority {
			nd := nodes[i]
			for j, s := range nd.seqs {
				if s != uint64(j) {
					return fmt.Errorf("survivor %d: delivery %d has sequence %d (gap or duplicate)", i, j, s)
				}
			}
			if len(nd.seqs) != len(ref.seqs) {
				return fmt.Errorf("survivors %d and %d delivered %d vs %d messages",
					i, majority[0], len(nd.seqs), len(ref.seqs))
			}
			for seq, p := range nd.payload {
				if rp := ref.payload[seq]; rp != p {
					return fmt.Errorf("survivors %d and %d disagree on sequence %d: %#x vs %#x",
						i, majority[0], seq, p, rp)
				}
			}
			if e := nd.mgr.Epoch(); e < 2 {
				return fmt.Errorf("survivor %d never installed a recovery epoch (epoch %d)", i, e)
			}
		}
		// Split the common delivery stream into the original body and the
		// epilogue. The epilogue is sent at view install, while paced
		// original sends may still be arriving, so it can land anywhere
		// after recovery — what matters is that all of it arrives, in
		// order, proving the session is still live.
		var bodySeq, epiSeq []byte
		for _, s := range ref.seqs {
			if p := ref.payload[s]; p >= epilogueTag && p < epilogueTag+byte(sc.Epilogue) {
				epiSeq = append(epiSeq, p)
			} else {
				bodySeq = append(bodySeq, p)
			}
		}
		if len(epiSeq) != sc.Epilogue {
			return fmt.Errorf("survivors delivered %d of %d epilogue messages — session not live after recovery",
				len(epiSeq), sc.Epilogue)
		}
		for j, p := range epiSeq {
			if p != epilogueTag+byte(j) {
				return fmt.Errorf("epilogue delivered out of order: position %d carries %#x", j, p)
			}
		}
		body := len(bodySeq)
		if !rootLost && body != sc.Messages {
			return fmt.Errorf("survivors delivered %d of %d original messages with the root alive", body, sc.Messages)
		}
		if body > sc.Messages {
			return fmt.Errorf("survivors delivered %d original messages, more than were sent", body)
		}
		for s, p := range bodySeq {
			if p != byte(s) {
				return fmt.Errorf("original delivery %d carries payload %#x, want %#x", s, p, byte(s))
			}
		}
		// The excluded side never leaves epoch 1, so everything it
		// delivered must be a gap-free prefix of the ORIGINAL send order
		// — not of the majority's post-recovery sequence, which may have
		// truncated the body and appended the epilogue at the same
		// sequence numbers a dead old root already used.
		for i := range nodes {
			if !lost[i] {
				continue
			}
			nd := nodes[i]
			if len(nd.seqs) > sc.Messages {
				return fmt.Errorf("excluded node %d delivered %d messages, more than were sent in its epoch", i, len(nd.seqs))
			}
			for j, s := range nd.seqs {
				if s != uint64(j) {
					return fmt.Errorf("excluded node %d: delivery %d has sequence %d", i, j, s)
				}
				if nd.payload[s] != byte(s) {
					return fmt.Errorf("excluded node %d: sequence %d carries payload %#x, want %#x", i, s, nd.payload[s], byte(s))
				}
			}
			if st, _ := nd.mgr.State(); st == session.StateActive && nd.mgr.Epoch() > 1 {
				return fmt.Errorf("excluded node %d installed epoch %d", i, nd.mgr.Epoch())
			}
			// Uniform: the survivors deliver the same message at every
			// sequence an excluded node delivered, so its original-order
			// prefix is a prefix of theirs.
			for _, s := range nd.seqs {
				if rp, ok := ref.payload[s]; sc.uniform && (!ok || rp != nd.payload[s]) {
					return fmt.Errorf("excluded node %d delivered %#x at sequence %d, the survivors did not", i, nd.payload[s], s)
				}
			}
		}
		return nil
	}
	if err := verify(); err != nil {
		return res, fmt.Errorf("chaos %s/n=%d: %w", sc.Name, sc.Nodes, err)
	}

	var maxRecovery time.Duration
	for _, i := range majority {
		st := nodes[i].mgr.Stats()
		res.Resent += st.Resent
		res.ResentBytes += st.ResentBytes
		if st.LastRecovery > maxRecovery {
			maxRecovery = st.LastRecovery
		}
		if e := nodes[i].mgr.Epoch(); e > res.Epochs {
			res.Epochs = e
		}
	}
	res.RecoverySeconds = maxRecovery.Seconds()
	res.Delivered = len(nodes[majority[0]].seqs)
	return res, nil
}

// BaselineResult reports a session-less replay of the same schedule.
type BaselineResult struct {
	// Sent is the number of messages the root submitted.
	Sent int
	// MinDelivered is the smallest delivery count among the would-be
	// majority survivors.
	MinDelivered int
	// Drained reports whether the run finished before the deadline.
	Drained bool
}

// Failed reports whether the bare engine left survivors short — the outcome
// the session layer exists to prevent.
func (b BaselineResult) Failed() bool {
	return !b.Drained || b.MinDelivered < b.Sent
}

// RunBaseline replays the scenario against bare engine groups — no session
// layer — to demonstrate the failure mode: the fault wedges the group and
// survivors never see the remaining messages.
func RunBaseline(sc Scenario) (BaselineResult, error) {
	// run builds a fresh grid of bare groups and replays the paced
	// workload; with faults armed, sends after the fault may legitimately
	// fail and their errors are dropped.
	run := func(spacing, baseline float64, faults bool) (delivered []int, end float64, drained bool, err error) {
		g, err := sc.newGrid()
		if err != nil {
			return nil, 0, false, err
		}
		members := make([]rdma.NodeID, sc.Nodes)
		for i := range members {
			members[i] = rdma.NodeID(i)
		}
		delivered = make([]int, sc.Nodes)
		groups := make([]*core.Group, sc.Nodes)
		for i := 0; i < sc.Nodes; i++ {
			i := i
			grp, err := g.Engine(i).CreateGroup(1, members, core.GroupConfig{
				BlockSize: sc.BlockBytes,
				Callbacks: core.Callbacks{
					Incoming:   func(size int) []byte { return make([]byte, size) },
					Completion: func(int, []byte, int) { delivered[i]++ },
				},
			})
			if err != nil {
				return nil, 0, false, err
			}
			groups[i] = grp
		}
		var errs []error
		for m := 0; m < sc.Messages; m++ {
			m := m
			g.Sim().At(float64(m)*spacing, func() {
				if err := groups[0].Send(msg(sc.MsgBytes, byte(m))); err != nil && !faults {
					errs = append(errs, fmt.Errorf("send %d: %w", m, err))
				}
			})
		}
		if faults {
			sc.schedule(g, baseline)
			drained = g.RunUntil(20*baseline + 0.05)
			return delivered, 0, drained, nil
		}
		end = g.Run()
		if len(errs) > 0 {
			return nil, 0, false, errs[0]
		}
		return delivered, end, true, nil
	}

	checkFull := func(counts []int) error {
		for i, d := range counts {
			if d != sc.Messages {
				return fmt.Errorf("baseline rehearsal: node %d delivered %d of %d", i, d, sc.Messages)
			}
		}
		return nil
	}
	counts, burst, _, err := run(0, 0, false)
	if err != nil {
		return BaselineResult{}, err
	}
	if err := checkFull(counts); err != nil {
		return BaselineResult{}, err
	}
	spacing := burst / float64(sc.Messages)
	counts, baseline, _, err := run(spacing, 0, false)
	if err != nil {
		return BaselineResult{}, err
	}
	if err := checkFull(counts); err != nil {
		return BaselineResult{}, err
	}
	counts, _, drained, err := run(spacing, baseline, true)
	if err != nil {
		return BaselineResult{}, err
	}
	res := BaselineResult{Sent: sc.Messages, MinDelivered: sc.Messages, Drained: drained}
	lost := sc.lost()
	for i, d := range counts {
		if lost[i] {
			continue
		}
		if d < res.MinDelivered {
			res.MinDelivered = d
		}
	}
	return res, nil
}
