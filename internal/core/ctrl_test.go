package core_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rdmc/internal/core"
	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/rdma/simnic"
	"rdmc/internal/schedule"
	"rdmc/internal/simnet"
)

// ctrlRig is a simulated deployment whose control channel a test can write
// to directly, posing as any node — including one outside every group — and
// whose outbound control messages it can hold back.
type ctrlRig struct {
	sim      *simnet.Sim
	cluster  *simnet.Cluster
	engines  []*core.Engine
	taps     []*tapProvider
	handlers []func(rdma.NodeID, core.CtrlMsg)

	// hold, when set, diverts matching outbound messages into held instead
	// of the wire; release sends them on.
	hold func(from, to rdma.NodeID, m core.CtrlMsg) bool
	held []heldMsg
}

type heldMsg struct {
	from, to rdma.NodeID
	m        core.CtrlMsg
}

func newCtrlRig(t testing.TB, nodes int) *ctrlRig {
	t.Helper()
	sim := simnet.NewSim(1)
	cluster, err := simnet.NewCluster(sim, simnet.ClusterConfig{
		Nodes:         nodes,
		LinkBandwidth: 12.5e9,
		Latency:       1.5e-6,
		CPU:           simnet.DefaultCPUConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &ctrlRig{sim: sim, cluster: cluster, handlers: make([]func(rdma.NodeID, core.CtrlMsg), nodes)}
	network := simnic.NewNetwork(cluster)
	for i := 0; i < nodes; i++ {
		id := rdma.NodeID(i)
		tap := &tapProvider{Provider: network.Provider(id)}
		r.taps = append(r.taps, tap)
		r.engines = append(r.engines, core.NewEngine(tap, &rigControl{rig: r, local: id}, rigHost{sim}))
	}
	return r
}

// tapProvider keeps the engine's completion handler, so a test can hand the
// engine a completion no simulated event produced.
type tapProvider struct {
	rdma.Provider
	batch func([]rdma.Completion)
}

func (p *tapProvider) SetBatchHandler(h func([]rdma.Completion)) {
	p.batch = h
	p.Provider.SetBatchHandler(h)
}

// idleBreak is the event a socket transport raises when the connection of
// an idle queue pair between two ranks of group 1 breaks.
func idleBreak(peer rdma.NodeID, lo, hi int) []rdma.Completion {
	return []rdma.Completion{{
		Op: rdma.OpRecv, Status: rdma.StatusBroken, Peer: peer,
		Token: 1<<32 | uint64(lo)<<16 | uint64(hi), WRID: ^uint64(0),
	}}
}

// inject delivers m to node to's engine as if node from had sent it.
func (r *ctrlRig) inject(from, to rdma.NodeID, m core.CtrlMsg) {
	if h := r.handlers[to]; h != nil {
		h(from, m)
	}
}

func (r *ctrlRig) release() {
	held := r.held
	r.held = nil
	for _, h := range held {
		r.inject(h.from, h.to, h.m)
	}
}

// group creates group 1 on nodes 0..n-1 with data-carrying callbacks. The
// Incoming callback refuses announcements above maxSize, so a bogus prepare
// that slips through shows up as an error instead of a huge allocation.
func (r *ctrlRig) group(t testing.TB, n int, cfg core.GroupConfig, maxSize int) ([]*core.Group, []*receiverState) {
	t.Helper()
	members := make([]rdma.NodeID, n)
	for i := range members {
		members[i] = rdma.NodeID(i)
	}
	groups := make([]*core.Group, n)
	states := make([]*receiverState, n)
	for i := range members {
		st := &receiverState{}
		states[i] = st
		c := cfg
		c.Callbacks = core.Callbacks{
			Incoming: func(size int) []byte {
				if size > maxSize {
					t.Errorf("node %d accepted a transfer of %d bytes", i, size)
					return nil
				}
				return make([]byte, size)
			},
			Completion: func(seq int, data []byte, size int) {
				st.delivered = append(st.delivered, append([]byte(nil), data...))
				st.sizes = append(st.sizes, size)
			},
			Failure: func(err error) { st.failures = append(st.failures, err) },
		}
		g, err := r.engines[i].CreateGroup(1, members, c)
		if err != nil {
			t.Fatalf("CreateGroup on node %d: %v", i, err)
		}
		groups[i] = g
	}
	return groups, states
}

type rigControl struct {
	rig   *ctrlRig
	local rdma.NodeID
}

func (c *rigControl) Send(to rdma.NodeID, m core.CtrlMsg) error {
	r, from := c.rig, c.local
	if r.hold != nil && r.hold(from, to, m) {
		r.held = append(r.held, heldMsg{from: from, to: to, m: m})
		return nil
	}
	r.cluster.Ctrl(simnet.NodeID(from), simnet.NodeID(to), func() { r.inject(from, to, m) })
	return nil
}

func (c *rigControl) SetHandler(fn func(rdma.NodeID, core.CtrlMsg)) { c.rig.handlers[c.local] = fn }

type rigHost struct{ sim *simnet.Sim }

func (h rigHost) Now() time.Duration          { return h.sim.NowDuration() }
func (h rigHost) ChargeCopy(_ int, fn func()) { h.sim.After(0, fn) }

// TestMalformedPrepareDropped feeds a member prepares that no root of its
// group could have sent: sizes Send refuses, a block size the member would
// not derive, and valid-looking frames from a non-root member and from a
// node outside the group. Each must be dropped without starting a transfer,
// and the group must then carry a real message intact.
func TestMalformedPrepareDropped(t *testing.T) {
	r := newCtrlRig(t, 4)
	const bs = 1 << 10
	groups, states := r.group(t, 3, core.GroupConfig{BlockSize: bs}, 1<<20)

	bad := []struct {
		from rdma.NodeID
		m    core.CtrlMsg
	}{
		{0, core.CtrlMsg{Size: 0, BS: bs}},
		{0, core.CtrlMsg{Size: -1, BS: bs}},
		{0, core.CtrlMsg{Size: 1 << 32, BS: bs}},
		{0, core.CtrlMsg{Size: 4 * bs, BS: bs / 2}},
		{0, core.CtrlMsg{Size: 4 * bs, BS: 0}},
		{2, core.CtrlMsg{Size: 4 * bs, BS: bs}},
		{3, core.CtrlMsg{Size: 4 * bs, BS: bs}},
	}
	for _, b := range bad {
		m := b.m
		m.Kind, m.Group = core.CtrlPrepare, 1
		r.inject(b.from, 1, m)
	}
	r.sim.Run()

	msg := make([]byte, 10*bs+7)
	rand.New(rand.NewSource(3)).Read(msg)
	if err := groups[0].Send(msg); err != nil {
		t.Fatal(err)
	}
	r.sim.Run()
	for i, st := range states {
		if len(st.failures) != 0 {
			t.Fatalf("member %d failed: %v", i, st.failures)
		}
		if len(st.delivered) != 1 || st.sizes[0] != len(msg) || !bytes.Equal(st.delivered[0], msg) {
			t.Fatalf("member %d delivered %d messages (sizes %v), want the one real message intact", i, len(st.delivered), st.sizes)
		}
	}
}

// TestCloseAckFromNonMemberIgnored holds one member's close-ack back and has
// a node outside the group ack in its place. The §4.6 barrier must not
// complete until the real ack arrives.
func TestCloseAckFromNonMemberIgnored(t *testing.T) {
	r := newCtrlRig(t, 4)
	groups, _ := r.group(t, 3, core.GroupConfig{BlockSize: 1 << 10}, 1<<20)
	r.hold = func(from, _ rdma.NodeID, m core.CtrlMsg) bool { return from == 2 && m.Kind == core.CtrlCloseAck }

	var results []error
	groups[0].Destroy(func(err error) { results = append(results, err) })
	r.sim.Run()
	if len(r.held) != 1 {
		t.Fatalf("held %d close-acks from member 2, want 1", len(r.held))
	}
	r.inject(3, 0, core.CtrlMsg{Kind: core.CtrlCloseAck, Group: 1, OK: true, Node: 3})
	r.sim.Run()
	if len(results) != 0 {
		t.Fatalf("close barrier completed with %v while member 2 had not acked", results)
	}

	r.hold = nil
	r.release()
	r.sim.Run()
	if len(results) != 1 || results[0] != nil {
		t.Fatalf("close barrier results = %v, want one nil once every member acked", results)
	}
}

// TestBreakAfterCloseAckNotRelayed holds the root's destroyed notices back
// after a successful close barrier: the root has torn down and closed its
// queue pairs, and a member sees that break before the notice. Its part of
// the barrier is done, so it must neither fail nor relay a failure — the
// relay would reach the root, which may already run a new group under the
// same id.
func TestBreakAfterCloseAckNotRelayed(t *testing.T) {
	r := newCtrlRig(t, 3)
	groups, states := r.group(t, 3, core.GroupConfig{BlockSize: 1 << 10}, 1<<20)
	msg := make([]byte, 4<<10)
	rand.New(rand.NewSource(5)).Read(msg)
	if err := groups[0].Send(msg); err != nil {
		t.Fatal(err)
	}
	r.sim.Run()
	r.hold = func(_, _ rdma.NodeID, m core.CtrlMsg) bool {
		return m.Kind == core.CtrlDestroyed || m.Kind == core.CtrlFailure
	}
	var results []error
	groups[0].Destroy(func(err error) { results = append(results, err) })
	r.sim.Run()
	if len(results) != 1 || results[0] != nil {
		t.Fatalf("close barrier results = %v, want one nil", results)
	}

	r.taps[1].batch(idleBreak(0, 0, 1))
	r.sim.Run()
	for _, h := range r.held {
		if h.m.Kind == core.CtrlFailure {
			t.Errorf("node %d relayed a failure of node %d to node %d", h.from, h.m.Node, h.to)
		}
	}
	r.hold = nil
	r.release()
	r.sim.Run()
	checkDelivered(t, states, [][]byte{msg})
}

// TestCrashAfterNeighbourAckFailsBarrier crashes member 3 of four after
// members 1 and 2 have acked the close barrier but before its own ack
// leaves. The acked members drop the breaks they see on their links to it
// (TestBreakAfterCloseAckNotRelayed), so the root learns of the crash from
// the mesh's failure notice, and Destroy must report it.
func TestCrashAfterNeighbourAckFailsBarrier(t *testing.T) {
	r := newCtrlRig(t, 4)
	groups, _ := r.group(t, 4, core.GroupConfig{BlockSize: 1 << 10}, 1<<20)
	msg := make([]byte, 4<<10)
	rand.New(rand.NewSource(7)).Read(msg)
	if err := groups[0].Send(msg); err != nil {
		t.Fatal(err)
	}
	r.sim.Run()
	r.hold = func(from, _ rdma.NodeID, m core.CtrlMsg) bool {
		return from == 3 && m.Kind == core.CtrlCloseAck
	}
	var results []error
	groups[0].Destroy(func(err error) { results = append(results, err) })
	r.sim.Run()
	if len(r.held) != 1 || len(results) != 0 {
		t.Fatalf("held %d acks, barrier results %v; want member 3's ack held and no result", len(r.held), results)
	}

	// Member 3 crashes: its ack is lost, and the acked members' links to
	// it break.
	r.held = nil
	r.cluster.FailNode(3)
	r.taps[1].batch(idleBreak(3, 1, 3))
	r.taps[2].batch(idleBreak(3, 2, 3))
	r.sim.Run()
	r.engines[0].NotifyFailure(3)
	r.sim.Run()
	var fe *core.FailureError
	if len(results) != 1 || !errors.As(results[0], &fe) || fe.Node != 3 {
		t.Fatalf("close barrier results = %v, want one failure of node 3", results)
	}
}

// TestStaleCreditDropped injects ready-for-block frames no sender emits into
// a root: credit for the sequence it has already delivered, for a negative
// sequence, and a zero or negative count for the next sequence. None may be
// credited (each would leave a credit entry that delivery never clears).
// Credit for a sequence not started yet stays legitimate — a fast receiver
// sends it — and the group must then carry a second message intact.
func TestStaleCreditDropped(t *testing.T) {
	r := newCtrlRig(t, 3)
	sink := obs.New(1 << 12)
	r.engines[0].SetObserver(sink)
	credits := sink.Registry().Counter("core.ready_credits")
	const bs = 1 << 10
	groups, states := r.group(t, 3, core.GroupConfig{BlockSize: bs}, 1<<20)

	rng := rand.New(rand.NewSource(11))
	msgs := [][]byte{make([]byte, 4*bs), make([]byte, 6*bs+5)}
	rng.Read(msgs[0])
	rng.Read(msgs[1])
	if err := groups[0].Send(msgs[0]); err != nil {
		t.Fatal(err)
	}
	r.sim.Run()

	before := credits.Load()
	for _, m := range []core.CtrlMsg{
		{Seq: 0, Count: 1},
		{Seq: -1, Count: 1},
		{Seq: 1, Count: 0},
		{Seq: 1, Count: -3},
		{Seq: 5, Count: 1}, // a future sequence: credited
	} {
		m.Kind, m.Group = core.CtrlReadyBlock, 1
		r.inject(1, 0, m)
	}
	r.sim.Run()
	if got := credits.Load() - before; got != 1 {
		t.Fatalf("root credited %d from the injected frames, want 1 (the future sequence only)", got)
	}

	if err := groups[0].Send(msgs[1]); err != nil {
		t.Fatal(err)
	}
	r.sim.Run()
	checkDelivered(t, states, msgs)
}

// checkDelivered asserts every member delivered exactly msgs, intact, with no
// failure.
func checkDelivered(t *testing.T, states []*receiverState, msgs [][]byte) {
	t.Helper()
	for i, st := range states {
		if len(st.failures) != 0 {
			t.Fatalf("member %d failed: %v", i, st.failures)
		}
		if len(st.delivered) != len(msgs) {
			t.Fatalf("member %d delivered %d messages, want %d", i, len(st.delivered), len(msgs))
		}
		for seq, msg := range msgs {
			if !bytes.Equal(st.delivered[seq], msg) {
				t.Fatalf("member %d: message %d corrupt", i, seq)
			}
		}
	}
}

// stubSampler reports whatever contention the test last set.
type stubSampler struct{ c schedule.Contention }

func (s *stubSampler) SampleContention() schedule.Contention { return s.c }

// TestPlanMemoHoldsOnePlan drives a 3-member group (a non-power-of-two size,
// so members build the circulant plan) through message sizes A, A, B, A, and
// an adaptive group through contention masks 0, 0, m, 0. Each member's plan
// memo misses the first transfer, then hits, misses, misses: it keeps only
// the previous transfer's plan. Every message must arrive intact.
func TestPlanMemoHoldsOnePlan(t *testing.T) {
	const bs = 1 << 10
	for _, tc := range []struct {
		name     string
		gen      schedule.Generator
		sizes    []int
		pressure []float64 // rack 1's trunk pressure, sampled by the root per transfer
	}{
		{"sizes", nil, []int{10 * bs, 10 * bs, 3*bs + 1, 10 * bs}, nil},
		{"masks", schedule.AdaptiveGen{RackOf: []int{0, 0, 1}}, []int{10 * bs, 10 * bs, 10 * bs, 10 * bs}, []float64{0, 0, 2, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCtrlRig(t, 3)
			sink := obs.New(1 << 14)
			for _, e := range r.engines {
				e.SetObserver(sink)
			}
			sampler := &stubSampler{}
			if tc.pressure != nil {
				r.engines[0].SetContentionSampler(sampler)
			}
			groups, states := r.group(t, 3, core.GroupConfig{BlockSize: bs, Generator: tc.gen}, 1<<20)
			hits := sink.Registry().Counter("core.plan_cache_hits")
			misses := sink.Registry().Counter("core.plan_cache_misses")

			want := [][2]uint64{{0, 1}, {1, 1}, {1, 2}, {1, 3}} // cumulative per member
			rng := rand.New(rand.NewSource(13))
			var msgs [][]byte
			for i, size := range tc.sizes {
				if tc.pressure != nil {
					sampler.c = schedule.Contention{TrunkUp: []float64{0, tc.pressure[i]}}
				}
				msg := make([]byte, size)
				rng.Read(msg)
				msgs = append(msgs, msg)
				if err := groups[0].Send(msg); err != nil {
					t.Fatal(err)
				}
				r.sim.Run()
				if h, m := hits.Load(), misses.Load(); h != 3*want[i][0] || m != 3*want[i][1] {
					t.Fatalf("after transfer %d: plan memo hits/misses = %d/%d over 3 members, want %d/%d",
						i, h, m, 3*want[i][0], 3*want[i][1])
				}
			}
			checkDelivered(t, states, msgs)

			if tc.pressure != nil {
				var masks []int64
				for _, e := range sink.Ring().Snapshot() {
					if e.Kind == obs.EvContentionSample {
						masks = append(masks, e.Arg)
					}
				}
				if want := []int64{0, 0, 1 << 1, 0}; !reflect.DeepEqual(masks, want) {
					t.Fatalf("root planned under masks %v, want %v", masks, want)
				}
			}
		})
	}
}

// FuzzEngineCtrl injects one arbitrary control message, from any node to any
// member, into a live 3-member group that is carrying a message and running
// its close barrier. Whatever the frame says, no engine may panic.
func FuzzEngineCtrl(f *testing.F) {
	// The two frames that once broke the engine: a zero-size prepare to a
	// member, and an OK close-ack from a node outside the group.
	f.Add(uint8(0), uint8(1), int(core.CtrlPrepare), 0, int64(0), 0, 0, 0, 0, uint32(0), false, uint64(0), 1<<20)
	f.Add(uint8(3), uint8(0), int(core.CtrlCloseAck), 0, int64(0), 0, 0, 0, 0, uint32(3), true, uint64(0), 0)
	// Credit frames no sender emits: a negative sequence, and a zero count.
	f.Add(uint8(1), uint8(0), int(core.CtrlReadyBlock), -1, int64(0), 0, 0, 1, 0, uint32(0), false, uint64(0), 0)
	f.Add(uint8(1), uint8(0), int(core.CtrlReadyBlock), 0, int64(0), 0, 0, 0, 0, uint32(0), false, uint64(0), 0)
	f.Fuzz(func(t *testing.T, from, to uint8, kind, seq int, size int64, round, block, count, total int,
		node uint32, ok bool, mask uint64, bs int) {
		r := newCtrlRig(t, 4)
		cfg := core.GroupConfig{BlockSize: 1 << 20, Generator: schedule.AdaptiveGen{}}
		var groups []*core.Group
		for i := 0; i < 3; i++ {
			g, err := r.engines[i].CreateGroup(1, []rdma.NodeID{0, 1, 2}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			groups = append(groups, g)
		}
		if err := groups[0].SendSized(3 << 20); err != nil {
			t.Fatal(err)
		}
		groups[0].Destroy(func(error) {})
		m := core.CtrlMsg{
			Kind: core.CtrlKind(kind), Group: 1, Seq: seq, Size: size, Round: round, Block: block,
			Count: count, Total: total, Node: rdma.NodeID(node), OK: ok, Mask: mask, BS: bs,
		}
		r.sim.At(5e-6, func() { r.inject(rdma.NodeID(from%4), rdma.NodeID(to%3), m) })
		r.sim.Run()
	})
}

// oneBlockRig is a 4-member binomial group (rank 1 relays one-block
// messages to rank 3) whose one-block path is armed: a first one-block
// message's prepares have armed every member, and the message has ridden
// their standing receives. Engine 3 and engine 1 record their events in
// sinks[3] and sinks[1].
func oneBlockRig(t *testing.T) (*ctrlRig, []*core.Group, []*receiverState, map[int]*obs.Obs, [][]byte) {
	t.Helper()
	r := newCtrlRig(t, 4)
	sinks := map[int]*obs.Obs{1: obs.New(1 << 12), 3: obs.New(1 << 12)}
	for i, s := range sinks {
		r.engines[i].SetObserver(s)
	}
	groups, states := r.group(t, 4, core.GroupConfig{BlockSize: 1 << 10}, 1<<20)
	warm := make([]byte, 700)
	rand.New(rand.NewSource(17)).Read(warm)
	if err := groups[0].Send(warm); err != nil {
		t.Fatal(err)
	}
	r.sim.Run()
	return r, groups, states, sinks, [][]byte{warm}
}

// sendAll sends each message from the root and returns msgs extended by
// them.
func sendAll(t *testing.T, root *core.Group, msgs [][]byte, sizes ...int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(msgs))))
	for _, size := range sizes {
		msg := make([]byte, size)
		rng.Read(msg)
		if err := root.Send(msg); err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, msg)
	}
	return msgs
}

// TestOneBlockPrepareWaitsForEarlierBlock sends one-block message 1 and
// multi-block message 2 back to back. The root starts 2 as soon as its own
// sends of 1 complete, so 2's prepare reaches leaf 3 over one mesh hop
// while 1's block is still on its second data hop. The leaf must hold the
// prepare until it has delivered 1.
func TestOneBlockPrepareWaitsForEarlierBlock(t *testing.T) {
	r, groups, states, sinks, msgs := oneBlockRig(t)
	msgs = sendAll(t, groups[0], msgs, 900, 5<<10+3)
	r.sim.Run()
	checkDelivered(t, states, msgs)

	prepareAt, blockAt := -1, -1
	for i, e := range sinks[3].Ring().Snapshot() {
		switch {
		case e.Kind == obs.EvCtrlRecv && e.Seq == 2 && e.Arg == int64(core.CtrlPrepare):
			prepareAt = i
		case e.Kind == obs.EvRecvDone && e.Seq == 1:
			blockAt = i
		}
	}
	if prepareAt < 0 || blockAt < 0 || prepareAt > blockAt {
		t.Fatalf("leaf saw prepare 2 at event %d and block 1 at event %d; the test needs the prepare first", prepareAt, blockAt)
	}
}

// holdLeafCredit holds leaf 3's ready-for-block credits for multi-block
// message seq, so the leaf and both ranks that feed it stay inside seq
// while the root, whose sends to ranks 1 and 2 complete, moves on.
func holdLeafCredit(r *ctrlRig, seq int) {
	r.hold = func(from, _ rdma.NodeID, m core.CtrlMsg) bool {
		return from == 3 && m.Kind == core.CtrlReadyBlock && m.Seq == seq
	}
}

// TestOneBlockWaitsBehindMultiBlock lands a one-block block on members that
// are still inside a multi-block transfer. The arrival waits in the slot
// beside the active transfer, and each member delivers it right after.
func TestOneBlockWaitsBehindMultiBlock(t *testing.T) {
	r, groups, states, sinks, msgs := oneBlockRig(t)
	holdLeafCredit(r, 1)
	msgs = sendAll(t, groups[0], msgs, 6<<10, 1<<10)
	r.sim.Run()
	for _, i := range []int{1, 3} {
		landed := false
		for _, e := range sinks[i].Ring().Snapshot() {
			landed = landed || e.Kind == obs.EvRecvDone && e.Seq == 2
		}
		if got := len(states[i].delivered); got != 1 || !landed {
			t.Fatalf("member %d delivered %d messages, one-block block landed %v; want 1 and true while message 1 is held", i, got, landed)
		}
	}
	r.hold = nil
	r.release()
	r.sim.Run()
	checkDelivered(t, states, msgs)
}

// TestOneBlockCreditBound holds leaf 3 and its feeders inside a multi-block
// message while the root sends more one-block messages than the receive
// window. A member keeps RecvWindow standing receives and grants more only
// as RecvWindow arrivals have become its active transfer, so relay 1
// forwards one window of one-block messages to the leaf (the warm-up among
// them) and nothing more until the leaf takes them up; the root's later
// messages wait on the relays' credit.
func TestOneBlockCreditBound(t *testing.T) {
	const window = 4 // the default RecvWindow
	r, groups, states, sinks, msgs := oneBlockRig(t)
	holdLeafCredit(r, 1)
	msgs = sendAll(t, groups[0], msgs, 6<<10, 1<<10, 10, 1000, 1, 500, 700)
	r.sim.Run()
	forwards := 0
	for _, e := range sinks[1].Ring().Snapshot() {
		if e.Kind == obs.EvSendPosted && e.Seq != 1 && e.Peer == 3 {
			forwards++
		}
	}
	if forwards != window {
		t.Fatalf("relay 1 posted %d one-block sends to the held leaf, want %d", forwards, window)
	}
	for i, st := range states {
		if len(st.failures) != 0 {
			t.Fatalf("member %d failed while held: %v", i, st.failures)
		}
	}
	r.hold = nil
	r.release()
	r.sim.Run()
	checkDelivered(t, states, msgs)
}

// TestOneBlockKeepsPlanMemo alternates multi-block and one-block messages on
// a 3-member group. The one-block plan has a memo of its own: after one
// miss each, every multi-block message hits the plan memo and every
// one-block arrival the one-block plan.
func TestOneBlockKeepsPlanMemo(t *testing.T) {
	r := newCtrlRig(t, 3)
	sink := obs.New(1 << 14)
	for _, e := range r.engines {
		e.SetObserver(sink)
	}
	const bs = 1 << 10
	groups, states := r.group(t, 3, core.GroupConfig{BlockSize: bs}, 1<<20)
	hits := sink.Registry().Counter("core.plan_cache_hits")
	misses := sink.Registry().Counter("core.plan_cache_misses")
	var msgs [][]byte
	for _, size := range []int{10 * bs, bs, 10 * bs, 500, 10 * bs, bs} {
		msgs = sendAll(t, groups[0], msgs, size)
		r.sim.Run()
	}
	checkDelivered(t, states, msgs)
	// The root builds the one-block plan for its first one-block message,
	// a member when that message's prepare arms it; the member then looks
	// the plan up for each of the three arrivals.
	if h, m := hits.Load(), misses.Load(); h != 4+2*5 || m != 3*2 {
		t.Fatalf("plan memo hits/misses = %d/%d over 3 members, want %d/%d", h, m, 4+2*5, 3*2)
	}
}

// TestOneBlockAfterIdleKeepsOrder sends two one-block messages back to back
// after the group has been idle for longer than the simulated CPU's polling
// window. The first arrival at each member pays the interrupt wake-up, and
// the second must not overtake it: the provider delivers completions in
// order.
func TestOneBlockAfterIdleKeepsOrder(t *testing.T) {
	r, groups, states, _, msgs := oneBlockRig(t)
	r.sim.At(r.sim.Now()+0.1, func() { msgs = sendAll(t, groups[0], msgs, 600, 800) })
	r.sim.Run()
	checkDelivered(t, states, msgs)
}

// TestOneBlockOvertakesPrepareInOrder holds the root's prepare for
// multi-block message 1 on its way to leaf 3, then sends one-block message
// 2. No barrier over all receivers holds the root back: it finishes its
// sends of 1 to ranks 1 and 2, and relay 1, still inside message 1 for want
// of the leaf's credit, forwards 2 on the one-block edge. Block 2 reaches
// the leaf before prepare 1 does; the leaf must still deliver 1 first.
func TestOneBlockOvertakesPrepareInOrder(t *testing.T) {
	r, groups, states, sinks, msgs := oneBlockRig(t)
	r.hold = func(from, to rdma.NodeID, m core.CtrlMsg) bool {
		return from == 0 && to == 3 && m.Kind == core.CtrlPrepare
	}
	msgs = sendAll(t, groups[0], msgs, 6<<10, 900)
	r.sim.Run()
	landed := false
	for _, e := range sinks[3].Ring().Snapshot() {
		landed = landed || e.Kind == obs.EvRecvDone && e.Seq == 2
	}
	if got := len(states[3].delivered); got != 1 || !landed || len(r.held) != 1 {
		t.Fatalf("leaf delivered %d messages, block 2 landed %v, %d prepares held; want 1, true, 1", got, landed, len(r.held))
	}
	r.hold = nil
	r.release()
	r.sim.Run()
	checkDelivered(t, states, msgs)
}

// TestOneBlockCreditBeforeArming holds the root's prepare for a group's
// first one-block message on its way to relay 1. Leaf 3 arms and grants the
// relay its standing receives before the relay has armed itself. The relay
// must keep that credit, or the message never reaches the leaf.
func TestOneBlockCreditBeforeArming(t *testing.T) {
	r := newCtrlRig(t, 4)
	sink := obs.New(1 << 12)
	r.engines[1].SetObserver(sink)
	groups, states := r.group(t, 4, core.GroupConfig{BlockSize: 1 << 10}, 1<<20)
	r.hold = func(from, to rdma.NodeID, m core.CtrlMsg) bool {
		return from == 0 && to == 1 && m.Kind == core.CtrlPrepare
	}
	msgs := sendAll(t, groups[0], nil, 700)
	r.sim.Run()
	granted := false
	for _, e := range sink.Ring().Snapshot() {
		granted = granted || e.Kind == obs.EvCtrlRecv && e.Peer == 3 && e.Arg == int64(core.CtrlReadyBlock)
	}
	if !granted || len(r.held) != 1 {
		t.Fatalf("relay got the leaf's grant %v with %d prepares held; want true and 1", granted, len(r.held))
	}
	r.hold = nil
	r.release()
	r.sim.Run()
	checkDelivered(t, states, msgs)
}
