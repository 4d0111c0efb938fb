package main

import (
	"fmt"
	"math/rand"
	"time"

	"rdmc"
	"rdmc/internal/bench"
	"rdmc/internal/core"
	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/rdma/reliab"
	"rdmc/internal/schedule"
	"rdmc/internal/simhost"
)

// simShape is one group on the simulated fabric. Messages are metadata-only:
// the full protocol runs, no user bytes move.
type simShape struct {
	nodes     int
	gbps      float64 // NIC line rate
	blockSize int
	window    int // send and receive window; 0 keeps the library default
	msgSize   int
	deadline  time.Duration // virtual time one message may take
}

// simMsg is one simulated multicast (or one WAN trial).
type simMsg struct {
	virt float64 // virtual seconds, send to last receiver completion
	host time.Duration
	ok   bool
	// Virtual timestamps, kept for traced runs: indexed by rank-1.
	send       float64
	incoming   []float64
	completion []float64
}

type simRun struct {
	setup    time.Duration
	msgs     []simMsg
	windows  []window
	lineRate float64 // bytes per virtual second
	barrier  bool    // the root's close barrier reported success
}

// The lossless simulated fabric is exact and nothing in it is random, so a
// run would read the same to the last digit whatever the seed. The seed
// therefore draws the fabric's one-way latency within ±0.2 % of the
// library's 1.5 µs: equal seeds still reproduce bit for bit, different
// seeds differ in their low digits, and no metric moves by more than that.
const (
	simLatencyMicros = 1.5
	simLatencySpread = 0.002
)

func seededLatencyMicros(seed int64) float64 {
	u := rand.New(rand.NewSource(seed)).Float64()
	return simLatencyMicros * (1 + simLatencySpread*(2*u-1))
}

func blocksOf(size, blockSize int) int { return (size + blockSize - 1) / blockSize }

// runSimGroup drives count multicasts through one group spanning a fresh
// simulated cluster, one at a time, then runs the close barrier.
func runSimGroup(shape simShape, seed int64, count int, win time.Duration, ob *rdmc.Observer) (simRun, error) {
	run := simRun{lineRate: shape.gbps * 1e9 / 8}
	t0 := time.Now()
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{
		Nodes: shape.nodes, LinkGbps: shape.gbps, LatencyMicros: seededLatencyMicros(seed),
		Seed: seed, Observer: ob,
	})
	if err != nil {
		return run, err
	}
	members := make([]int, shape.nodes)
	for i := range members {
		members[i] = i
	}
	gcfg := rdmc.GroupConfig{
		BlockSize:  shape.blockSize,
		SendWindow: shape.window,
		RecvWindow: shape.window,
	}
	var cur *simMsg
	failures := 0
	groups := make([]*rdmc.Group, shape.nodes)
	for i := range groups {
		r := i - 1
		cbs := rdmc.Callbacks{Failure: func(error) { failures++ }}
		if i > 0 {
			cbs.Incoming = func(int) []byte {
				cur.incoming[r] = cluster.Now().Seconds()
				return nil
			}
			cbs.Completion = func(int, []byte, int) {
				cur.completion[r] = cluster.Now().Seconds()
			}
		}
		if groups[i], err = cluster.Node(i).CreateGroup(1, members, gcfg, cbs); err != nil {
			return run, err
		}
	}
	run.setup = time.Since(t0)

	wins := newWindower(win)
	wins.begin(time.Since(t0))
	for m := 0; m < count; m++ {
		msg := simMsg{
			send:       cluster.Now().Seconds(),
			incoming:   make([]float64, shape.nodes-1),
			completion: make([]float64, shape.nodes-1),
		}
		cur = &msg
		h0 := time.Now()
		if err := groups[0].SendSized(shape.msgSize); err != nil {
			return run, err
		}
		cluster.RunUntil(cluster.Now() + shape.deadline)
		msg.host = time.Since(h0)
		msg.ok = failures == 0
		for _, g := range groups {
			msg.ok = msg.ok && g.Delivered() == m+1
		}
		msg.virt = maxOf(msg.completion) - msg.send
		run.msgs = append(run.msgs, msg)
		if !msg.ok {
			return run, nil // the group is wedged or failed; later sends cannot succeed
		}
		wins.op(time.Since(t0))
	}
	run.windows = wins.closed
	groups[0].Destroy(func(err error) { run.barrier = err == nil })
	cluster.Run()
	return run, nil
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// The lossy WAN workload: bench.WANCluster's three regions with two nodes
// each, 10 Gb/s uplinks, 30–80 ms inter-region RTT and seeded frame loss,
// crossed by one 32 MiB multicast per trial through the selective-retransmit
// layer.
const (
	wanPerRegion = 2
	wanNodes     = 3 * wanPerRegion
	wanSize      = 32 << 20
	wanBlock     = 64 << 10
	wanWindow    = 8
	wanLoss      = 0.001
	wanLineRate  = 1.25e9 // bytes per second, bench.WANCluster's uplinks
	wanDeadline  = 60.0   // virtual seconds one trial may take
)

// wanResult is one trial with its set-up time, the reliability layer's
// counters and, when stats are recorded, the root's SendWait/TotalTime.
type wanResult struct {
	msg      simMsg
	setup    time.Duration
	stats    reliab.Stats
	waitFrac float64
}

// wanTrial runs one trial on a fresh deployment.
func wanTrial(seed int64, fecGroup int, ob *obs.Obs, recordStats bool) (wanResult, error) {
	t0 := time.Now()
	grid, err := simhost.New(simhost.Config{
		Cluster:  bench.WANCluster(wanPerRegion, 1, wanLoss, seed),
		Seed:     1,
		Observer: ob,
		Reliab:   &reliab.Config{RTO: 0.2, MaxRTO: 0.8, Seed: seed, FECGroup: fecGroup},
	})
	if err != nil {
		return wanResult{}, err
	}
	ids := make([]rdma.NodeID, wanNodes)
	for i := range ids {
		ids[i] = rdma.NodeID(i)
	}
	msg := simMsg{
		incoming:   make([]float64, wanNodes-1),
		completion: make([]float64, wanNodes-1),
	}
	failures, delivered := 0, 0
	var root *core.Group
	for i := 0; i < wanNodes; i++ {
		r := i - 1
		cbs := core.Callbacks{Failure: func(error) { failures++ }}
		if i > 0 {
			cbs.Incoming = func(int) []byte {
				msg.incoming[r] = grid.Sim().Now()
				return nil
			}
			cbs.Completion = func(int, []byte, int) {
				msg.completion[r] = grid.Sim().Now()
				delivered++
			}
		}
		g, err := grid.Engine(i).CreateGroup(1, ids, core.GroupConfig{
			BlockSize:   wanBlock,
			SendWindow:  wanWindow,
			RecvWindow:  wanWindow,
			Generator:   schedule.New(schedule.BinomialPipeline),
			RecordStats: recordStats,
			Callbacks:   cbs,
		})
		if err != nil {
			return wanResult{}, err
		}
		if i == 0 {
			root = g
		}
	}
	setup := time.Since(t0)

	h0 := time.Now()
	if err := root.SendSized(wanSize); err != nil {
		return wanResult{}, err
	}
	grid.RunUntil(wanDeadline)
	msg.host = time.Since(h0)
	msg.ok = failures == 0 && delivered == wanNodes-1
	msg.virt = maxOf(msg.completion)
	res := wanResult{msg: msg, setup: setup, stats: grid.ReliabStats()}
	if st := root.LastStats(); st != nil && st.TotalTime() > 0 {
		res.waitFrac = float64(st.SendWait()) / float64(st.TotalTime())
	}
	return res, nil
}

// wanTrialSeed spreads the run seed over its trials.
func wanTrialSeed(seed int64, trial int) int64 { return seed*1_000_003 + int64(trial)*1009 + 11 }

func checkSimMsgs(msgs []simMsg) (attempted, failed int) {
	for _, m := range msgs {
		attempted++
		if !m.ok {
			failed++
		}
	}
	return
}

func (s simShape) xfersPerMsg() int { return blocksOf(s.msgSize, s.blockSize) * (s.nodes - 1) }

func describeShape(s simShape) string {
	w := "library-default window"
	if s.window > 0 {
		w = fmt.Sprintf("windows pinned to %d", s.window)
	}
	return fmt.Sprintf("%d simulated nodes, %.0f Gb/s, %d-byte blocks, %s", s.nodes, s.gbps, s.blockSize, w)
}
