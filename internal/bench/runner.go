package bench

import (
	"fmt"
	"sync/atomic"

	"rdmc/internal/core"
	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/rdma/reliab"
	"rdmc/internal/schedule"
	"rdmc/internal/simhost"
	"rdmc/internal/simnet"
)

// observer is the package-level observability sink deployments inherit; nil
// (the default) leaves every grid uninstrumented. An atomic pointer because
// -all runs experiment runners concurrently.
var observer atomic.Pointer[obs.Obs]

// SetObserver installs (or, with nil, removes) the sink every subsequently
// built deployment wires into its engines and NICs. The sink is shared by
// all deployments: counters aggregate across experiments and each structured
// event carries its node id. Instrumentation must never perturb the virtual
// clock, so the figures' virtual-time results are identical with and without
// an observer; only the wall-time cost of recording differs.
func SetObserver(o *obs.Obs) { observer.Store(o) }

// deployment wraps a simulated grid with benchmark helpers. Experiment
// runners are internal tooling, so setup errors panic rather than propagate.
type deployment struct {
	grid   *simhost.Grid
	nextID core.GroupID
}

func deploy(cluster simnet.ClusterConfig, offload bool) *deployment {
	return deployReliab(cluster, offload, nil)
}

// deployReliab is deploy with an optional loss-tolerant reliability layer
// (internal/rdma/reliab) wrapped around every NIC; nil rcfg is a plain
// deployment. A lossy cluster.Fabric needs rcfg, or queue pairs break.
func deployReliab(cluster simnet.ClusterConfig, offload bool, rcfg *reliab.Config) *deployment {
	grid, err := simhost.New(simhost.Config{
		Cluster:  cluster,
		Seed:     1,
		Offload:  offload,
		Observer: observer.Load(),
		Reliab:   rcfg,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: deploy: %v", err))
	}
	return &deployment{grid: grid, nextID: 1}
}

// benchGroup is one group instantiated on every listed member, with delivery
// accounting in virtual time.
type benchGroup struct {
	dep     *deployment
	members []int
	root    *core.Group
	all     []*core.Group

	// delivered counts local completions across all members; lastDone is
	// the virtual time of the latest one.
	delivered int
	lastDone  float64
	failures  int
}

// group creates a group over the given members (members[0] is the root) on
// every member's engine.
func (d *deployment) group(members []int, cfg core.GroupConfig) *benchGroup {
	// The paper experiments model RDMC's per-block pacing in lockstep. In
	// the fluid fabric, where control latency is microseconds, a queue pair
	// transmits one block at a time, but a node's sends to different peers
	// share its port, so overlapping windows still steal capacity from
	// critical-path blocks (the overlap and ablation reports quantify
	// this). Pin unset windows to 1 so the figures track the paper rather
	// than the library default, which is tuned for real transports with
	// per-block control round trips.
	if cfg.SendWindow == 0 {
		cfg.SendWindow = 1
	}
	if cfg.RecvWindow == 0 {
		cfg.RecvWindow = 1
	}
	bg := &benchGroup{dep: d, members: members}
	id := d.nextID
	d.nextID++
	ids := make([]rdma.NodeID, len(members))
	for i, m := range members {
		ids[i] = rdma.NodeID(m)
	}
	for _, m := range members {
		c := cfg
		c.Callbacks = core.Callbacks{
			Completion: func(int, []byte, int) {
				bg.delivered++
				bg.lastDone = d.grid.Sim().Now()
			},
			Failure: func(error) { bg.failures++ },
		}
		g, err := d.grid.Engine(m).CreateGroup(id, ids, c)
		if err != nil {
			panic(fmt.Sprintf("bench: create group: %v", err))
		}
		bg.all = append(bg.all, g)
		if g.Rank() == 0 {
			bg.root = g
		}
	}
	return bg
}

func (g *benchGroup) send(size int) {
	if err := g.root.SendSized(size); err != nil {
		panic(fmt.Sprintf("bench: send: %v", err))
	}
}

// run drives the simulation until idle and returns the virtual end time of
// the last delivery across the given groups.
func run(d *deployment, groups ...*benchGroup) float64 {
	d.grid.Run()
	last := 0.0
	for _, g := range groups {
		if g.failures > 0 {
			panic(fmt.Sprintf("bench: group over %v failed", g.members))
		}
		if g.lastDone > last {
			last = g.lastDone
		}
	}
	return last
}

// members returns [0, 1, ..., n-1].
func members(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// multicastOnce sends one message of size bytes through a fresh deployment
// and returns the virtual seconds until every member delivered it.
func multicastOnce(cluster simnet.ClusterConfig, gen schedule.Generator, size, blockSize int) float64 {
	d := deploy(cluster, false)
	g := d.group(members(cluster.Nodes), core.GroupConfig{
		BlockSize: blockSize,
		Generator: gen,
	})
	g.send(size)
	elapsed := run(d, g)
	want := len(g.members)
	if g.delivered != want {
		panic(fmt.Sprintf("bench: delivered %d of %d", g.delivered, want))
	}
	return elapsed
}

// gbps converts bytes over seconds to gigabits per second.
func gbps(bytes float64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return bytes * 8 / seconds / 1e9
}

func ms(seconds float64) string { return fmt.Sprintf("%.2f", seconds*1e3) }

func us(seconds float64) string { return fmt.Sprintf("%.0f", seconds*1e6) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// groupSizes returns the sweep of group sizes for a scale.
func groupSizes(scale Scale) []int {
	if scale == Full {
		return []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	}
	return []int{3, 4, 8, 12, 16}
}

const (
	mib = 1 << 20
	kib = 1 << 10
)
