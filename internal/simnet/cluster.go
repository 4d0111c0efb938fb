package simnet

import (
	"fmt"
	"math/rand"
)

// NodeID identifies a host within a simulated cluster.
type NodeID int

// ClusterConfig describes the modelled hardware. Bandwidths are in bytes per
// second and latencies in seconds. The zero value is not usable; start from
// a cluster model in package bench or fill every field.
type ClusterConfig struct {
	// Nodes is the number of hosts.
	Nodes int
	// LinkBandwidth is the full-duplex per-direction NIC capacity.
	LinkBandwidth float64
	// Latency is the one-way message latency (propagation + NIC pipeline)
	// charged to every transfer and control message.
	Latency float64
	// CPU configures the per-node software cost model.
	CPU CPUConfig
	// RackSize, when non-zero, arranges nodes into racks of this size
	// connected by a shared TOR trunk; zero models full bisection
	// bandwidth where only NIC ports constrain throughput.
	RackSize int
	// TrunkBandwidth is the per-rack uplink (and downlink) capacity when
	// RackSize is non-zero. A value below RackSize*LinkBandwidth models an
	// oversubscribed TOR, as on the paper's Apt cluster.
	TrunkBandwidth float64
	// RetryTimeout is the virtual time after which a transfer crossing a
	// broken link surfaces a connection-break completion, modelling NIC
	// retry exhaustion.
	RetryTimeout float64
	// Fabric, when non-nil, overlays the lossy WAN path model: a per-region
	// RTT matrix replacing the single Latency, seeded per-frame loss, and
	// bounded reordering (see FabricProfile in wan.go). Nil keeps the
	// lossless datacenter fabric, byte-identical to configurations that
	// predate the overlay.
	Fabric *FabricProfile
}

// Validate reports a descriptive error for an unusable configuration.
func (c ClusterConfig) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("simnet: cluster needs at least 1 node, got %d", c.Nodes)
	case c.LinkBandwidth <= 0:
		return fmt.Errorf("simnet: link bandwidth must be positive, got %g", c.LinkBandwidth)
	case c.Latency < 0:
		return fmt.Errorf("simnet: latency must be non-negative, got %g", c.Latency)
	case c.RackSize < 0:
		return fmt.Errorf("simnet: rack size must be non-negative, got %d", c.RackSize)
	case c.RackSize > 0 && c.TrunkBandwidth <= 0:
		return fmt.Errorf("simnet: two-tier topology needs a positive trunk bandwidth")
	}
	if c.Fabric != nil {
		return c.Fabric.Validate(c.Nodes)
	}
	return nil
}

// Cluster is a set of simulated hosts joined by a fabric.
type Cluster struct {
	sim    *Sim
	fabric *Fabric
	cfg    ClusterConfig
	nodes  []*node

	slow   map[[2]NodeID]*Resource
	broken map[[2]NodeID]bool

	// lossRng feeds the fabric profile's loss and reorder draws. It is
	// seeded independently of the simulation's source and untouched when no
	// profile (or no loss) is configured, so the WAN overlay cannot perturb
	// profile-free runs.
	lossRng *rand.Rand
}

type node struct {
	id       NodeID
	tx, rx   *Resource
	cpu      *CPU
	rack     int
	rackUp   *Resource
	rackDown *Resource
	down     bool
}

// NewCluster builds a cluster over the given simulation engine.
func NewCluster(sim *Sim, cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.RetryTimeout == 0 {
		cfg.RetryTimeout = 1e-3
	}
	lossSeed := int64(1)
	if cfg.Fabric != nil && cfg.Fabric.Seed != 0 {
		lossSeed = cfg.Fabric.Seed
	}
	c := &Cluster{
		sim:     sim,
		fabric:  NewFabric(sim),
		cfg:     cfg,
		slow:    make(map[[2]NodeID]*Resource),
		broken:  make(map[[2]NodeID]bool),
		lossRng: rand.New(rand.NewSource(lossSeed)),
	}
	var uplinks, downlinks []*Resource
	if cfg.RackSize > 0 {
		racks := (cfg.Nodes + cfg.RackSize - 1) / cfg.RackSize
		for r := 0; r < racks; r++ {
			uplinks = append(uplinks, NewResource(fmt.Sprintf("rack%d.up", r), cfg.TrunkBandwidth))
			downlinks = append(downlinks, NewResource(fmt.Sprintf("rack%d.down", r), cfg.TrunkBandwidth))
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{
			id:  NodeID(i),
			tx:  NewResource(fmt.Sprintf("node%d.tx", i), cfg.LinkBandwidth),
			rx:  NewResource(fmt.Sprintf("node%d.rx", i), cfg.LinkBandwidth),
			cpu: NewCPU(sim, cfg.CPU),
		}
		if cfg.RackSize > 0 {
			n.rack = i / cfg.RackSize
			n.rackUp = uplinks[n.rack]
			n.rackDown = downlinks[n.rack]
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Sim returns the simulation engine the cluster runs on.
func (c *Cluster) Sim() *Sim { return c.sim }

// Config returns the cluster configuration.
func (c *Cluster) Config() ClusterConfig { return c.cfg }

// CPU returns the CPU model of the given node.
func (c *Cluster) CPU(id NodeID) *CPU { return c.nodes[id].cpu }

// Rack returns the rack index of a node (always 0 under full bisection).
func (c *Cluster) Rack(id NodeID) int { return c.nodes[id].rack }

// SetLinkBandwidth installs a dedicated capacity limit on the directed pair
// src→dst, modelling a slow link (§4.5's T′ experiment). A zero bandwidth
// removes the override.
func (c *Cluster) SetLinkBandwidth(src, dst NodeID, bandwidth float64) {
	key := [2]NodeID{src, dst}
	if bandwidth <= 0 {
		delete(c.slow, key)
		return
	}
	c.slow[key] = NewResource(fmt.Sprintf("slow:%d->%d", src, dst), bandwidth)
}

// BreakLink severs the directed pair src→dst. In-flight transfers on the pair
// surface broken completions after the retry timeout; new transfers break
// immediately after it.
func (c *Cluster) BreakLink(src, dst NodeID) {
	c.broken[[2]NodeID{src, dst}] = true
	c.breakMatching(func(fl *Flow) bool { return fl.src == src && fl.dst == dst })
}

// RestoreLink heals the directed pair src→dst after BreakLink: transfers
// started after the call route normally again. Transfers broken while the
// link was down stay broken — the retry timeout already fired or is armed —
// so healing re-admits new traffic without rewriting history, which is what a
// transient partition looks like to the endpoints.
func (c *Cluster) RestoreLink(src, dst NodeID) {
	delete(c.broken, [2]NodeID{src, dst})
}

// FailNode takes a host down: every transfer to or from it breaks.
func (c *Cluster) FailNode(id NodeID) {
	c.nodes[id].down = true
	c.breakMatching(func(fl *Flow) bool { return fl.src == id || fl.dst == id })
}

// RestoreNode brings a failed host back: new transfers to and from it are
// admitted again. Links broken individually with BreakLink stay broken until
// their own RestoreLink. Higher layers decide what a restored node means —
// the cluster only reopens the paths.
func (c *Cluster) RestoreNode(id NodeID) {
	c.nodes[id].down = false
}

// NodeFailed reports whether the host was failed.
func (c *Cluster) NodeFailed(id NodeID) bool { return c.nodes[id].down }

// breakMatching cancels the matching transfers on the fabric, in flow id
// order so that a seed fixes the order their broken completions surface in,
// and arms each one's retry timeout. Each cancelled flow frees its lane, and
// the frames waiting there break behind it.
func (c *Cluster) breakMatching(match func(*Flow) bool) {
	// Collect first: Cancel may compact the registry being walked.
	var doomed []*Flow
	for _, fl := range c.fabric.allFlows {
		if !fl.finished && match(fl) {
			doomed = append(doomed, fl)
		}
	}
	for _, fl := range doomed {
		c.fabric.Cancel(fl)
		done := fl.onOutcome
		c.sim.after(c.cfg.RetryTimeout, func() { done(OutcomeBroken) })
		c.release(fl.lane)
	}
}

func (c *Cluster) pairBroken(src, dst NodeID) bool {
	return c.broken[[2]NodeID{src, dst}] || c.nodes[src].down || c.nodes[dst].down
}

// Transfer moves size bytes from src to dst with break semantics: onDone
// fires at arrival time with broken=false, or after the retry timeout with
// broken=true if the path failed. On a lossy fabric a dropped frame also
// surfaces broken=true — the NIC's retries cannot recover on a fabric
// modelled without them, which is exactly RDMC's inherited RC behavior when
// the lossless assumption is violated. Loss-tolerant transports use
// TransferFrame (wan.go) instead, which distinguishes one lost frame from a
// severed connection. Self-transfers complete after the control latency
// without consuming fabric capacity.
func (c *Cluster) Transfer(src, dst NodeID, size float64, onDone func(broken bool)) {
	c.TransferOn(nil, src, dst, size, onDone)
}

// TransferOn is Transfer for a frame sent on a serial lane (see Lane).
func (c *Cluster) TransferOn(l *Lane, src, dst NodeID, size float64, onDone func(broken bool)) {
	c.frame(l, src, dst, size, false, func(o Outcome) { onDone(o == OutcomeBroken) })
}

// Ctrl delivers a small control message (latency only, no bandwidth cost).
// Frames on broken paths are silently dropped — the path swallows every
// datagram until it heals — and on a lossy fabric each datagram is dropped
// independently with the profile's CtrlLossRate (default 0: control traffic
// rides the reliable bootstrap mesh, not the lossy bulk path). Both drops
// route through the same frameFate decision point as bulk transfers, so
// "broken" and "lossy" are the same two states everywhere in the cluster.
func (c *Cluster) Ctrl(src, dst NodeID, onDeliver func()) {
	if c.frameFate(src, dst, c.ctrlLoss(src, dst)) != OutcomeDelivered {
		return
	}
	c.sim.after(c.pathLatency(src, dst), onDeliver)
}

// Racks returns the number of TOR trunks (zero under full bisection).
func (c *Cluster) Racks() int {
	if c.cfg.RackSize <= 0 {
		return 0
	}
	return (c.cfg.Nodes + c.cfg.RackSize - 1) / c.cfg.RackSize
}

// TrunkFlows returns the number of flows currently crossing the rack's
// uplink and downlink. Panics if the topology is flat; guard with Racks.
func (c *Cluster) TrunkFlows(rack int) (up, down int) {
	n := c.nodes[rack*c.cfg.RackSize]
	return n.rackUp.ActiveFlows(), n.rackDown.ActiveFlows()
}

// TrunkPressure returns the demand/capacity ratio of the rack's trunk in
// each direction: active flows × per-flow NIC capacity ÷ trunk capacity.
// Under the fabric's max-min allocation a used trunk always runs at its
// capacity, so achieved rate says nothing about contention — demand does.
// Values above 1 mean flows through the trunk are trunk-limited rather than
// NIC-limited. Panics if the topology is flat; guard with Racks.
func (c *Cluster) TrunkPressure(rack int) (up, down float64) {
	u, d := c.TrunkFlows(rack)
	scale := c.cfg.LinkBandwidth / c.cfg.TrunkBandwidth
	return float64(u) * scale, float64(d) * scale
}

// NodePortFlows returns the number of flows currently using the node's NIC
// transmit and receive ports.
func (c *Cluster) NodePortFlows(id NodeID) (tx, rx int) {
	n := c.nodes[id]
	return n.tx.ActiveFlows(), n.rx.ActiveFlows()
}

// route appends the resources a src→dst transfer crosses to path.
func (c *Cluster) route(path []*Resource, src, dst NodeID) []*Resource {
	s, d := c.nodes[src], c.nodes[dst]
	path = append(path, s.tx)
	if extra, ok := c.slow[[2]NodeID{src, dst}]; ok {
		path = append(path, extra)
	}
	if c.cfg.RackSize > 0 && s.rack != d.rack {
		path = append(path, s.rackUp, d.rackDown)
	}
	path = append(path, d.rx)
	return path
}
