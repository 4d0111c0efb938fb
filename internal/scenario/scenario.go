// Package scenario is the workload DSL: a declarative, seed-deterministic
// description of a replication workload — arrival process, object-size
// distribution, group-membership model, tenant mix, and failure schedule —
// compiled into a replayable event stream.
//
// A Config is plain data (JSON-serializable); Compile turns it into the
// exact sequence of write events a replayer issues. Determinism is the
// package contract: the same Config and Seed always compile to a
// byte-identical stream, on every platform, because every random draw comes
// from one math/rand.Rand in a fixed per-event order (arrival, tenant,
// size, group). The bench harness replays streams on the simulated fabric,
// the chaos harness consumes the failure schedule, and the golden harness
// pins both the stream and the resulting experiment rows.
//
// The paper's Figure 9 workload, a replay of a proprietary Cosmos trace, is
// one canned Config calibrated to the trace's published statistics (see
// Cosmos).
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Arrival kinds.
const (
	// ArrivalClosed issues the next write when an outstanding slot frees
	// (closed loop with Concurrency outstanding writes).
	ArrivalClosed = "closed"
	// ArrivalPoisson issues writes at exponentially distributed intervals
	// (open loop at RatePerSec).
	ArrivalPoisson = "poisson"
	// ArrivalPaced issues write i at virtual time i·SpacingSec. A zero
	// spacing submits everything up front (a burst); the chaos harness
	// treats zero as "calibrate from a rehearsal", as its scenarios do.
	ArrivalPaced = "paced"
)

// Arrival selects the arrival process.
type Arrival struct {
	Kind string `json:"kind"`
	// Concurrency bounds outstanding writes (ArrivalClosed). Zero selects 1.
	Concurrency int `json:"concurrency,omitempty"`
	// RatePerSec is the open-loop arrival rate (ArrivalPoisson).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// SpacingSec is the fixed inter-arrival gap (ArrivalPaced).
	SpacingSec float64 `json:"spacing_sec,omitempty"`
}

// Size kinds.
const (
	// SizeFixed draws the same size every time.
	SizeFixed = "fixed"
	// SizeLognormal draws from the log-normal the paper calibrates to the
	// Cosmos trace statistics (median/mean parameterization).
	SizeLognormal = "lognormal"
	// SizeBuckets draws from an empirical weighted bucket list.
	SizeBuckets = "buckets"
)

// SizeBucket is one empirical size point with a relative weight.
type SizeBucket struct {
	Bytes  int     `json:"bytes"`
	Weight float64 `json:"weight"`
}

// SizeConfig selects the object-size distribution.
type SizeConfig struct {
	Kind string `json:"kind"`
	// Bytes is the fixed size (SizeFixed).
	Bytes int `json:"bytes,omitempty"`
	// MedianBytes and MeanBytes shape the log-normal (SizeLognormal):
	// median = e^µ, mean = e^(µ+σ²/2).
	MedianBytes float64 `json:"median_bytes,omitempty"`
	MeanBytes   float64 `json:"mean_bytes,omitempty"`
	// MinBytes and MaxBytes clamp log-normal draws. Zero selects 256 B and
	// 512 MiB, the trace defaults.
	MinBytes int `json:"min_bytes,omitempty"`
	MaxBytes int `json:"max_bytes,omitempty"`
	// Buckets is the empirical distribution (SizeBuckets).
	Buckets []SizeBucket `json:"buckets,omitempty"`
}

// Group kinds.
const (
	// GroupRoster uses the same fixed member list for every write.
	GroupRoster = "roster"
	// GroupKofN draws K distinct members from the pool [0, N) per write —
	// overlapping random groups, the Cosmos pattern.
	GroupKofN = "kofn"
	// GroupChurn switches between models on a write-count schedule.
	GroupChurn = "churn"
)

// GroupPhase is one step of a churn schedule.
type GroupPhase struct {
	// Writes is how many writes this phase covers; zero means "the rest".
	Writes int `json:"writes,omitempty"`
	// Model is the membership model active during the phase.
	Model GroupConfig `json:"model"`
}

// GroupConfig selects the group-membership model. Member indices are node
// ids in [0, Config.Nodes).
type GroupConfig struct {
	Kind string `json:"kind"`
	// Members is the fixed roster (GroupRoster); Members[0] is the root.
	Members []int `json:"members,omitempty"`
	// K distinct members are drawn from the pool [0, N) (GroupKofN).
	K int `json:"k,omitempty"`
	N int `json:"n,omitempty"`
	// Base is added to every drawn pool index, mapping pool slots to node
	// ids (the Cosmos replay maps pool 0..14 to nodes 1..15 with Base 1).
	Base int `json:"base,omitempty"`
	// Root is prepended to every drawn group — the fixed sender(s), e.g.
	// the Cosmos generator node. Root[0] is the root when present;
	// otherwise the lowest drawn member is.
	Root []int `json:"root,omitempty"`
	// Phases is the churn schedule (GroupChurn).
	Phases []GroupPhase `json:"phases,omitempty"`
}

// Tenant is one workload class in a mixed-tenant scenario. A write picks
// its tenant by Weight, then draws from the tenant's size and group models
// (nil models inherit the scenario-level ones).
type Tenant struct {
	Name   string       `json:"name"`
	Weight float64      `json:"weight"`
	Sizes  *SizeConfig  `json:"sizes,omitempty"`
	Groups *GroupConfig `json:"groups,omitempty"`
	// QoSWeight is the tenant's weighted-fair share of each node's send
	// budget when the replay throttles (Replay.ThrottleBytes > 0); zero
	// selects 1. Replay-only: Compile never reads it, so adding a QoS
	// weight to an existing scenario leaves its stream byte-identical.
	QoSWeight int `json:"qos_weight,omitempty"`
}

// Fault kinds (the chaos harness executes these; see internal/chaos).
const (
	// FaultCrash fails one node.
	FaultCrash = "crash"
	// FaultPartition cuts the last RackSize nodes off from the rest.
	FaultPartition = "partition"
)

// Fault is one declarative failure event, scheduled as a fraction of the
// fault-free baseline runtime (the chaos harness calibrates the baseline
// with a rehearsal run).
type Fault struct {
	Kind string `json:"kind"`
	// AtFraction fires the fault at this fraction of the baseline runtime.
	AtFraction float64 `json:"at_fraction"`
	// Node is the crashed node (FaultCrash).
	Node int `json:"node,omitempty"`
	// RackSize is the partitioned tail size (FaultPartition).
	RackSize int `json:"rack_size,omitempty"`
	// HealAfterFraction, when positive, restores partitioned links this
	// fraction of the baseline runtime after the cut.
	HealAfterFraction float64 `json:"heal_after_fraction,omitempty"`
}

// CrossFlow is one foreign bulk-traffic source: Streams looping transfers
// from one node to another, each re-issuing Chunk-sized transfers back to
// back from StartSec until the virtual clock passes StopSec. The flows ride
// the replay fabric's fluid model, so they contend with the multicast for
// NIC ports and TOR trunks exactly as a co-located tenant would — the
// workload the adaptive schedule exists to route around.
type CrossFlow struct {
	From int `json:"from"`
	To   int `json:"to"`
	// Streams is how many parallel looping streams to run (default 1).
	Streams int `json:"streams,omitempty"`
	// ChunkBytes is the per-transfer size (default 8 MiB).
	ChunkBytes int `json:"chunk_bytes,omitempty"`
	// StartSec and StopSec bound the traffic in virtual time. StopSec is
	// required: an unbounded stream would keep the event loop alive forever.
	StartSec float64 `json:"start_sec,omitempty"`
	StopSec  float64 `json:"stop_sec"`
}

// Fabric overlays a lossy WAN path model on the replay cluster: a
// per-region RTT matrix replacing the model's uniform latency, seeded
// per-frame loss on cross-region paths, and bounded reordering (the replay
// builds a simnet.FabricProfile from it). Any loss or reordering requires
// Reliab — the bare engine rides break-on-loss queue pairs, so the first
// drop would fail the group. Replay-only: the compiled stream is
// byte-identical with or without a fabric stanza.
type Fabric struct {
	// Seed fixes the loss and reorder draws; zero derives it from the
	// scenario seed.
	Seed int64 `json:"seed,omitempty"`
	// Regions assigns node i to region Regions[i]; empty places every node
	// in region 0. When present it must cover all Nodes.
	Regions []int `json:"regions,omitempty"`
	// RTTMs is the square region-by-region round-trip matrix in
	// milliseconds; the diagonal holds the intra-region RTT. Empty keeps the
	// cluster model's uniform latency.
	RTTMs [][]float64 `json:"rtt_ms,omitempty"`
	// LossRate is the per-frame drop probability on cross-region paths,
	// in [0,1).
	LossRate float64 `json:"loss_rate,omitempty"`
	// ReorderRate is the probability a frame is held back long enough for
	// later frames to overtake it, in [0,1).
	ReorderRate float64 `json:"reorder_rate,omitempty"`
	// Reliab wraps every node's NIC in the selective-retransmit
	// reliability layer, absorbing loss and reordering as retransmissions.
	Reliab bool `json:"reliab,omitempty"`
	// FECGroup, when positive, adds one XOR parity frame per FECGroup data
	// frames so single losses repair without a retransmission. Requires
	// Reliab.
	FECGroup int `json:"fec_group,omitempty"`
	// RTOMs is the reliability layer's initial retransmission timeout in
	// milliseconds; zero keeps the layer default. Requires Reliab.
	RTOMs float64 `json:"rto_ms,omitempty"`
}

// Replay tells the bench CLI how to run the scenario: which cluster model,
// block size, schedule algorithms, and windows. It shapes the replay, not
// the compiled stream.
type Replay struct {
	// Cluster names the hardware model: "fractus" (default), "sierra",
	// "stampede", or "apt".
	Cluster string `json:"cluster,omitempty"`
	// BlockBytes is the RDMC block size. Zero selects 1 MiB.
	BlockBytes int `json:"block_bytes,omitempty"`
	// Algorithms lists schedule algorithms by name ("sequential send",
	// "binomial pipeline", ...). Empty selects the binomial pipeline.
	Algorithms []string `json:"algorithms,omitempty"`
	// SendWindow and RecvWindow pin the data-plane windows; zero keeps the
	// engine default (the paper experiments pin 1 on the fluid model).
	SendWindow int `json:"send_window,omitempty"`
	RecvWindow int `json:"recv_window,omitempty"`
	// QuickWrites caps Writes at quick scale; zero keeps Writes.
	QuickWrites int `json:"quick_writes,omitempty"`
	// ThrottleBytes, for mixed-tenant scenarios, is each node's send
	// budget: how many bytes of block payload all its groups together may
	// hold in flight, drained weighted-fair across tenants by QoSWeight.
	// Zero replays unthrottled. Replay-only: the compiled stream is
	// identical either way.
	ThrottleBytes int `json:"throttle_bytes,omitempty"`
	// Fabric, when non-nil, overlays the lossy WAN path model on the
	// cluster; nil replays on the model's lossless datacenter fabric.
	Fabric *Fabric `json:"fabric,omitempty"`
}

// Config is one complete scenario. The zero-value subfields select the
// documented defaults; Validate reports anything unusable.
type Config struct {
	// Name identifies the scenario in reports and golden files.
	Name string `json:"name"`
	// Seed fixes every random draw.
	Seed int64 `json:"seed"`
	// Nodes is the cluster size the stream's member indices address.
	Nodes int `json:"nodes"`
	// Writes is the stream length.
	Writes int `json:"writes"`

	Arrival Arrival     `json:"arrival"`
	Sizes   SizeConfig  `json:"sizes"`
	Groups  GroupConfig `json:"groups"`
	// Tenants, when non-empty, mixes workload classes; Sizes/Groups above
	// become the defaults tenants inherit.
	Tenants []Tenant `json:"tenants,omitempty"`
	// Faults is the failure schedule (executed by the chaos harness).
	Faults []Fault `json:"faults,omitempty"`
	// Epilogue is how many liveness messages the surviving root publishes
	// after recovery (fault scenarios only).
	Epilogue int `json:"epilogue,omitempty"`
	// CrossTraffic runs foreign bulk flows alongside the stream, contending
	// with the multicast on the replay fabric.
	CrossTraffic []CrossFlow `json:"cross_traffic,omitempty"`

	Replay Replay `json:"replay,omitempty"`
}

// Validate reports the first problem that would make the scenario
// uncompilable or unreplayable.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if c.Nodes <= 0 {
		return fmt.Errorf("scenario %s: nodes must be positive, got %d", c.Name, c.Nodes)
	}
	if c.Writes <= 0 {
		return fmt.Errorf("scenario %s: writes must be positive, got %d", c.Name, c.Writes)
	}
	switch c.Arrival.Kind {
	case ArrivalClosed, ArrivalPaced:
	case ArrivalPoisson:
		if c.Arrival.RatePerSec <= 0 {
			return fmt.Errorf("scenario %s: poisson arrival needs rate_per_sec > 0", c.Name)
		}
	default:
		return fmt.Errorf("scenario %s: unknown arrival kind %q", c.Name, c.Arrival.Kind)
	}
	if len(c.Tenants) == 0 {
		if err := c.validateModels(c.Sizes, c.Groups); err != nil {
			return err
		}
	}
	if c.Replay.ThrottleBytes < 0 {
		return fmt.Errorf("scenario %s: throttle_bytes must be non-negative, got %d", c.Name, c.Replay.ThrottleBytes)
	}
	if err := c.validateFabric(); err != nil {
		return err
	}
	for _, t := range c.Tenants {
		if t.Name == "" {
			return fmt.Errorf("scenario %s: tenant missing name", c.Name)
		}
		if t.Weight <= 0 {
			return fmt.Errorf("scenario %s: tenant %s weight must be positive", c.Name, t.Name)
		}
		if t.QoSWeight < 0 {
			return fmt.Errorf("scenario %s: tenant %s qos_weight must be non-negative, got %d", c.Name, t.Name, t.QoSWeight)
		}
		sizes, groups := c.Sizes, c.Groups
		if t.Sizes != nil {
			sizes = *t.Sizes
		}
		if t.Groups != nil {
			groups = *t.Groups
		}
		if err := c.validateModels(sizes, groups); err != nil {
			return fmt.Errorf("tenant %s: %w", t.Name, err)
		}
	}
	for i, f := range c.Faults {
		switch f.Kind {
		case FaultCrash:
			if f.Node < 0 || f.Node >= c.Nodes {
				return fmt.Errorf("scenario %s: fault %d crashes node %d outside [0,%d)", c.Name, i, f.Node, c.Nodes)
			}
		case FaultPartition:
			if f.RackSize <= 0 || f.RackSize >= c.Nodes {
				return fmt.Errorf("scenario %s: fault %d partitions %d of %d nodes", c.Name, i, f.RackSize, c.Nodes)
			}
		default:
			return fmt.Errorf("scenario %s: unknown fault kind %q", c.Name, f.Kind)
		}
		if f.AtFraction <= 0 {
			return fmt.Errorf("scenario %s: fault %d fires at fraction %g, want > 0", c.Name, i, f.AtFraction)
		}
	}
	for i, ct := range c.CrossTraffic {
		if ct.From < 0 || ct.From >= c.Nodes || ct.To < 0 || ct.To >= c.Nodes {
			return fmt.Errorf("scenario %s: cross flow %d endpoints %d->%d outside [0,%d)", c.Name, i, ct.From, ct.To, c.Nodes)
		}
		if ct.From == ct.To {
			return fmt.Errorf("scenario %s: cross flow %d loops node %d onto itself", c.Name, i, ct.From)
		}
		if ct.Streams < 0 {
			return fmt.Errorf("scenario %s: cross flow %d streams must be non-negative, got %d", c.Name, i, ct.Streams)
		}
		if ct.ChunkBytes < 0 {
			return fmt.Errorf("scenario %s: cross flow %d chunk_bytes must be non-negative, got %d", c.Name, i, ct.ChunkBytes)
		}
		if ct.StartSec < 0 {
			return fmt.Errorf("scenario %s: cross flow %d start_sec must be non-negative, got %g", c.Name, i, ct.StartSec)
		}
		if ct.StopSec <= ct.StartSec {
			return fmt.Errorf("scenario %s: cross flow %d needs stop_sec > start_sec to terminate", c.Name, i)
		}
	}
	return nil
}

// validateFabric checks the replay's WAN overlay: rates in range, a
// region assignment that covers every node, a square non-negative RTT
// matrix covering every assigned region, and the reliability layer wherever
// the fabric can actually drop or reorder a frame — a lossy replay without
// it would break queue pairs, not test loss tolerance.
func (c Config) validateFabric() error {
	f := c.Replay.Fabric
	if f == nil {
		return nil
	}
	if f.LossRate < 0 || f.LossRate >= 1 {
		return fmt.Errorf("scenario %s: fabric loss_rate %g outside [0,1)", c.Name, f.LossRate)
	}
	if f.ReorderRate < 0 || f.ReorderRate >= 1 {
		return fmt.Errorf("scenario %s: fabric reorder_rate %g outside [0,1)", c.Name, f.ReorderRate)
	}
	if len(f.Regions) > 0 && len(f.Regions) != c.Nodes {
		return fmt.Errorf("scenario %s: fabric regions assigns %d of %d nodes", c.Name, len(f.Regions), c.Nodes)
	}
	maxRegion := 0
	for i, r := range f.Regions {
		if r < 0 {
			return fmt.Errorf("scenario %s: fabric node %d has negative region %d", c.Name, i, r)
		}
		if r > maxRegion {
			maxRegion = r
		}
	}
	if len(f.RTTMs) > 0 {
		if len(f.RTTMs) <= maxRegion {
			return fmt.Errorf("scenario %s: fabric rtt_ms covers %d regions, nodes use %d", c.Name, len(f.RTTMs), maxRegion+1)
		}
		for a, row := range f.RTTMs {
			if len(row) != len(f.RTTMs) {
				return fmt.Errorf("scenario %s: fabric rtt_ms row %d has %d cells, want %d", c.Name, a, len(row), len(f.RTTMs))
			}
			for b, rtt := range row {
				if rtt < 0 {
					return fmt.Errorf("scenario %s: fabric rtt_ms[%d][%d] is negative", c.Name, a, b)
				}
			}
		}
	}
	if (f.LossRate > 0 || f.ReorderRate > 0) && !f.Reliab {
		return fmt.Errorf("scenario %s: fabric drops or reorders frames, which breaks bare queue pairs — set reliab: true", c.Name)
	}
	if f.FECGroup < 0 {
		return fmt.Errorf("scenario %s: fabric fec_group must be non-negative, got %d", c.Name, f.FECGroup)
	}
	if f.FECGroup > 0 && !f.Reliab {
		return fmt.Errorf("scenario %s: fabric fec_group needs the reliability layer — set reliab: true", c.Name)
	}
	if f.RTOMs < 0 {
		return fmt.Errorf("scenario %s: fabric rto_ms must be non-negative, got %g", c.Name, f.RTOMs)
	}
	if f.RTOMs > 0 && !f.Reliab {
		return fmt.Errorf("scenario %s: fabric rto_ms configures the reliability layer — set reliab: true", c.Name)
	}
	return nil
}

func (c Config) validateModels(sizes SizeConfig, groups GroupConfig) error {
	if _, err := NewSizeSampler(sizes); err != nil {
		return fmt.Errorf("scenario %s: %w", c.Name, err)
	}
	if _, err := NewGroupSampler(groups); err != nil {
		return fmt.Errorf("scenario %s: %w", c.Name, err)
	}
	return c.checkGroupRange(groups)
}

func (c Config) checkGroupRange(g GroupConfig) error {
	switch g.Kind {
	case GroupRoster:
		for _, m := range g.Members {
			if m < 0 || m >= c.Nodes {
				return fmt.Errorf("scenario %s: roster member %d outside [0,%d)", c.Name, m, c.Nodes)
			}
		}
	case GroupKofN:
		if hi := g.Base + g.N - 1; hi >= c.Nodes || g.Base < 0 {
			return fmt.Errorf("scenario %s: kofn pool [%d,%d] outside [0,%d)", c.Name, g.Base, hi, c.Nodes)
		}
		for _, r := range g.Root {
			if r < 0 || r >= c.Nodes {
				return fmt.Errorf("scenario %s: kofn root %d outside [0,%d)", c.Name, r, c.Nodes)
			}
		}
	case GroupChurn:
		for _, p := range g.Phases {
			if err := c.checkGroupRange(p.Model); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load reads and validates one scenario config. Unknown fields are errors,
// so a typo in a hand-written file fails loudly instead of silently
// selecting a default.
func Load(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// LoadFile reads and validates a scenario config file.
func LoadFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	cfg, err := Load(f)
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// Marshal renders the config as the canonical indented JSON the shipped
// scenario files use.
func (c Config) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario %s: marshal: %w", c.Name, err)
	}
	return append(data, '\n'), nil
}
