package scenario

import "fmt"

// Canonical byte sizes used by the canned configs.
const (
	kib = 1 << 10
	mib = 1 << 20
)

// Chaos-calibrated defaults shared by the failover scenarios (the values
// internal/chaos has always used).
const (
	failoverMessages = 10
	failoverMsgBytes = 16 * kib
	failoverBlock    = 4 * kib
	failoverEpilogue = 2
)

// Roster returns the fixed member list [0, 1, ..., n-1].
func Roster(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Cosmos is the paper's Figure 9 workload. The paper replays "a trace
// sampled from the data replication layer of Microsoft's Cosmos system";
// the trace is proprietary, so this config matches every statistic the
// paper publishes about it: node 0 replicates objects to 3 random replicas
// out of a 15-node pool (all 455 groups pre-created), 4 writes outstanding,
// with log-normal sizes of median 12 MiB and mean 29 MiB clamped to
// [256 B, 512 MiB] ("hundreds of bytes to hundreds of MB").
func Cosmos() Config {
	return Config{
		Name:    "cosmos",
		Seed:    42,
		Nodes:   16,
		Writes:  3000,
		Arrival: Arrival{Kind: ArrivalClosed, Concurrency: 4},
		Sizes:   SizeConfig{Kind: SizeLognormal, MedianBytes: 12 * mib, MeanBytes: 29 * mib},
		Groups:  GroupConfig{Kind: GroupKofN, K: 3, N: 15, Base: 1, Root: []int{0}},
		Replay: Replay{
			Cluster:     "fractus",
			BlockBytes:  mib,
			Algorithms:  []string{"sequential send", "binomial tree", "binomial pipeline"},
			QuickWrites: 300,
		},
	}
}

// Fig8 is Figure 8's workload at one sweep point: a single 256 MB object
// replicated to all n nodes on the Sierra model, sequential send versus
// binomial pipeline.
func Fig8(n int) Config {
	return Config{
		Name:    fmt.Sprintf("fig8-%d", n),
		Seed:    1,
		Nodes:   n,
		Writes:  1,
		Arrival: Arrival{Kind: ArrivalClosed, Concurrency: 1},
		Sizes:   SizeConfig{Kind: SizeFixed, Bytes: 256 * mib},
		Groups:  GroupConfig{Kind: GroupRoster, Members: Roster(n)},
		Replay: Replay{
			Cluster:    "sierra",
			BlockBytes: mib,
			Algorithms: []string{"sequential send", "binomial pipeline"},
			SendWindow: 1,
			RecvWindow: 1,
		},
	}
}

// SmallMessages is the §4.6 RDMC side of the SMC comparison: count
// messages of size bytes burst onto one n-member group on Fractus.
func SmallMessages(n, size, count int) Config {
	block := 16 * kib
	if size > block {
		block = mib
	}
	return Config{
		Name:    fmt.Sprintf("smc-%d-%d", n, size),
		Seed:    1,
		Nodes:   n,
		Writes:  count,
		Arrival: Arrival{Kind: ArrivalClosed, Concurrency: count},
		Sizes:   SizeConfig{Kind: SizeFixed, Bytes: size},
		Groups:  GroupConfig{Kind: GroupRoster, Members: Roster(n)},
		Replay: Replay{
			Cluster:    "fractus",
			BlockBytes: block,
			Algorithms: []string{"binomial pipeline"},
			SendWindow: 1,
			RecvWindow: 1,
		},
	}
}

// failover is the chaos harness's paced 10-message session workload with a
// declarative fault schedule. A zero paced spacing means "calibrate from a
// fault-free rehearsal", exactly as the chaos scenarios always have.
func failover(name string, n int, seed int64, faults []Fault) Config {
	return Config{
		Name:     name,
		Seed:     seed,
		Nodes:    n,
		Writes:   failoverMessages,
		Arrival:  Arrival{Kind: ArrivalPaced},
		Sizes:    SizeConfig{Kind: SizeFixed, Bytes: failoverMsgBytes},
		Groups:   GroupConfig{Kind: GroupRoster, Members: Roster(n)},
		Faults:   faults,
		Epilogue: failoverEpilogue,
		Replay:   Replay{BlockBytes: failoverBlock},
	}
}

// FailoverCrashRelay crashes a mid-tree relay at 50% of the transfer.
func FailoverCrashRelay(n int, seed int64) Config {
	return failover("crash-relay", n, seed,
		[]Fault{{Kind: FaultCrash, AtFraction: 0.5, Node: n / 2}})
}

// FailoverCrashRoot crashes the sender at 50% of the transfer.
func FailoverCrashRoot(n int, seed int64) Config {
	return failover("crash-root", n, seed,
		[]Fault{{Kind: FaultCrash, AtFraction: 0.5, Node: 0}})
}

// FailoverPartition cuts the last rack off at 50% of the transfer and
// heals the links one baseline-runtime later.
func FailoverPartition(n int, seed int64) Config {
	rack := 1
	if n >= 4 {
		rack = n / 4
	}
	return failover("partition", n, seed,
		[]Fault{{Kind: FaultPartition, AtFraction: 0.5, RackSize: rack, HealAfterFraction: 1.0}})
}

// FailoverSuite is the standard chaos suite for one cluster size — the
// same three schedules internal/chaos has always run, as declarative
// configs.
func FailoverSuite(n int, seed int64) []Config {
	return []Config{
		FailoverCrashRelay(n, seed),
		FailoverCrashRoot(n, seed+1),
		FailoverPartition(n, seed+2),
	}
}

// MixedTenants is a workload no single paper figure covers: a bulk
// replication tenant (log-normal multi-MB objects to 3 random replicas)
// sharing the fabric with a chatty metadata tenant (16 KiB writes to 2
// random replicas, 3× the arrival share), driven by an open Poisson
// process.
func MixedTenants() Config {
	return Config{
		Name:    "mixed-tenants",
		Seed:    7,
		Nodes:   16,
		Writes:  200,
		Arrival: Arrival{Kind: ArrivalPoisson, RatePerSec: 2000},
		Sizes:   SizeConfig{Kind: SizeLognormal, MedianBytes: 4 * mib, MeanBytes: 8 * mib},
		Groups:  GroupConfig{Kind: GroupKofN, K: 3, N: 15, Base: 1, Root: []int{0}},
		Tenants: []Tenant{
			{Name: "bulk", Weight: 1, QoSWeight: 1},
			{
				Name:      "meta",
				Weight:    3,
				QoSWeight: 3,
				Sizes:     &SizeConfig{Kind: SizeFixed, Bytes: 16 * kib},
				Groups:    &GroupConfig{Kind: GroupKofN, K: 2, N: 15, Base: 1, Root: []int{0}},
			},
		},
		Replay: Replay{
			Cluster:     "fractus",
			BlockBytes:  64 * kib,
			Algorithms:  []string{"binomial pipeline"},
			QuickWrites: 120,
		},
	}
}

// MixedTenantsQoS is MixedTenants with the per-node weighted-fair send
// throttle turned on: every node's groups share a 256 KiB in-flight budget,
// drained 3:1 in favor of the chatty metadata tenant. Same seed, so the
// compiled stream is byte-identical to mixed-tenants — only the replay
// contends through the service layer's QoS path.
func MixedTenantsQoS() Config {
	cfg := MixedTenants()
	cfg.Name = "mixed-tenants-qos"
	cfg.Replay.ThrottleBytes = 256 * kib
	return cfg
}

// Churn is a membership-churn schedule: a 5-node roster hands off to an
// overlapping replacement roster mid-run, then degenerates into random
// 3-of-8 groups — paced arrivals so the handoff lands at a fixed virtual
// time.
func Churn() Config {
	return Config{
		Name:    "churn",
		Seed:    11,
		Nodes:   8,
		Writes:  60,
		Arrival: Arrival{Kind: ArrivalPaced, SpacingSec: 200e-6},
		Sizes:   SizeConfig{Kind: SizeFixed, Bytes: 64 * kib},
		Groups: GroupConfig{
			Kind: GroupChurn,
			Phases: []GroupPhase{
				{Writes: 20, Model: GroupConfig{Kind: GroupRoster, Members: []int{0, 1, 2, 3, 4}}},
				{Writes: 20, Model: GroupConfig{Kind: GroupRoster, Members: []int{0, 1, 5, 6, 7}}},
				{Model: GroupConfig{Kind: GroupKofN, K: 3, N: 7, Base: 1, Root: []int{0}}},
			},
		},
		Replay: Replay{
			Cluster:    "fractus",
			BlockBytes: 16 * kib,
			Algorithms: []string{"binomial pipeline"},
		},
	}
}

// AdaptiveCrossTraffic pits every schedule family against foreign traffic
// on a three-rack Apt slice: the group spans racks 0–2, while rack 1's four
// spare NICs blast 24 looping streams at rack 3, saturating rack 1's TOR
// uplink for the first virtual second. The first write issues before the
// foreign flows are on the fabric (the adaptive planner sees a clean signal
// and runs the plain hybrid schedule); the remaining writes issue under
// saturation and get the sheltered plan, so the per-write latency spread
// inside the adaptive row is itself the adaptation signal.
func AdaptiveCrossTraffic() Config {
	group := make([]int, 0, 16)
	group = append(group, Roster(8)...)
	for i := 8; i < 12; i++ {
		group = append(group, i)
	}
	for i := 16; i < 20; i++ {
		group = append(group, i)
	}
	cross := make([]CrossFlow, 0, 6)
	for i := 0; i < 6; i++ {
		cross = append(cross, CrossFlow{
			From:    12 + i%4,
			To:      24 + i,
			Streams: 4,
			StopSec: 1.0,
		})
	}
	return Config{
		Name:         "adaptive-crosstraffic",
		Seed:         3,
		Nodes:        32,
		Writes:       4,
		Arrival:      Arrival{Kind: ArrivalClosed, Concurrency: 1},
		Sizes:        SizeConfig{Kind: SizeFixed, Bytes: 64 * mib},
		Groups:       GroupConfig{Kind: GroupRoster, Members: group},
		CrossTraffic: cross,
		Replay: Replay{
			Cluster:    "apt",
			BlockBytes: mib,
			Algorithms: []string{"chain send", "binomial pipeline", "hybrid", "adaptive"},
			SendWindow: 1,
			RecvWindow: 1,
		},
	}
}

// WANLossy is the planetary-scale workload: a 6-node group spanning three
// regions with real inter-region RTTs and 0.2% per-frame loss on the
// long-haul paths, replayed through the selective-retransmit layer with XOR
// parity. The datacenter engine is untouched — the fabric stanza is what
// turns the lossless Fractus model into a WAN, and the reliability layer is
// what keeps a lossy replay from breaking queue pairs.
func WANLossy() Config {
	return Config{
		Name:    "wan-lossy",
		Seed:    19,
		Nodes:   6,
		Writes:  12,
		Arrival: Arrival{Kind: ArrivalClosed, Concurrency: 2},
		Sizes:   SizeConfig{Kind: SizeFixed, Bytes: 4 * mib},
		Groups:  GroupConfig{Kind: GroupRoster, Members: Roster(6)},
		Replay: Replay{
			Cluster:    "fractus",
			BlockBytes: 64 * kib,
			Algorithms: []string{"binomial pipeline"},
			SendWindow: 8,
			RecvWindow: 8,
			Fabric: &Fabric{
				Regions: []int{0, 0, 1, 1, 2, 2},
				RTTMs: [][]float64{
					{0.2, 30, 80},
					{30, 0.2, 50},
					{80, 50, 0.2},
				},
				LossRate: 0.002,
				Reliab:   true,
				FECGroup: 8,
				RTOMs:    200,
			},
		},
	}
}

// LibraryNames lists the shipped scenario configs in presentation order.
func LibraryNames() []string {
	return []string{"cosmos", "fig8", "smc", "failover-crash-root", "mixed-tenants", "mixed-tenants-qos", "churn", "adaptive-crosstraffic", "wan-lossy"}
}

// Library returns the shipped scenario configs by name — the set the
// scenarios/ directory mirrors, the determinism tests double-run, and the
// golden harness pins.
func Library() map[string]Config {
	fig8 := Fig8(32)
	fig8.Name = "fig8"
	smc := SmallMessages(16, 10*kib, 120)
	smc.Name = "smc"
	fo := FailoverCrashRoot(8, 2)
	fo.Name = "failover-crash-root"
	return map[string]Config{
		"cosmos":                Cosmos(),
		"fig8":                  fig8,
		"smc":                   smc,
		"failover-crash-root":   fo,
		"mixed-tenants":         MixedTenants(),
		"mixed-tenants-qos":     MixedTenantsQoS(),
		"churn":                 Churn(),
		"adaptive-crosstraffic": AdaptiveCrossTraffic(),
		"wan-lossy":             WANLossy(),
	}
}
