package schedule

import "fmt"

// This file implements the congestion- and topology-aware adaptive planner
// (ROADMAP item 2). The static generators fix the multicast shape at group
// creation; AdaptiveGen instead picks the shape — binomial pipeline vs chain
// vs hybrid — and the tree's routing per transfer from a measured contention
// signal, quantized into a small "contention bucket" (the mask below) so a
// noisy signal maps to a handful of distinct plans.
//
// The signal itself is sampled by the engine (internal/core) from the fabric
// (simnet's fluid model) and its own credit-stall counters; the planner here
// is pure: given the same mask every member builds the same plan, which is
// what lets the root decide once per transfer and disseminate the mask in
// the prepare message instead of every member sampling a racing signal.

// Contention is the compact link/rank contention signal the adaptive planner
// consumes. Trunk pressures are demand-over-capacity ratios: the number of
// flows crossing a TOR trunk times the per-NIC line rate, divided by the
// trunk capacity. Under max-min fairness a trunk's *rate* is pinned at
// capacity whenever anything crosses it, so rates carry no contention
// information — demand does. A pressure above 1 means the trunk is
// oversubscribed by the offered load and flows crossing it are being cut
// below NIC line rate.
type Contention struct {
	// TrunkUp and TrunkDown are per-rack trunk pressures, indexed by rack.
	// Empty on flat (full-bisection) fabrics.
	TrunkUp   []float64
	TrunkDown []float64
	// HostTx and HostRx are the worst per-NIC-port concurrent flow counts
	// across the cluster: 1 means every port carries at most one flow (the
	// multicast alone), higher values mean foreign flows are stealing port
	// bandwidth.
	HostTx float64
	HostRx float64
	// CreditStall is the fraction of send-pump attempts since the last
	// sample that blocked waiting for receiver credit — back-pressure the
	// engine observes directly, independent of the fabric model.
	CreditStall float64
}

// Mask bit assignments: bits 0..62 mark saturated racks; bit 63 marks a
// host-level (flat fabric) contention state with no rack attribution.
const (
	flatHotBit  = uint64(1) << 63
	maxMaskRack = 62
)

// Adaptive thresholds. A rack enters the saturated set at trunk pressure
// saturateAt and leaves below clearAt — the hysteresis band that keeps a
// flapping signal from churning plans. The multicast's own relaying keeps at
// most two concurrent flows per trunk direction, so on the Apt model its
// self-pressure stays well under 1; crossing saturateAt requires foreign
// traffic. A flat fabric counts as contended at hostBusyAt concurrent flows
// on one NIC port (above it the wide binomial pipeline loses to a chain,
// whose one-in/one-out discipline adds the least extra load per port) or at
// a credit-stall fraction of stallBusyAt, and clears below half of each.
// While the mask is non-zero the block size is multiplied by blockScale:
// per-flow bandwidth shrinks under contention, so larger blocks amortize the
// per-block control traffic over more bytes.
const (
	saturateAt  = 1.25
	clearAt     = 0.75
	hostBusyAt  = 3.0
	stallBusyAt = 0.5
	blockScale  = 2
)

// AdaptivePlanner is the engine-facing contract of an adaptive generator:
// besides the Generator interface it exposes the mask decision (with
// hysteresis against the previous mask), mask-conditioned planning, and the
// per-transfer block size. The engine's root samples the signal, decides the
// mask once per transfer, and ships it to every member in the prepare
// message; members plan from the shipped mask, never from their own sample,
// so all members of a transfer build identical plans by construction.
type AdaptivePlanner interface {
	Generator
	// DecideMask quantizes a contention sample into a plan-selection mask,
	// applying hysteresis against the previous mask.
	DecideMask(c Contention, prev uint64) uint64
	// MaskedNodePlan is NodePlan conditioned on a mask; mask 0 must equal
	// NodePlan exactly.
	MaskedNodePlan(nodes, blocks, rank int, mask uint64) NodePlan
	// AdaptiveBlockSize picks the per-transfer block size from the group's
	// configured base size and the transfer's mask.
	AdaptiveBlockSize(base int, mask uint64) int
}

// AdaptiveGen selects and shapes the multicast schedule per transfer from a
// contention mask:
//
//   - flat fabric, mask 0: the binomial pipeline (the paper's default);
//   - flat fabric, host-contended: the chain, which adds the least load per
//     NIC port when ports are already shared;
//   - rack topology, mask 0: exactly HybridGen's plan, so the uncontended
//     adaptive group is bit-identical to static hybrid;
//   - rack topology, saturated racks: a sheltered hybrid that routes leader
//     edges around the saturated TOR trunks — saturated racks' leaders are
//     demoted from the leader-level pipeline to leaf consumers fed by a
//     sponsor leader in an unsaturated rack, so no relay traffic transits a
//     saturated trunk more often than delivery strictly requires.
type AdaptiveGen struct {
	// RackOf maps each rank to its rack index (as HybridGen); nil selects
	// flat-fabric behavior. Rank 0 must be the lowest rank of its rack.
	RackOf []int
}

var _ Generator = AdaptiveGen{}
var _ AdaptivePlanner = AdaptiveGen{}

// Name implements Generator.
func (AdaptiveGen) Name() string { return "adaptive" }

// Plan implements Generator: the uncontended (mask 0) plan.
func (a AdaptiveGen) Plan(nodes, blocks int) Plan {
	return a.MaskedPlan(nodes, blocks, 0)
}

// NodePlan implements Generator: the uncontended (mask 0) rank plan.
func (a AdaptiveGen) NodePlan(nodes, blocks, rank int) NodePlan {
	return a.MaskedNodePlan(nodes, blocks, rank, 0)
}

// AdaptiveBlockSize implements AdaptivePlanner. Mask 0 returns base
// unchanged — the uncontended adaptive group must be indistinguishable from
// its static counterpart.
func (AdaptiveGen) AdaptiveBlockSize(base int, mask uint64) int {
	if mask == 0 || base <= 0 {
		return base
	}
	return base * blockScale
}

// DecideMask implements AdaptivePlanner. Racks enter the mask at saturateAt
// and leave below clearAt; the root's own rack is never masked (all traffic
// originates there — there is no route around it). On flat fabrics the mask
// is a single host-contention bit with the same two-threshold hysteresis.
func (a AdaptiveGen) DecideMask(c Contention, prev uint64) uint64 {
	if len(a.RackOf) == 0 {
		host := c.HostTx
		if c.HostRx > host {
			host = c.HostRx
		}
		hot := prev&flatHotBit != 0
		if host >= hostBusyAt || c.CreditStall >= stallBusyAt {
			hot = true
		} else if host < hostBusyAt/2 && c.CreditStall < stallBusyAt/2 {
			hot = false
		}
		if hot {
			return flatHotBit
		}
		return 0
	}
	rootRack := a.RackOf[0]
	var mask uint64
	for _, r := range a.RackOf {
		if r == rootRack || r < 0 || r > maxMaskRack {
			continue
		}
		bit := uint64(1) << uint(r)
		if mask&bit != 0 {
			continue
		}
		var up, down float64
		if r < len(c.TrunkUp) {
			up = c.TrunkUp[r]
		}
		if r < len(c.TrunkDown) {
			down = c.TrunkDown[r]
		}
		pressure := up
		if down > pressure {
			pressure = down
		}
		was := prev&bit != 0
		if pressure >= saturateAt || (was && pressure >= clearAt) {
			mask |= bit
		}
	}
	return mask
}

// effectiveMask strips bits the plan shape cannot act on: the flat-hot bit
// when rack topology is present, the root's rack, and racks outside the
// layout, so equivalent signals build one plan.
func (a AdaptiveGen) effectiveMask(mask uint64) uint64 {
	if len(a.RackOf) == 0 {
		return mask & flatHotBit
	}
	mask &^= flatHotBit
	var present uint64
	for _, r := range a.RackOf {
		if r >= 0 && r <= maxMaskRack {
			present |= uint64(1) << uint(r)
		}
	}
	mask &= present
	if rr := a.RackOf[0]; rr >= 0 && rr <= maxMaskRack {
		mask &^= uint64(1) << uint(rr)
	}
	return mask
}

func (a AdaptiveGen) checkTopo(nodes int) bool {
	if len(a.RackOf) == 0 {
		return false
	}
	if len(a.RackOf) != nodes {
		panic(fmt.Sprintf("schedule: RackOf covers %d ranks, plan needs %d", len(a.RackOf), nodes))
	}
	return true
}

// MaskedNodePlan implements AdaptivePlanner. Delegated shapes (mask 0, or
// the flat-fabric forms) use the underlying generators' NodePlan; a
// sheltered hybrid has no per-rank closed form, so the caller builds it and
// keeps its own transfers.
func (a AdaptiveGen) MaskedNodePlan(nodes, blocks, rank int, mask uint64) NodePlan {
	checkArgs(nodes, blocks)
	checkRank(nodes, rank)
	if !a.checkTopo(nodes) {
		if mask&flatHotBit != 0 {
			return chainGen{}.NodePlan(nodes, blocks, rank)
		}
		return BinomialPipelineGen{}.NodePlan(nodes, blocks, rank)
	}
	eff := a.effectiveMask(mask)
	if eff == 0 {
		return HybridGen{RackOf: a.RackOf}.NodePlan(nodes, blocks, rank)
	}
	return a.shelterPlan(nodes, blocks, eff).nodePlanOf(rank)
}

// MaskedPlan is the full-plan form of MaskedNodePlan: its PerNode()[rank]
// equals MaskedNodePlan(nodes, blocks, rank, mask) element for element.
func (a AdaptiveGen) MaskedPlan(nodes, blocks int, mask uint64) Plan {
	checkArgs(nodes, blocks)
	if !a.checkTopo(nodes) {
		if mask&flatHotBit != 0 {
			return chainGen{}.Plan(nodes, blocks)
		}
		return BinomialPipelineGen{}.Plan(nodes, blocks)
	}
	eff := a.effectiveMask(mask)
	if eff == 0 {
		return HybridGen{RackOf: a.RackOf}.Plan(nodes, blocks)
	}
	return a.shelterPlan(nodes, blocks, eff)
}

// shelterPlan builds the masked hybrid: rack leaders split into fast (rack
// trunk unsaturated, always including the root's) and sheltered (saturated).
// Fast leaders run the ordinary leader-level binomial pipeline among
// themselves; each sheltered leader is assigned a fast sponsor round-robin
// and receives its blocks point-to-point from the sponsor as the sponsor
// acquires them — exactly one crossing of the saturated trunk per block, the
// delivery minimum, with zero relay obligations placed on the saturated
// rack's uplink. In-rack pipelines are unchanged from the hybrid: each rack
// disseminates from its leader as the leader's blocks arrive.
func (a AdaptiveGen) shelterPlan(nodes, blocks int, mask uint64) Plan {
	if nodes == 1 {
		return Plan{Nodes: 1, Blocks: blocks}
	}

	// Group ranks by rack, ascending within each rack so members[0] is the
	// leader (same layout rules as HybridGen).
	racks := make(map[int][]int)
	var rackOrder []int
	for rank := 0; rank < nodes; rank++ {
		r := a.RackOf[rank]
		if _, ok := racks[r]; !ok {
			rackOrder = append(rackOrder, r)
		}
		racks[r] = append(racks[r], rank)
	}
	rootRack := a.RackOf[0]
	if racks[rootRack][0] != 0 {
		panic("schedule: rank 0 must be the lowest rank in its rack")
	}

	var fast, sheltered []int // leader ranks
	fast = append(fast, racks[rootRack][0])
	for _, r := range rackOrder {
		if r == rootRack {
			continue
		}
		ld := racks[r][0]
		if r >= 0 && r <= maxMaskRack && mask&(uint64(1)<<uint(r)) != 0 {
			sheltered = append(sheltered, ld)
		} else {
			fast = append(fast, ld)
		}
	}

	p := Plan{Nodes: nodes, Blocks: blocks}
	leaderRecv := make(map[int][]int, len(fast)+len(sheltered))
	for _, ld := range append(append([]int(nil), fast...), sheltered...) {
		rounds := make([]int, blocks)
		for b := range rounds {
			rounds[b] = -1
		}
		leaderRecv[ld] = rounds
	}

	// Phase 1a: binomial pipeline across the fast leaders.
	if len(fast) > 1 {
		lp := BinomialPipelineGen{}.Plan(len(fast), blocks)
		for _, tr := range lp.Transfers {
			g := Transfer{Round: tr.Round, From: fast[tr.From], To: fast[tr.To], Block: tr.Block}
			p.Transfers = append(p.Transfers, g)
			leaderRecv[g.To][g.Block] = g.Round
		}
	}

	// Phase 1b: sponsor feeds. Sponsors rotate round-robin over the fast
	// leaders; each sponsor's feed sends serialize on the sponsor (spBusy),
	// so a sponsor carrying several sheltered racks interleaves them one
	// block per round rather than doubling its per-round transmit load.
	// Iterating blocks in the outer loop keeps low blocks flowing to every
	// sheltered rack before high blocks monopolize the sponsors.
	sponsorOf := make(map[int]int, len(sheltered))
	for i, sl := range sheltered {
		sponsorOf[sl] = fast[i%len(fast)]
	}
	spBusy := make(map[int]int, len(fast))
	for b := 0; b < blocks; b++ {
		for _, sl := range sheltered {
			sp := sponsorOf[sl]
			avail := leaderRecv[sp][b] // -1 for the root, which holds all
			round := avail + 1
			if spBusy[sp] > round {
				round = spBusy[sp]
			}
			spBusy[sp] = round + 1
			p.Transfers = append(p.Transfers, Transfer{Round: round, From: sp, To: sl, Block: b})
			leaderRecv[sl][b] = round
		}
	}

	// Phase 2: within each rack, a pipeline rooted at the leader whose
	// holdings appear as the earlier phases deliver them.
	for _, r := range rackOrder {
		members := racks[r]
		if len(members) < 2 {
			continue
		}
		avail := leaderRecv[members[0]]
		for _, tr := range circulantPlan(len(members), blocks, avail) {
			p.Transfers = append(p.Transfers, Transfer{
				Round: tr.Round,
				From:  members[tr.From],
				To:    members[tr.To],
				Block: tr.Block,
			})
		}
	}
	return p
}
