package schedule

import "fmt"

// HybridGen implements the paper's §4.3 hybrid: when rack topology is known,
// run one binomial pipeline across rack leaders and a second one within each
// rack, seeded by the leader as its blocks arrive. The paper motivates but
// could not evaluate this variant (its testbed hid placement); the simulator
// can, so the harness includes it as the `hybrid` experiment.
//
// The in-rack pipelines overlap with the leader-level pipeline: a leader
// forwards a block into its rack on any round after the round that delivered
// it, so dissemination is pipelined across the two levels rather than
// staged.
type HybridGen struct {
	// RackOf maps each rank to its rack index. Rank 0 (the root) may live
	// in any rack; the lowest rank of each rack acts as its leader, so the
	// root is always its own rack's leader.
	RackOf []int
}

var _ Generator = HybridGen{}

// Name implements Generator.
func (HybridGen) Name() string { return "hybrid binomial pipeline" }

// NodePlan implements Generator. The hybrid has no per-rank closed form —
// its two pipeline levels interleave rounds and depend on the rack layout —
// so the caller builds the full plan and keeps its own transfers.
func (h HybridGen) NodePlan(nodes, blocks, rank int) NodePlan {
	checkArgs(nodes, blocks)
	checkRank(nodes, rank)
	return h.Plan(nodes, blocks).nodePlanOf(rank)
}

// Plan implements Generator. It panics if RackOf does not cover every rank.
func (h HybridGen) Plan(nodes, blocks int) Plan {
	checkArgs(nodes, blocks)
	if len(h.RackOf) != nodes {
		panic(fmt.Sprintf("schedule: RackOf covers %d ranks, plan needs %d", len(h.RackOf), nodes))
	}
	if nodes == 1 {
		return Plan{Nodes: 1, Blocks: blocks}
	}

	// Group ranks by rack, ascending within each rack so members[0] is the
	// leader.
	racks := make(map[int][]int)
	var rackOrder []int
	for rank := 0; rank < nodes; rank++ {
		r := h.RackOf[rank]
		if _, ok := racks[r]; !ok {
			rackOrder = append(rackOrder, r)
		}
		racks[r] = append(racks[r], rank)
	}

	// Leaders, with the root's rack first so the leader-level plan is
	// rooted at rank 0.
	rootRack := h.RackOf[0]
	leaders := []int{racks[rootRack][0]}
	for _, r := range rackOrder {
		if r != rootRack {
			leaders = append(leaders, racks[r][0])
		}
	}
	if leaders[0] != 0 {
		panic("schedule: rank 0 must be the lowest rank in its rack")
	}

	p := Plan{Nodes: nodes, Blocks: blocks}

	// Phase 1: binomial pipeline across leaders. Record when each leader
	// acquires each block.
	leaderRecv := make(map[int][]int, len(leaders))
	for _, ld := range leaders {
		rounds := make([]int, blocks)
		for b := range rounds {
			rounds[b] = -1
		}
		leaderRecv[ld] = rounds
	}
	if len(leaders) > 1 {
		lp := BinomialPipelineGen{}.Plan(len(leaders), blocks)
		for _, tr := range lp.Transfers {
			g := Transfer{Round: tr.Round, From: leaders[tr.From], To: leaders[tr.To], Block: tr.Block}
			p.Transfers = append(p.Transfers, g)
			leaderRecv[g.To][g.Block] = g.Round
		}
	}

	// Phase 2: within each rack, a pipeline rooted at the leader whose
	// holdings appear as phase 1 delivers them.
	for _, r := range rackOrder {
		members := racks[r]
		if len(members) < 2 {
			continue
		}
		avail := leaderRecv[members[0]] // all -1 for the root's own rack
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
