// Package schedule computes the deterministic block-transfer plans at the
// heart of RDMC (DSN 2018, §3–4): given a group of n nodes (rank 0 is the
// root/sender) and a message split into k blocks, a Generator maps the
// multicast onto a sequence of point-to-point unicast block transfers.
//
// Implemented generators, in the paper's order of increasing effectiveness
// (§4.3):
//
//   - Sequential: the root unicasts the whole message to each receiver in
//     turn — today's datacenter default and the paper's baseline.
//   - Chain: a bucket brigade in the style of chain replication.
//   - BinomialTree: whole-message relaying along a binomial tree.
//   - BinomialPipeline: the paper's main algorithm — a virtual hypercube in
//     which d distinct blocks are concurrently relayed, so every node spends
//     as much time as possible simultaneously sending and receiving.
//   - MPIScatterAllgather: the MVAPICH-style large-message broadcast
//     (binomial scatter + ring allgather) used as the MPI comparator.
//   - Hybrid: the paper's §4.3 topology-aware variant — one binomial
//     pipeline across rack leaders and one within each rack.
//
// Plans are pure data, independent of any transport: the engine in
// internal/core executes them asynchronously, and the analysis helpers in
// this package (slack.go) study them symbolically.
package schedule

import (
	"fmt"
	"math/bits"
	"sort"
)

// Transfer is one point-to-point block copy. From and To are group-relative
// ranks; rank 0 is the root. Round is the synchronous step the transfer
// belongs to; the asynchronous engine uses rounds only for ordering and
// gating, exactly as the paper's implementation treats its precomputed
// schedule as "a series of asynchronous steps" (§4.2).
type Transfer struct {
	Round int
	From  int
	To    int
	Block int
}

// Plan is a complete multicast schedule for n nodes and k blocks.
type Plan struct {
	Nodes     int
	Blocks    int
	Transfers []Transfer
}

// Rounds returns the number of synchronous rounds the plan spans (the
// highest round number plus one), or zero for an empty plan.
func (p Plan) Rounds() int {
	max := -1
	for _, tr := range p.Transfers {
		if tr.Round > max {
			max = tr.Round
		}
	}
	return max + 1
}

// NodePlan is one node's view of a plan: its sends and receives in execution
// order.
type NodePlan struct {
	Sends []Transfer
	Recvs []Transfer
}

// PerNode splits the plan by rank. Both lists are ordered by round (ties by
// plan order, which generators keep deterministic).
//
// The split is allocation-exact and sort-free in the common case: a first
// pass counts each rank's transfers so every slice is sized in one shot, and
// the stable sort runs only on a list whose transfers arrived out of round
// order — every built-in generator except the hybrid (whose two phases
// interleave rounds) emits them already ordered.
func (p Plan) PerNode() []NodePlan {
	nodes := make([]NodePlan, p.Nodes)
	counts := make([]int, 2*p.Nodes) // sends in [0,n), recvs in [n,2n)
	for _, tr := range p.Transfers {
		counts[tr.From]++
		counts[p.Nodes+tr.To]++
	}
	for i := range nodes {
		if c := counts[i]; c > 0 {
			nodes[i].Sends = make([]Transfer, 0, c)
		}
		if c := counts[p.Nodes+i]; c > 0 {
			nodes[i].Recvs = make([]Transfer, 0, c)
		}
	}
	for _, tr := range p.Transfers {
		nodes[tr.From].Sends = append(nodes[tr.From].Sends, tr)
		nodes[tr.To].Recvs = append(nodes[tr.To].Recvs, tr)
	}
	for i := range nodes {
		sortStable(nodes[i].Sends)
		sortStable(nodes[i].Recvs)
	}
	return nodes
}

// sortStable orders transfers by round, keeping plan order within a round.
// Already-ordered lists, the common case, are left untouched.
func sortStable(ts []Transfer) {
	for i := 1; i < len(ts); i++ {
		if ts[i].Round < ts[i-1].Round {
			sort.SliceStable(ts, func(i, j int) bool { return ts[i].Round < ts[j].Round })
			return
		}
	}
}

// Validate checks the invariants every correct plan must satisfy:
//
//   - ranks and block numbers in range, no self-transfers, nothing sent to
//     the root;
//   - completeness without duplication: every non-root rank receives every
//     block exactly once (the paper's "no duplications, omissions or
//     corruption" guarantee starts here);
//   - causality: a node only sends blocks it holds — the root holds
//     everything from the start, every other node holds a block strictly
//     after the round that delivered it.
func (p Plan) Validate() error {
	if p.Nodes < 1 {
		return fmt.Errorf("schedule: plan has %d nodes", p.Nodes)
	}
	if p.Blocks < 1 {
		return fmt.Errorf("schedule: plan has %d blocks", p.Blocks)
	}
	recvRound := make([][]int, p.Nodes) // rank → block → round received (-1 unset)
	for i := range recvRound {
		recvRound[i] = make([]int, p.Blocks)
		for b := range recvRound[i] {
			recvRound[i][b] = -1
		}
	}
	sorted := append([]Transfer(nil), p.Transfers...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Round < sorted[j].Round })
	for _, tr := range sorted {
		switch {
		case tr.From < 0 || tr.From >= p.Nodes || tr.To < 0 || tr.To >= p.Nodes:
			return fmt.Errorf("schedule: transfer %+v out of range for %d nodes", tr, p.Nodes)
		case tr.Block < 0 || tr.Block >= p.Blocks:
			return fmt.Errorf("schedule: transfer %+v block out of range for %d blocks", tr, p.Blocks)
		case tr.From == tr.To:
			return fmt.Errorf("schedule: self transfer %+v", tr)
		case tr.To == 0:
			return fmt.Errorf("schedule: transfer to root %+v", tr)
		case tr.Round < 0:
			return fmt.Errorf("schedule: negative round %+v", tr)
		}
		if tr.From != 0 {
			got := recvRound[tr.From][tr.Block]
			if got < 0 || got >= tr.Round {
				return fmt.Errorf("schedule: causality violation: %+v sent before held (received round %d)", tr, got)
			}
		}
		if recvRound[tr.To][tr.Block] >= 0 {
			return fmt.Errorf("schedule: duplicate delivery %+v", tr)
		}
		recvRound[tr.To][tr.Block] = tr.Round
	}
	for rank := 1; rank < p.Nodes; rank++ {
		for b := 0; b < p.Blocks; b++ {
			if recvRound[rank][b] < 0 {
				return fmt.Errorf("schedule: rank %d never receives block %d", rank, b)
			}
		}
	}
	return nil
}

// ValidateStrict additionally requires that no node performs more than one
// send or one receive per round — the full-duplex one-block-in, one-block-out
// discipline of the paper's non-hybrid schedules.
func (p Plan) ValidateStrict() error {
	if err := p.Validate(); err != nil {
		return err
	}
	type slot struct{ round, rank int }
	sends := make(map[slot]bool)
	recvs := make(map[slot]bool)
	for _, tr := range p.Transfers {
		s := slot{tr.Round, tr.From}
		if sends[s] {
			return fmt.Errorf("schedule: rank %d sends twice in round %d", tr.From, tr.Round)
		}
		sends[s] = true
		r := slot{tr.Round, tr.To}
		if recvs[r] {
			return fmt.Errorf("schedule: rank %d receives twice in round %d", tr.To, tr.Round)
		}
		recvs[r] = true
	}
	return nil
}

// Generator produces plans for a given group and block count.
type Generator interface {
	// Name returns the algorithm's display name as used in the paper.
	Name() string
	// Plan computes the schedule for nodes ranks and blocks message blocks.
	// It panics if nodes < 1 or blocks < 1; plans for a single node are
	// empty.
	Plan(nodes, blocks int) Plan
	// NodePlan computes rank's slice of Plan(nodes, blocks) without
	// materializing the global transfer list: the result is element-for-
	// element identical to Plan(nodes, blocks).PerNode()[rank]. Generators
	// with a per-rank closed form (the paper's §4.4 "each node can compute
	// its send schedule directly") answer in time proportional to the
	// rank's own transfers; the rest build the full plan and keep the
	// rank's transfers. It panics on invalid sizes or an out-of-range rank.
	NodePlan(nodes, blocks, rank int) NodePlan
}

// Algorithm enumerates the built-in generators.
type Algorithm int

// Built-in multicast algorithms.
const (
	Sequential Algorithm = iota + 1
	Chain
	BinomialTree
	BinomialPipeline
	MPIScatterAllgather
)

func (a Algorithm) String() string {
	switch a {
	case Sequential:
		return "sequential send"
	case Chain:
		return "chain send"
	case BinomialTree:
		return "binomial tree"
	case BinomialPipeline:
		return "binomial pipeline"
	case MPIScatterAllgather:
		return "mpi bcast"
	default:
		return "unknown"
	}
}

// New returns the generator for the algorithm. It panics on an unknown value.
func New(a Algorithm) Generator {
	switch a {
	case Sequential:
		return sequentialGen{}
	case Chain:
		return chainGen{}
	case BinomialTree:
		return binomialTreeGen{}
	case BinomialPipeline:
		return BinomialPipelineGen{}
	case MPIScatterAllgather:
		return mpiGen{}
	default:
		panic(fmt.Sprintf("schedule: unknown algorithm %d", a))
	}
}

// Algorithms returns the built-in algorithms in the paper's presentation
// order.
func Algorithms() []Algorithm {
	return []Algorithm{Sequential, Chain, BinomialTree, BinomialPipeline, MPIScatterAllgather}
}

func checkArgs(nodes, blocks int) {
	if nodes < 1 || blocks < 1 {
		panic(fmt.Sprintf("schedule: invalid plan size %d nodes × %d blocks", nodes, blocks))
	}
}

func checkRank(nodes, rank int) {
	if rank < 0 || rank >= nodes {
		panic(fmt.Sprintf("schedule: rank %d out of range for %d nodes", rank, nodes))
	}
}

// log2Ceil returns ⌈log₂ n⌉ for n ≥ 1.
func log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
