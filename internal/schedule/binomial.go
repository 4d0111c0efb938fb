package schedule

import (
	"fmt"
	"math/bits"
)

// BinomialPipelineGen generates the paper's main algorithm (§4.3–4.4): a
// virtual hypercube overlay of dimension l in which up to l distinct blocks
// are relayed concurrently. Every node repeatedly performs one send and one
// receive per step until, on the last step, all nodes simultaneously receive
// their final block.
//
// For power-of-two group sizes the plan comes from the paper's closed-form
// send scheme (§4.4); a property test cross-checks it against an independent
// synchronous executor of the paper's exchange rules. For other sizes —
// which the paper handles with "straightforward extensions" it omits — the
// hypercube overlay generalizes to a directed circulant: in step j, rank i
// sends one block to (i+2^(j%l)) mod n and receives one from
// (i−2^(j%l)) mod n, so every rank keeps the full-duplex one-in/one-out
// discipline at any group size. The block rule is unchanged: the root
// injects block min(j, k−1), relayers forward the highest block they hold
// that their target lacks.
type BinomialPipelineGen struct{}

var _ Generator = BinomialPipelineGen{}

// Name implements Generator.
func (BinomialPipelineGen) Name() string { return BinomialPipeline.String() }

// Plan implements Generator.
func (BinomialPipelineGen) Plan(nodes, blocks int) Plan {
	checkArgs(nodes, blocks)
	if nodes == 1 {
		return Plan{Nodes: 1, Blocks: blocks}
	}
	if nodes&(nodes-1) == 0 {
		return closedFormPlan(nodes, blocks)
	}
	return Plan{Nodes: nodes, Blocks: blocks, Transfers: circulantPlan(nodes, blocks, nil)}
}

// NodePlan implements Generator. For power-of-two sizes rank i's sends come
// straight from ClosedFormSend, and its receives from the mirrored sender
// relation: the partner i⊕2^(j mod l) sending at step j targets exactly i,
// so evaluating the closed form for the partner at every step enumerates
// rank i's k receives. One rank's plan therefore costs O(l+k) time with
// exact-size allocations and no global plan. Non-power-of-two sizes have no
// closed form; the caller builds the circulant plan and keeps its own
// transfers.
func (g BinomialPipelineGen) NodePlan(nodes, blocks, rank int) NodePlan {
	checkArgs(nodes, blocks)
	checkRank(nodes, rank)
	if nodes == 1 {
		return NodePlan{}
	}
	if nodes&(nodes-1) != 0 {
		return g.Plan(nodes, blocks).nodePlanOf(rank)
	}
	l := log2Ceil(nodes)
	steps := l + blocks - 1
	nSends := 0
	for j := 0; j < steps; j++ {
		if _, _, ok := ClosedFormSend(l, blocks, rank, j); ok {
			nSends++
		}
	}
	var np NodePlan
	if nSends > 0 {
		np.Sends = make([]Transfer, 0, nSends)
		for j := 0; j < steps; j++ {
			if b, to, ok := ClosedFormSend(l, blocks, rank, j); ok {
				np.Sends = append(np.Sends, Transfer{Round: j, From: rank, To: to, Block: b})
			}
		}
	}
	if rank != 0 {
		// Every non-root rank receives each block exactly once: k receives.
		np.Recvs = make([]Transfer, 0, blocks)
		for j := 0; j < steps; j++ {
			partner := rank ^ (1 << (j % l))
			if b, _, ok := ClosedFormSend(l, blocks, partner, j); ok {
				np.Recvs = append(np.Recvs, Transfer{Round: j, From: partner, To: rank, Block: b})
			}
		}
	}
	return np
}

// ClosedFormSend evaluates the paper's §4.4 send scheme directly: at step j
// in a 2^l-node group sending k blocks, node i sends block b to node
// i⊕2^(j%l). ok is false when the node sends nothing that step (the paper's
// "nothing" cases). Steps run from 0 to l+k−2 inclusive.
func ClosedFormSend(l, k, i, j int) (b, to int, ok bool) {
	d := j % l
	to = i ^ (1 << d)
	rot := rotr(uint(i), d, l)
	switch {
	case rot == 0:
		return min(j, k-1), to, true
	case rot == 1:
		// The node's neighbour along this dimension is the sender.
		return 0, to, false
	default:
		r := bits.TrailingZeros(rot)
		if j-l+r >= 0 {
			return min(j-l+r, k-1), to, true
		}
		return 0, to, false
	}
}

// closedFormPlan expands the §4.4 scheme into a full plan for n = 2^l nodes.
func closedFormPlan(n, k int) Plan {
	l := log2Ceil(n)
	p := Plan{Nodes: n, Blocks: k}
	// Every transfer delivers one new block to one of the n−1 receivers.
	p.Transfers = make([]Transfer, 0, (n-1)*k)
	steps := l + k - 1
	for j := 0; j < steps; j++ {
		for i := 0; i < n; i++ {
			b, to, ok := ClosedFormSend(l, k, i, j)
			if !ok {
				continue
			}
			p.Transfers = append(p.Transfers, Transfer{Round: j, From: i, To: to, Block: b})
		}
	}
	return p
}

// rotr right-rotates the low l bits of x by r positions.
func rotr(x uint, r, l int) uint {
	mask := uint(1)<<l - 1
	x &= mask
	if r == 0 {
		return x
	}
	return (x>>r | x<<(l-r)) & mask
}

// circulantPlan runs the generalized pipeline round by round for arbitrary
// n ≥ 2, recording the transfers it performs; the plan is complete by
// construction because the loop runs until every node holds every block.
//
// avail optionally delays the root's holdings: the root holds block b only
// on rounds strictly after avail[b] (nil, or -1 entries, mean "from the
// start"). The hybrid generator uses this to seed a rack pipeline from its
// leader as the leader-level pipeline delivers.
func circulantPlan(n, k int, avail []int) []Transfer {
	l := log2Ceil(n)
	has := newHoldings(n, k)

	maxAvail := 0
	granted := make([]bool, k)
	if avail == nil {
		for b := range granted {
			granted[b] = true
		}
	} else {
		// Withdraw the root's blocks; re-grant per round as they arrive.
		has.count[0] = 0
		for i := range has.bits[:has.words] {
			has.bits[i] = 0
		}
		for _, a := range avail {
			if a > maxAvail {
				maxAvail = a
			}
		}
	}

	limit := maxAvail + 4*(l+k) + 64
	// Every transfer delivers one new block to one of the n−1 non-root
	// nodes, so the output size is exactly (n−1)·k; the per-round delivery
	// scratch is hoisted out of the loop and reused across rounds.
	out := make([]Transfer, 0, (n-1)*k)
	type delivery struct{ node, block int }
	arrived := make([]delivery, 0, n)
	for round := 0; !has.complete(); round++ {
		if round > limit {
			panic(fmt.Sprintf("schedule: binomial pipeline failed to converge for n=%d k=%d", n, k))
		}
		if avail != nil {
			for b := 0; b < k; b++ {
				if !granted[b] && avail[b] < round {
					granted[b] = true
					has.set(0, b)
				}
			}
		}
		d := round % l
		arrived = arrived[:0]
		for i := 0; i < n; i++ {
			to := (i + 1<<d) % n
			if to == 0 || to == i {
				continue // the root needs nothing
			}
			b := pickBlock(has, i, to, round, k)
			if b < 0 {
				continue
			}
			out = append(out, Transfer{Round: round, From: i, To: to, Block: b})
			arrived = append(arrived, delivery{node: to, block: b})
		}
		for _, a := range arrived {
			has.set(a.node, a.block)
		}
	}
	return out
}

// pickBlock selects the block rank from sends to rank to at the given round,
// or -1 for none: the root injects the round's fresh block when the target
// lacks it, otherwise (and for relayers always) the sender forwards the
// highest block it holds that the target lacks. The scan runs a word at a
// time from the top, so it costs O(k/64) rather than O(k).
func pickBlock(h holdings, from, to, round, k int) int {
	if from == 0 {
		if fresh := min(round, k-1); h.get(0, fresh) && !h.get(to, fresh) {
			return fresh
		}
	}
	src, dst := h.bits[from*h.words:], h.bits[to*h.words:]
	for w := h.words - 1; w >= 0; w-- {
		if lack := src[w] &^ dst[w]; lack != 0 {
			return w*64 + 63 - bits.LeadingZeros64(lack)
		}
	}
	return -1
}

// holdings is a per-rank block bitset.
type holdings struct {
	k     int
	words int
	bits  []uint64
	count []int
}

func newHoldings(n, k int) holdings {
	h := holdings{
		k:     k,
		words: (k + 63) / 64,
		count: make([]int, n),
	}
	h.bits = make([]uint64, n*h.words)
	for b := 0; b < k; b++ {
		h.setRaw(0, b)
	}
	h.count[0] = k
	return h
}

func (h holdings) get(node, b int) bool {
	return h.bits[node*h.words+b/64]&(1<<(b%64)) != 0
}

func (h holdings) setRaw(node, b int) {
	h.bits[node*h.words+b/64] |= 1 << (b % 64)
}

func (h holdings) set(node, b int) {
	if !h.get(node, b) {
		h.setRaw(node, b)
		h.count[node]++
	}
}

func (h holdings) complete() bool {
	for _, c := range h.count {
		if c != h.k {
			return false
		}
	}
	return true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
