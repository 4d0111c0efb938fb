package schedule

import "math/bits"

// This file holds the rank-local planning paths: the per-rank closed forms
// for the generators that have one, and nodePlanOf for the ones that do not.
//
// Motivation (paper §4.4): "each node can compute its send schedule
// directly". The engine only ever needs one rank's sends and receives, so
// building the global O(n·k) transfer list on every member — and splitting
// it n ways with PerNode — turns an O(l+k) per-rank computation into
// O(n²·(l+k)) across a simulated group. The closed forms below answer in
// time proportional to the rank's own transfers; every path is required (and
// property-tested) to be element-for-element identical to
// Plan(nodes, blocks).PerNode()[rank].

// nodePlanOf returns rank's slice of the plan, element for element equal to
// PerNode()[rank], without splitting out every other rank. It is the
// per-rank path of the generators with no closed form (the circulant
// pipeline at non-power-of-two sizes, the hybrid, the sheltered hybrid):
// each member builds the full plan itself and keeps its own transfers.
func (p Plan) nodePlanOf(rank int) NodePlan {
	var np NodePlan
	for _, tr := range p.Transfers {
		if tr.From == rank {
			np.Sends = append(np.Sends, tr)
		}
		if tr.To == rank {
			np.Recvs = append(np.Recvs, tr)
		}
	}
	sortStable(np.Sends)
	sortStable(np.Recvs)
	return np
}

// NodePlan implements Generator. The root's sends and each receiver's
// receives enumerate directly: receiver r's k blocks occupy rounds
// (r−1)·k … r·k−1. O(own transfers) time and allocation.
func (sequentialGen) NodePlan(nodes, blocks, rank int) NodePlan {
	checkArgs(nodes, blocks)
	checkRank(nodes, rank)
	var np NodePlan
	if rank == 0 {
		if nodes == 1 {
			return np
		}
		np.Sends = make([]Transfer, 0, (nodes-1)*blocks)
		round := 0
		for to := 1; to < nodes; to++ {
			for b := 0; b < blocks; b++ {
				np.Sends = append(np.Sends, Transfer{Round: round, From: 0, To: to, Block: b})
				round++
			}
		}
		return np
	}
	np.Recvs = make([]Transfer, 0, blocks)
	base := (rank - 1) * blocks
	for b := 0; b < blocks; b++ {
		np.Recvs = append(np.Recvs, Transfer{Round: base + b, From: 0, To: rank, Block: b})
	}
	return np
}

// NodePlan implements Generator. Rank r relays block b to r+1 in round b+r
// and received it from r−1 in round b+r−1. O(k) time and allocation.
func (chainGen) NodePlan(nodes, blocks, rank int) NodePlan {
	checkArgs(nodes, blocks)
	checkRank(nodes, rank)
	var np NodePlan
	if rank < nodes-1 {
		np.Sends = make([]Transfer, 0, blocks)
		for b := 0; b < blocks; b++ {
			np.Sends = append(np.Sends, Transfer{Round: b + rank, From: rank, To: rank + 1, Block: b})
		}
	}
	if rank > 0 {
		np.Recvs = make([]Transfer, 0, blocks)
		for b := 0; b < blocks; b++ {
			np.Recvs = append(np.Recvs, Transfer{Round: b + rank - 1, From: rank - 1, To: rank, Block: b})
		}
	}
	return np
}

// NodePlan implements Generator. Rank r receives the whole message at tree
// step ⌊log₂ r⌋ from r − 2^⌊log₂ r⌋ and forwards it at every later step s
// with r < 2^s whose partner r + 2^s exists. O(k·log n) time, exact-size
// allocations.
func (binomialTreeGen) NodePlan(nodes, blocks, rank int) NodePlan {
	checkArgs(nodes, blocks)
	checkRank(nodes, rank)
	var np NodePlan
	first := 0 // first step at which rank holds the message and may send
	if rank > 0 {
		s := bits.Len(uint(rank)) - 1
		from := rank - 1<<s
		np.Recvs = make([]Transfer, 0, blocks)
		for b := 0; b < blocks; b++ {
			np.Recvs = append(np.Recvs, Transfer{Round: s*blocks + b, From: from, To: rank, Block: b})
		}
		first = s + 1
	}
	nSends := 0
	for s := first; 1<<s < nodes; s++ {
		if rank+1<<s < nodes {
			nSends += blocks
		}
	}
	if nSends > 0 {
		np.Sends = make([]Transfer, 0, nSends)
		for s := first; 1<<s < nodes; s++ {
			to := rank + 1<<s
			if to >= nodes {
				continue
			}
			for b := 0; b < blocks; b++ {
				np.Sends = append(np.Sends, Transfer{Round: s*blocks + b, From: rank, To: to, Block: b})
			}
		}
	}
	return np
}

// NodePlan implements Generator. Rank r's transfers are derived from the
// scatter recursion and the ring structure directly, never materializing the
// global plan: the scatter's job tree is walked once (O(n) ranges, tracking
// only round offsets, chunk retention, and the jobs that touch r), and each
// allgather step's round advance is recomputed arithmetically. Worst-case
// O(n²) time for the n−1 ring steps, but the only allocations are rank r's
// own transfer slices, the O(n) retention table, and the tree scratch.
func (mpiGen) NodePlan(nodes, blocks, rank int) NodePlan {
	checkArgs(nodes, blocks)
	checkRank(nodes, rank)
	var np NodePlan
	if nodes == 1 {
		return np
	}
	chunkLo := func(c int) int { return c * blocks / nodes }
	appendRun := func(dst []Transfer, round, from, to, bLo, bHi int) []Transfer {
		for b := bLo; b < bHi; b++ {
			dst = append(dst, Transfer{Round: round + (b - bLo), From: from, To: to, Block: b})
		}
		return dst
	}

	// holdsHi[r] caps the chunk range [r, holdsHi[r]) rank r retains after
	// the scatter (intermediaries keep the chunks they relay). Ranks the
	// scatter never reaches — possible only when all their chunks are
	// empty — keep the vacuous default [r, r+1).
	holdsHi := make([]int, nodes)
	for r := range holdsHi {
		holdsHi[r] = r + 1
	}
	holdsHi[0] = nodes

	// Binomial scatter, mirroring Plan's job recursion: the owner of chunk
	// range [lo,hi) is always lo, and each split sends chunks [mid,hi) to
	// rank mid. The step's round advance is the largest per-job block run.
	round := 0
	type job struct{ lo, hi int }
	jobs := []job{{0, nodes}}
	var next []job
	for len(jobs) > 0 {
		next = next[:0]
		maxBlocks := 0
		for _, j := range jobs {
			if j.hi-j.lo <= 1 {
				continue
			}
			mid := (j.lo + j.hi + 1) / 2
			holdsHi[mid] = j.hi
			nb := chunkLo(j.hi) - chunkLo(mid)
			if nb > maxBlocks {
				maxBlocks = nb
			}
			if nb > 0 {
				if j.lo == rank {
					np.Sends = appendRun(np.Sends, round, j.lo, mid, chunkLo(mid), chunkLo(j.hi))
				} else if mid == rank {
					np.Recvs = appendRun(np.Recvs, round, j.lo, mid, chunkLo(mid), chunkLo(j.hi))
				}
			}
			next = append(next, job{j.lo, mid}, job{mid, j.hi})
		}
		if maxBlocks == 0 {
			break
		}
		round += maxBlocks
		jobs, next = next, jobs
	}

	// Ring allgather: at step t, rank i forwards chunk (i−t) mod n to i+1,
	// skipping the root and chunks the target retained from the scatter.
	// Each (receiver, chunk) pair occurs at most once across the whole
	// ring, so scatter retention is the only reason a chunk is skipped and
	// the per-block holdings of the global generator reduce to the
	// chunk-granular check below.
	for t := 0; t < nodes-1; t++ {
		maxBlocks := 0
		for i := 0; i < nodes-1; i++ { // i = n−1 would target the root
			to := i + 1
			c := i - t
			if c < 0 {
				c += nodes
			}
			if to <= c && c < holdsHi[to] {
				continue // target kept this chunk from the scatter
			}
			nb := chunkLo(c+1) - chunkLo(c)
			if nb == 0 {
				continue
			}
			if nb > maxBlocks {
				maxBlocks = nb
			}
			if i == rank {
				np.Sends = appendRun(np.Sends, round, i, to, chunkLo(c), chunkLo(c+1))
			} else if to == rank {
				np.Recvs = appendRun(np.Recvs, round, i, to, chunkLo(c), chunkLo(c+1))
			}
		}
		round += maxBlocks
		if maxBlocks == 0 {
			round++
		}
	}
	return np
}
