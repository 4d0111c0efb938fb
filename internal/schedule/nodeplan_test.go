package schedule

import (
	"fmt"
	"testing"
)

// nodePlanSizes is the equivalence grid from the planner-rework acceptance
// criteria: every small size (closed-form edge cases live at n ≤ 17), plus
// the power-of-two ladder up to the paper's 512-node Sierra runs.
var nodePlanSizes = []int{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 64, 128, 512,
}

var nodePlanBlocks = []int{1, 3, 64}

// equivalenceRanks picks the ranks to cross-check for one (algorithm, n)
// cell. Every rank is checked except for the O(n²)-per-rank MPI derivation
// at the largest sizes, where a boundary-heavy stride keeps the test fast
// while still covering the root, the scatter leaves, and the ring seam.
func equivalenceRanks(algo Algorithm, nodes int) []int {
	if !(algo == MPIScatterAllgather && nodes >= 128) {
		ranks := make([]int, nodes)
		for i := range ranks {
			ranks[i] = i
		}
		return ranks
	}
	var ranks []int
	for r := 0; r < nodes; r++ {
		if r < 20 || r >= nodes-20 || r%17 == 0 || nodes/2-2 <= r && r <= nodes/2+2 {
			ranks = append(ranks, r)
		}
	}
	return ranks
}

// TestNodePlanMatchesPerNode is the planner-equivalence property: for every
// built-in algorithm and every grid cell, the rank-local fast path must
// return exactly what splitting the global plan returns — same transfers,
// same order, element for element. At k = 1 it also pins what the engine's
// one-block path relies on: every non-root rank has exactly one source.
func TestNodePlanMatchesPerNode(t *testing.T) {
	for _, a := range Algorithms() {
		gen := New(a)
		for _, n := range nodePlanSizes {
			for _, k := range nodePlanBlocks {
				want := gen.Plan(n, k).PerNode()
				for _, r := range equivalenceRanks(a, n) {
					got := gen.NodePlan(n, k, r)
					if !nodePlanEqual(got, want[r]) {
						t.Fatalf("%s(n=%d k=%d rank=%d): NodePlan ≠ PerNode\n got: %+v\nwant: %+v",
							gen.Name(), n, k, r, got, want[r])
					}
					checkOneSource(t, gen.Name(), n, k, r, got)
				}
			}
		}
	}
}

// TestHybridNodePlanMatchesPerNode runs the same property for the hybrid
// generator across rack shapes (the hybrid resolves through nodePlanOf, so
// this also pins its rank filtering and the sort its out-of-order plan
// requires).
func TestHybridNodePlanMatchesPerNode(t *testing.T) {
	for _, rackSize := range []int{1, 3, 4, 8} {
		for _, n := range []int{1, 2, 5, 8, 12, 16, 17, 32} {
			rackOf := make([]int, n)
			for i := range rackOf {
				rackOf[i] = i / rackSize
			}
			gen := HybridGen{RackOf: rackOf}
			for _, k := range nodePlanBlocks {
				want := gen.Plan(n, k).PerNode()
				for r := 0; r < n; r++ {
					got := gen.NodePlan(n, k, r)
					if !nodePlanEqual(got, want[r]) {
						t.Fatalf("hybrid(rack=%d n=%d k=%d rank=%d): NodePlan ≠ PerNode\n got: %+v\nwant: %+v",
							rackSize, n, k, r, got, want[r])
					}
					checkOneSource(t, fmt.Sprintf("hybrid(rack=%d)", rackSize), n, k, r, got)
				}
			}
		}
	}
}

// checkOneSource fails a k = 1 plan that gives non-root rank r other than
// exactly one receive.
func checkOneSource(t *testing.T, name string, n, k, r int, np NodePlan) {
	t.Helper()
	if k == 1 && r > 0 && len(np.Recvs) != 1 {
		t.Fatalf("%s(n=%d k=1 rank=%d): %d receives, want exactly one source", name, n, r, len(np.Recvs))
	}
}

// nodePlanEqual compares transfer-for-transfer; nil and empty are the same
// plan (the fast paths pre-size exactly and may legitimately return nil for
// a rank with no sends or no receives).
func nodePlanEqual(a, b NodePlan) bool {
	return transfersEqual(a.Sends, b.Sends) && transfersEqual(a.Recvs, b.Recvs)
}

func transfersEqual(a, b []Transfer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNodePlanPanicsOnBadRank(t *testing.T) {
	for _, a := range Algorithms() {
		gen := New(a)
		for _, rank := range []int{-1, 4} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic for rank %d of 4 nodes", gen.Name(), rank)
					}
				}()
				gen.NodePlan(4, 2, rank)
			}()
		}
	}
}

// TestHybridPerNodeSortFallback pins the PerNode slow path: the hybrid's
// plan appends its rack phase after its leader phase, so per-rank transfers
// arrive round-disordered and PerNode must fall back to the stable sort.
func TestHybridPerNodeSortFallback(t *testing.T) {
	rackOf := make([]int, 16)
	for i := range rackOf {
		rackOf[i] = i / 4
	}
	for rank, np := range (HybridGen{RackOf: rackOf}).Plan(16, 8).PerNode() {
		for i := 1; i < len(np.Sends); i++ {
			if np.Sends[i].Round < np.Sends[i-1].Round {
				t.Fatalf("rank %d sends out of round order after PerNode", rank)
			}
		}
		for i := 1; i < len(np.Recvs); i++ {
			if np.Recvs[i].Round < np.Recvs[i-1].Round {
				t.Fatalf("rank %d recvs out of round order after PerNode", rank)
			}
		}
	}
}
