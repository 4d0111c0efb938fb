package schedule

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestPlanValidateAcceptsTrivialPlans(t *testing.T) {
	if err := (Plan{Nodes: 1, Blocks: 5}).Validate(); err != nil {
		t.Errorf("single-node empty plan: %v", err)
	}
	p := Plan{Nodes: 2, Blocks: 1, Transfers: []Transfer{{Round: 0, From: 0, To: 1, Block: 0}}}
	if err := p.Validate(); err != nil {
		t.Errorf("minimal plan: %v", err)
	}
}

func TestPlanValidateRejectsBadPlans(t *testing.T) {
	tests := []struct {
		name string
		plan Plan
		want string
	}{
		{"no nodes", Plan{Nodes: 0, Blocks: 1}, "0 nodes"},
		{"no blocks", Plan{Nodes: 2, Blocks: 0}, "0 blocks"},
		{
			"missing delivery",
			Plan{Nodes: 3, Blocks: 1, Transfers: []Transfer{{Round: 0, From: 0, To: 1, Block: 0}}},
			"never receives",
		},
		{
			"duplicate delivery",
			Plan{Nodes: 2, Blocks: 1, Transfers: []Transfer{
				{Round: 0, From: 0, To: 1, Block: 0},
				{Round: 1, From: 0, To: 1, Block: 0},
			}},
			"duplicate",
		},
		{
			"causality violation",
			Plan{Nodes: 3, Blocks: 1, Transfers: []Transfer{
				{Round: 0, From: 1, To: 2, Block: 0},
				{Round: 1, From: 0, To: 1, Block: 0},
			}},
			"causality",
		},
		{
			"same-round relay",
			Plan{Nodes: 3, Blocks: 1, Transfers: []Transfer{
				{Round: 0, From: 0, To: 1, Block: 0},
				{Round: 0, From: 1, To: 2, Block: 0},
			}},
			"causality",
		},
		{
			"send to root",
			Plan{Nodes: 2, Blocks: 1, Transfers: []Transfer{
				{Round: 0, From: 0, To: 1, Block: 0},
				{Round: 1, From: 1, To: 0, Block: 0},
			}},
			"to root",
		},
		{
			"self transfer",
			Plan{Nodes: 2, Blocks: 1, Transfers: []Transfer{{Round: 0, From: 1, To: 1, Block: 0}}},
			"self",
		},
		{
			"rank out of range",
			Plan{Nodes: 2, Blocks: 1, Transfers: []Transfer{{Round: 0, From: 0, To: 7, Block: 0}}},
			"out of range",
		},
		{
			"block out of range",
			Plan{Nodes: 2, Blocks: 1, Transfers: []Transfer{{Round: 0, From: 0, To: 1, Block: 3}}},
			"block out of range",
		},
		{
			"negative round",
			Plan{Nodes: 2, Blocks: 1, Transfers: []Transfer{{Round: -1, From: 0, To: 1, Block: 0}}},
			"negative round",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.plan.Validate()
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("Validate() = %v, want substring %q", err, tt.want)
			}
		})
	}
}

func TestPlanValidateStrictCatchesDoubleSend(t *testing.T) {
	p := Plan{Nodes: 3, Blocks: 2, Transfers: []Transfer{
		{Round: 0, From: 0, To: 1, Block: 0},
		{Round: 0, From: 0, To: 2, Block: 0},
		{Round: 1, From: 0, To: 1, Block: 1},
		{Round: 1, From: 0, To: 2, Block: 1},
	}}
	if err := p.Validate(); err != nil {
		t.Fatalf("base validation: %v", err)
	}
	err := p.ValidateStrict()
	if err == nil || !strings.Contains(err.Error(), "sends twice") {
		t.Errorf("ValidateStrict() = %v, want double-send error", err)
	}
}

func TestPlanValidateStrictCatchesDoubleRecv(t *testing.T) {
	p := Plan{Nodes: 3, Blocks: 2, Transfers: []Transfer{
		{Round: 0, From: 0, To: 1, Block: 0},
		{Round: 1, From: 0, To: 2, Block: 0},
		{Round: 2, From: 0, To: 1, Block: 1},
		{Round: 2, From: 2, To: 1, Block: 0},
	}}
	if err := p.ValidateStrict(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		// The duplicate-delivery check fires first here; build a real
		// double-recv instead.
		p = Plan{Nodes: 4, Blocks: 2, Transfers: []Transfer{
			{Round: 0, From: 0, To: 1, Block: 0},
			{Round: 1, From: 0, To: 2, Block: 1},
			{Round: 2, From: 1, To: 3, Block: 0},
			{Round: 2, From: 2, To: 3, Block: 1},
			{Round: 3, From: 0, To: 1, Block: 1},
			{Round: 3, From: 0, To: 2, Block: 0},
		}}
		if err := p.Validate(); err != nil {
			t.Fatalf("base validation: %v", err)
		}
		err := p.ValidateStrict()
		if err == nil || !strings.Contains(err.Error(), "receives twice") {
			t.Errorf("ValidateStrict() = %v, want double-recv error", err)
		}
	}
}

// TestAllGeneratorsProduceValidPlans sweeps every built-in algorithm across a
// grid of group and block sizes and checks the full plan invariants.
func TestAllGeneratorsProduceValidPlans(t *testing.T) {
	blockCounts := []int{1, 2, 3, 7, 16, 64}
	for _, a := range Algorithms() {
		gen := New(a)
		for nodes := 1; nodes <= 33; nodes++ {
			for _, k := range blockCounts {
				p := gen.Plan(nodes, k)
				if p.Nodes != nodes || p.Blocks != k {
					t.Fatalf("%s(%d,%d): plan reports %d nodes %d blocks", gen.Name(), nodes, k, p.Nodes, p.Blocks)
				}
				if err := p.ValidateStrict(); err != nil {
					t.Fatalf("%s(%d,%d): %v", gen.Name(), nodes, k, err)
				}
			}
		}
	}
}

func TestGeneratorsPanicOnInvalidArgs(t *testing.T) {
	for _, a := range Algorithms() {
		gen := New(a)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic for zero nodes", gen.Name())
				}
			}()
			gen.Plan(0, 1)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic for zero blocks", gen.Name())
				}
			}()
			gen.Plan(2, 0)
		}()
	}
}

func TestNewPanicsOnUnknownAlgorithm(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(Algorithm(0))
}

func TestAlgorithmStrings(t *testing.T) {
	tests := []struct {
		a    Algorithm
		want string
	}{
		{Sequential, "sequential send"},
		{Chain, "chain send"},
		{BinomialTree, "binomial tree"},
		{BinomialPipeline, "binomial pipeline"},
		{MPIScatterAllgather, "mpi bcast"},
		{Algorithm(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.a.String(); got != tt.want {
			t.Errorf("Algorithm(%d).String() = %q, want %q", tt.a, got, tt.want)
		}
	}
}

func TestSequentialRoundCount(t *testing.T) {
	p := New(Sequential).Plan(5, 7)
	if got, want := p.Rounds(), 4*7; got != want {
		t.Errorf("sequential rounds = %d, want %d", got, want)
	}
	if got, want := len(p.Transfers), 4*7; got != want {
		t.Errorf("sequential transfers = %d, want %d", got, want)
	}
}

func TestChainRoundCount(t *testing.T) {
	// Chain over n nodes with k blocks pipelines in n+k-2 rounds.
	p := New(Chain).Plan(6, 10)
	if got, want := p.Rounds(), 6+10-2; got != want {
		t.Errorf("chain rounds = %d, want %d", got, want)
	}
}

func TestBinomialTreeRoundCount(t *testing.T) {
	// log2(n) whole-message stages of k rounds each.
	p := New(BinomialTree).Plan(8, 5)
	if got, want := p.Rounds(), 3*5; got != want {
		t.Errorf("tree rounds = %d, want %d", got, want)
	}
}

func TestBinomialPipelineRoundCountPowerOfTwo(t *testing.T) {
	// The paper's l + k - 1 bound, exactly.
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		for _, k := range []int{1, 4, 20} {
			p := New(BinomialPipeline).Plan(n, k)
			want := log2Ceil(n) + k - 1
			if got := p.Rounds(); got != want {
				t.Errorf("pipeline(%d,%d) rounds = %d, want l+k-1 = %d", n, k, got, want)
			}
		}
	}
}

func TestBinomialPipelineRoundCountGeneralN(t *testing.T) {
	// The paper's power-of-two bound is l+k-1. The circulant
	// generalization for other sizes pays an O(l) tail (a looser result
	// than the paper's claimed one or two extra steps, costing a few
	// percent at realistic block counts); hold it to that envelope.
	for n := 3; n <= 70; n++ {
		for _, k := range []int{1, 5, 32} {
			p := New(BinomialPipeline).Plan(n, k)
			l := log2Ceil(n)
			if got, max := p.Rounds(), l+k-1+2*l+2; got > max {
				t.Errorf("pipeline(%d,%d) rounds = %d, want ≤ %d", n, k, got, max)
			}
		}
	}
}

// TestHypercubeExecutorMatchesClosedForm is the central equivalence
// property: an independent synchronous executor of the paper's exchange
// rules and the §4.4 closed form must produce the identical transfer
// multiset for every power-of-two size.
func TestHypercubeExecutorMatchesClosedForm(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		for _, k := range []int{1, 2, 3, 8, 17} {
			closed := closedFormPlan(n, k)
			greedy := Plan{Nodes: n, Blocks: k, Transfers: referencePipeline(n, k, nil, hypercubePartner)}
			cset := transferSet(closed)
			gset := transferSet(greedy)
			for tr := range cset {
				if !gset[tr] {
					t.Fatalf("n=%d k=%d: closed-form transfer %v missing from greedy", n, k, tr)
				}
			}
			for tr := range gset {
				if !cset[tr] {
					t.Fatalf("n=%d k=%d: greedy transfer %v absent from closed form", n, k, tr)
				}
			}
		}
	}
}

// TestCirculantWordScanMatchesReference pins pickBlock's word-at-a-time scan
// to the bit-by-bit reference: circulantPlan must emit exactly the transfers
// the reference executor emits, for every non-power-of-two size up to 70,
// block counts on both sides of each 64-bit word boundary, and both with the
// root holding everything and with a staggered root (the hybrid and shelter
// in-rack path).
func TestCirculantWordScanMatchesReference(t *testing.T) {
	for n := 3; n <= 70; n++ {
		if n&(n-1) == 0 {
			continue
		}
		for _, k := range []int{1, 63, 64, 65, 130, 512} {
			staggered := make([]int, k)
			for b := range staggered {
				staggered[b] = 3*b/2 - 1 // block 0 from the start, then a gap every other block
			}
			for _, avail := range [][]int{nil, staggered} {
				got := circulantPlan(n, k, avail)
				want := referencePipeline(n, k, avail, func(i, d int) int { return (i + 1<<d) % n })
				if !transfersEqual(got, want) {
					t.Fatalf("n=%d k=%d staggered=%v: word scan plan (%d transfers) ≠ bit-by-bit reference (%d transfers)",
						n, k, avail != nil, len(got), len(want))
				}
			}
		}
	}
}

func hypercubePartner(i, d int) int { return i ^ 1<<d }

// referencePipeline is an independent synchronous executor of the pipeline
// exchange rules, the executable specification for closedFormPlan (with
// hypercube partners) and circulantPlan (with circulant partners): at step j
// each node i sends to partner(i, j mod l); the root sends block min(j, k−1)
// when the partner lacks it, and otherwise every node sends the highest block
// it holds that its partner lacks, found by pickBlockBitwise. avail delays
// the root's holdings as in circulantPlan.
func referencePipeline(n, k int, avail []int, partner func(i, d int) int) []Transfer {
	l := log2Ceil(n)
	has := newHoldings(n, k)
	if avail != nil {
		for b := 0; b < k; b++ {
			has.bits[b/64] &^= 1 << (b % 64)
		}
		has.count[0] = 0
	}
	var out []Transfer
	for round := 0; !has.complete(); round++ {
		if round > 4*(len(avail)+l+k)+64 {
			panic(fmt.Sprintf("reference pipeline failed to converge for n=%d k=%d", n, k))
		}
		for b, a := range avail {
			if a < round {
				has.set(0, b)
			}
		}
		var arrived []Transfer
		for i := 0; i < n; i++ {
			to := partner(i, round%l)
			if to == 0 || to == i {
				continue
			}
			if b := pickBlockBitwise(has, i, to, round, k); b >= 0 {
				arrived = append(arrived, Transfer{Round: round, From: i, To: to, Block: b})
			}
		}
		for _, tr := range arrived {
			has.set(tr.To, tr.Block)
		}
		out = append(out, arrived...)
	}
	return out
}

// pickBlockBitwise is pickBlock's rule scanned one block at a time.
func pickBlockBitwise(h holdings, from, to, round, k int) int {
	if from == 0 {
		if fresh := min(round, k-1); h.get(0, fresh) && !h.get(to, fresh) {
			return fresh
		}
	}
	for b := k - 1; b >= 0; b-- {
		if h.get(from, b) && !h.get(to, b) {
			return b
		}
	}
	return -1
}

func transferSet(p Plan) map[Transfer]bool {
	s := make(map[Transfer]bool, len(p.Transfers))
	for _, tr := range p.Transfers {
		s[tr] = true
	}
	return s
}

// TestClosedFormMatchesFigure3 checks the first steps of the paper's worked
// example: 8 nodes, 3 blocks (Figure 3, center).
func TestClosedFormMatchesFigure3(t *testing.T) {
	p := closedFormPlan(8, 3)
	want := []Transfer{
		{Round: 0, From: 0, To: 1, Block: 0}, // sender injects block 0
		{Round: 1, From: 0, To: 2, Block: 1}, // sender injects block 1
		{Round: 1, From: 1, To: 3, Block: 0}, // first relay of block 0
		{Round: 2, From: 0, To: 4, Block: 2},
		{Round: 2, From: 1, To: 5, Block: 0},
		{Round: 2, From: 2, To: 6, Block: 1},
		{Round: 2, From: 3, To: 7, Block: 0},
	}
	set := transferSet(p)
	for _, tr := range want {
		if !set[tr] {
			t.Errorf("figure-3 transfer %v missing from plan", tr)
		}
	}
	// Total steps: l + k - 1 = 5.
	if got := p.Rounds(); got != 5 {
		t.Errorf("figure-3 rounds = %d, want 5", got)
	}
}

func TestBinomialPipelineStrictDegreePowerOfTwo(t *testing.T) {
	// Each node sends at most one and receives at most one block per step:
	// the bidirectional exchange discipline.
	p := New(BinomialPipeline).Plan(16, 12)
	if err := p.ValidateStrict(); err != nil {
		t.Fatal(err)
	}
}

func TestPerNodeOrdering(t *testing.T) {
	p := New(BinomialPipeline).Plan(8, 6)
	for rank, np := range p.PerNode() {
		for i := 1; i < len(np.Sends); i++ {
			if np.Sends[i].Round < np.Sends[i-1].Round {
				t.Fatalf("rank %d sends out of order: %v", rank, np.Sends)
			}
		}
		for i := 1; i < len(np.Recvs); i++ {
			if np.Recvs[i].Round < np.Recvs[i-1].Round {
				t.Fatalf("rank %d recvs out of order: %v", rank, np.Recvs)
			}
		}
		if rank == 0 && len(np.Recvs) != 0 {
			t.Errorf("root has %d receives", len(np.Recvs))
		}
		if rank != 0 && len(np.Recvs) != p.Blocks {
			t.Errorf("rank %d receives %d blocks, want %d", rank, len(np.Recvs), p.Blocks)
		}
	}
}

// TestQuickRandomPlansAreValid drives the generators with random sizes via
// testing/quick.
func TestQuickRandomPlansAreValid(t *testing.T) {
	f := func(nRaw, kRaw uint8, aRaw uint8) bool {
		nodes := int(nRaw)%40 + 1
		k := int(kRaw)%50 + 1
		algos := Algorithms()
		gen := New(algos[int(aRaw)%len(algos)])
		return gen.Plan(nodes, k).ValidateStrict() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHybridPlanValidAcrossRackShapes(t *testing.T) {
	tests := []struct {
		name     string
		rackSize int
		nodes    int
	}{
		{"even racks", 4, 16},
		{"ragged last rack", 4, 14},
		{"single rack", 16, 12},
		{"racks of one", 1, 6},
		{"two big racks", 8, 16},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rackOf := make([]int, tt.nodes)
			for i := range rackOf {
				rackOf[i] = i / tt.rackSize
			}
			for _, k := range []int{1, 4, 24} {
				p := HybridGen{RackOf: rackOf}.Plan(tt.nodes, k)
				if err := p.Validate(); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
			}
		})
	}
}

func TestHybridCrossRackTransferCount(t *testing.T) {
	// Only leader-phase transfers cross racks: k blocks to each of the
	// r-1 non-root leaders... at least, every cross-rack transfer must
	// involve two leaders.
	rackOf := make([]int, 16)
	for i := range rackOf {
		rackOf[i] = i / 4
	}
	p := HybridGen{RackOf: rackOf}.Plan(16, 8)
	leaders := map[int]bool{0: true, 4: true, 8: true, 12: true}
	for _, tr := range p.Transfers {
		if rackOf[tr.From] != rackOf[tr.To] && (!leaders[tr.From] || !leaders[tr.To]) {
			t.Fatalf("cross-rack transfer %v between non-leaders", tr)
		}
	}
}

func TestHybridPanicsOnBadRackOf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for short RackOf")
		}
	}()
	HybridGen{RackOf: []int{0}}.Plan(4, 2)
}

func TestPlanRoundsEmpty(t *testing.T) {
	if got := (Plan{Nodes: 1, Blocks: 1}).Rounds(); got != 0 {
		t.Errorf("empty plan rounds = %d, want 0", got)
	}
}

func TestLog2Ceil(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4}, {17, 5}, {1024, 10},
	}
	for _, tt := range tests {
		if got := log2Ceil(tt.n); got != tt.want {
			t.Errorf("log2Ceil(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func ExampleBinomialPipelineGen_Plan() {
	p := BinomialPipelineGen{}.Plan(4, 2)
	for _, tr := range p.Transfers {
		fmt.Printf("round %d: %d -> %d (block %d)\n", tr.Round, tr.From, tr.To, tr.Block)
	}
	// Output:
	// round 0: 0 -> 1 (block 0)
	// round 1: 0 -> 2 (block 1)
	// round 1: 1 -> 3 (block 0)
	// round 2: 0 -> 1 (block 1)
	// round 2: 2 -> 3 (block 1)
	// round 2: 3 -> 2 (block 0)
}
