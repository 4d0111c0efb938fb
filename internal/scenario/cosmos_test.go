package scenario

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestCosmosSizesMatchPaperStatistics holds the canned Cosmos size model to
// the statistics the paper publishes about its trace: median 12 MB, mean
// 29 MB, "hundreds of bytes to hundreds of MB".
func TestCosmosSizesMatchPaperStatistics(t *testing.T) {
	s, err := NewSizeSampler(Cosmos().Sizes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 200_000
	sizes := make([]float64, n)
	var sum float64
	for i := range sizes {
		sizes[i] = float64(s.Sample(rng))
		sum += sizes[i]
	}
	sort.Float64s(sizes)
	median, mean := sizes[n/2], sum/n
	// Clamping shaves the extreme tail, so allow ±5% on the median and
	// ±15% on the mean.
	if math.Abs(median-12*mib)/(12*mib) > 0.05 {
		t.Errorf("median = %.1f MiB, want ≈12 MiB", median/mib)
	}
	if math.Abs(mean-29*mib)/(29*mib) > 0.15 {
		t.Errorf("mean = %.1f MiB, want ≈29 MiB", mean/mib)
	}
	if sizes[0] < DefaultMinBytes || sizes[n-1] > DefaultMaxBytes {
		t.Errorf("size range [%v, %v] outside clamp", sizes[0], sizes[n-1])
	}
	if sizes[0] >= 100*kib {
		t.Errorf("smallest of %d draws is %v — tail too thin", n, sizes[0])
	}
	if sizes[n-1] <= 100*mib {
		t.Errorf("largest of %d draws is %v — tail too thin", n, sizes[n-1])
	}
}

// cosmosGroupOK reports whether members is the root 0 followed by k
// strictly increasing replicas from pool nodes 1..n.
func cosmosGroupOK(members []int, k, n int) bool {
	if len(members) != k+1 || members[0] != 0 || members[1] < 1 || members[k] > n {
		return false
	}
	for j := 2; j <= k; j++ {
		if members[j-1] >= members[j] {
			return false
		}
	}
	return true
}

// compileCosmos compiles the Cosmos config with its seed, length and
// k-of-n shape overridden.
func compileCosmos(t *testing.T, seed int64, writes, k, n int) *Stream {
	t.Helper()
	cfg := Cosmos()
	cfg.Seed, cfg.Writes, cfg.Groups.K, cfg.Groups.N = seed, writes, k, n
	s, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCosmosGroupsAre455SortedTriples(t *testing.T) {
	g := Cosmos().Groups
	groups := EnumerateGroups(g, Binomial(g.N, g.K))
	if len(groups) != 455 { // C(15,3)
		t.Fatalf("groups = %d, want 455", len(groups))
	}
	seen := make(map[[4]int]bool)
	for _, m := range groups {
		if !cosmosGroupOK(m, 3, 15) || seen[[4]int(m)] {
			t.Fatalf("group %v malformed or repeated", m)
		}
		seen[[4]int(m)] = true
	}
}

// TestCosmosGroupIndexRoundTrips pins the index examples/cosmos uses: each
// pre-created group, root stripped and replicas mapped back to the pool,
// ranks to its own position in the enumeration.
func TestCosmosGroupIndexRoundTrips(t *testing.T) {
	g := Cosmos().Groups
	for i, members := range EnumerateGroups(g, Binomial(g.N, g.K)) {
		pool := make([]int, g.K)
		for j := range pool {
			pool[j] = members[len(g.Root)+j] - g.Base
		}
		if got := CombinationRank(pool, g.N); got != i {
			t.Fatalf("rank(%v) = %d, want %d", members, got, i)
		}
	}
}

// TestCosmosGroupIndexMatchesScanAllK pins the closed-form combinatorial
// rank against the enumeration order across replica counts, including the
// k = 1 and k = n edges.
func TestCosmosGroupIndexMatchesScanAllK(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{15, 3}, {15, 1}, {9, 4}, {8, 2}, {10, 4}, {6, 6}, {12, 5},
	} {
		groups := EnumerateGroups(GroupConfig{Kind: GroupKofN, K: tc.k, N: tc.n}, 1000)
		if len(groups) != Binomial(tc.n, tc.k) {
			t.Fatalf("C(%d,%d) enumeration has %d entries", tc.n, tc.k, len(groups))
		}
		for i, g := range groups {
			if got := CombinationRank(g, tc.n); got != i {
				t.Fatalf("n %d k %d: rank(%v) = %d, want %d", tc.n, tc.k, g, got, i)
			}
		}
	}
}

func TestCosmosWritesTargetValidGroups(t *testing.T) {
	for _, ev := range compileCosmos(t, 3, 2000, 3, 15).Events {
		if !cosmosGroupOK(ev.Group, 3, 15) || ev.Size < DefaultMinBytes || ev.Size > DefaultMaxBytes {
			t.Fatalf("write %d: size %d to group %v", ev.Seq, ev.Size, ev.Group)
		}
	}
}

func TestCosmosKofNWrites(t *testing.T) {
	for _, ev := range compileCosmos(t, 3, 500, 5, 9).Events {
		if !cosmosGroupOK(ev.Group, 5, 9) {
			t.Fatalf("write %d: group %v, want root 0 + sorted 5 of 9", ev.Seq, ev.Group)
		}
	}
}

func TestCosmosDeterministicBySeed(t *testing.T) {
	a, b := compileCosmos(t, 11, 100, 3, 15), compileCosmos(t, 11, 100, 3, 15)
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Error("seed 11 compiled two different streams")
	}
	if reflect.DeepEqual(a.Events, compileCosmos(t, 12, 100, 3, 15).Events) {
		t.Error("seeds 11 and 12 compiled the same stream")
	}
}

// TestCosmosConfigValidation checks the k-of-n bounds: any shape inside the
// cluster is valid, not only 3-of-15.
func TestCosmosConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		k, n int
		ok   bool
	}{{3, 2, false}, {-1, 15, false}, {2, 10, true}} {
		cfg := Cosmos()
		cfg.Groups.K, cfg.Groups.N = tc.k, tc.n
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%d-of-%d: Validate() = %v", tc.k, tc.n, err)
		}
	}
}

// TestCosmosNextIntoAllocationFree pins that one Cosmos write draw, size
// then group into a reused buffer, allocates nothing.
func TestCosmosNextIntoAllocationFree(t *testing.T) {
	sizes, err := NewSizeSampler(Cosmos().Sizes)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := NewGroupSampler(Cosmos().Groups)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	buf := make([]int, 4)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = sizes.Sample(rng)
		buf = groups.Sample(rng, buf)
	})
	if allocs != 0 {
		t.Errorf("a Cosmos draw allocates %.1f objects per write, want 0", allocs)
	}
}
