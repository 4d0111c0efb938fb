package simnet

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The fabric recovers the deterministic orders its allocation depends on —
// component flows by id, working-set resources by name — in two ways: by
// sorting what a traversal discovered when that is a few items among many,
// and by filtering the ordered registries when it spans much of the fabric.
// The functions below are the registry walk alone, kept as the reference,
// with the waterfill the fabric runs over the order it yields.

// refComponent is every flow transitively sharing a resource with path, in
// the order of the id-sorted flow registry.
func refComponent(f *Fabric, path []*Resource) []*Flow {
	seenRes := map[*Resource]bool{}
	seenFlow := map[*Flow]bool{}
	stack := []*Resource{}
	for _, r := range path {
		if !seenRes[r] {
			seenRes[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fl := range r.flows {
			if seenFlow[fl] {
				continue
			}
			seenFlow[fl] = true
			for _, rr := range fl.path {
				if !seenRes[rr] {
					seenRes[rr] = true
					stack = append(stack, rr)
				}
			}
		}
	}
	var flows []*Flow
	for _, fl := range f.allFlows {
		if seenFlow[fl] {
			flows = append(flows, fl)
		}
	}
	return flows
}

// refWorkingSet is every resource the flows cross, in the order of the
// name-sorted resource registry.
func refWorkingSet(f *Fabric, flows []*Flow) []*Resource {
	on := map[*Resource]bool{}
	for _, fl := range flows {
		for _, r := range fl.path {
			on[r] = true
		}
	}
	var res []*Resource
	for _, r := range f.allResources {
		if on[r] {
			res = append(res, r)
		}
	}
	return res
}

// refRates is the max-min fair allocation of flows over res as the fabric
// computes it: a lazy priority queue of (fair share, res index) offers, one
// per resource, where a popped offer whose share went stale is re-offered at
// the current share and a current one fixes that resource's unfixed flows.
// The queue here is a plain slice searched for its minimum; keys are unique
// per resource, so the pop order is the heap's.
func refRates(flows []*Flow, res []*Resource) []float64 {
	type offer struct {
		share float64
		idx   int
	}
	idx := map[*Resource]int{}
	capLeft := make([]float64, len(res))
	count := make([]int, len(res))
	for i, r := range res {
		idx[r] = i
		capLeft[i] = r.capacity
	}
	pos := map[*Flow]int{}
	for j, fl := range flows {
		pos[fl] = j
		for _, r := range fl.path {
			count[idx[r]]++
		}
	}
	var offers []offer
	for i := range res {
		offers = append(offers, offer{capLeft[i] / float64(count[i]), i})
	}
	rates := make([]float64, len(flows))
	fixed := make([]bool, len(flows))
	for unfixed := len(flows); unfixed > 0 && len(offers) > 0; {
		m := 0
		for i, o := range offers {
			if o.share < offers[m].share || o.share == offers[m].share && o.idx < offers[m].idx {
				m = i
			}
		}
		o := offers[m]
		offers = append(offers[:m], offers[m+1:]...)
		if count[o.idx] == 0 {
			continue
		}
		if cur := capLeft[o.idx] / float64(count[o.idx]); cur != o.share {
			offers = append(offers, offer{cur, o.idx})
			continue
		}
		for _, fl := range res[o.idx].flows {
			j := pos[fl]
			if fixed[j] {
				continue
			}
			fixed[j] = true
			rates[j] = o.share
			unfixed--
			for _, r := range fl.path {
				k := idx[r]
				capLeft[k] -= o.share
				if capLeft[k] < 0 {
					capLeft[k] = 0
				}
				count[k]--
			}
		}
	}
	return rates
}

// fabricAction is one scripted step of a random cluster workload.
type fabricAction struct {
	at       float64
	kind     int // 0 transfer, 1 slow-link override, 2 break link, 3 restore link, 4 fail node, 5 restore node
	src, dst NodeID
	value    float64 // transfer size or override bandwidth
}

func randomFabricScript(rng *rand.Rand, nodes int) []fabricAction {
	var script []fabricAction
	for i := 0; i < 400; i++ {
		a := fabricAction{
			at:  rng.Float64() * 20,
			src: NodeID(rng.Intn(nodes)),
			dst: NodeID(rng.Intn(nodes)),
		}
		switch p := rng.Intn(100); {
		case p < 80:
			a.value = float64(20 + rng.Intn(400))
		case p < 88:
			a.kind = 1
			a.value = float64(rng.Intn(4)) * 30 // zero removes the override
		case p < 93:
			a.kind = 2
		case p < 97:
			a.kind = 3
		case p < 99:
			a.kind = 4
		default:
			a.kind = 5
		}
		script = append(script, a)
	}
	return script
}

type fabricRun struct {
	done     []float64 // per transfer: completion time, -1 when broken
	sorted   int       // orderings recovered by sorting
	filtered int       // orderings recovered from a registry
}

// runFabricScript plays script on a fresh two-tier cluster with oversubscribed
// trunks. pad, when set, loads the registries with inert entries first, so
// every ordering is recovered by sorting; otherwise, after every event, it
// checks each component's flow order, working-set order and rates against
// the reference.
func runFabricScript(t *testing.T, nodes int, trunk float64, script []fabricAction, pad bool) fabricRun {
	t.Helper()
	s := NewSim(1)
	c, err := NewCluster(s, ClusterConfig{
		Nodes:          nodes,
		LinkBandwidth:  100,
		Latency:        0.01,
		RackSize:       4,
		TrunkBandwidth: trunk,
		RetryTimeout:   0.05,
		CPU:            DefaultCPUConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := c.fabric
	if pad {
		for i := 0; i < 2048; i++ {
			f.allFlows = append(f.allFlows, &Flow{id: -1, src: -1, dst: -1})
			f.registerResource(NewResource(fmt.Sprintf("~pad%04d", i), 1))
		}
	}
	var run fabricRun
	for _, a := range script {
		a := a
		s.At(a.at, func() {
			switch a.kind {
			case 0:
				i := len(run.done)
				run.done = append(run.done, math.NaN())
				c.Transfer(a.src, a.dst, a.value, func(broken bool) {
					run.done[i] = s.Now()
					if broken {
						run.done[i] = -1
					}
				})
			case 1:
				c.SetLinkBandwidth(a.src, a.dst, a.value)
			case 2:
				c.BreakLink(a.src, a.dst)
			case 3:
				c.RestoreLink(a.src, a.dst)
			case 4:
				c.FailNode(a.src)
			case 5:
				c.RestoreNode(a.src)
			}
		})
	}
	for s.Step() {
		checked := map[*Flow]bool{}
		for _, fl := range f.allFlows {
			if fl.finished || fl.src < 0 || checked[fl] {
				continue
			}
			got := slices.Clone(f.component(fl.path))
			for _, g := range got {
				checked[g] = true
			}
			f.workingSet(got)
			for _, sorted := range []bool{
				sortCheaper(len(got), len(f.allFlows)),
				sortCheaper(len(f.resources), len(f.allResources)),
			} {
				if sorted {
					run.sorted++
				} else {
					run.filtered++
				}
			}
			if pad {
				continue
			}
			want := refComponent(f, fl.path)
			if !slices.Equal(got, want) {
				t.Fatalf("t=%g: component of flow %d: got %v, want %v", s.Now(), fl.id, flowIDs(got), flowIDs(want))
			}
			wantRes := refWorkingSet(f, want)
			if !slices.Equal(f.resources, wantRes) {
				t.Fatalf("t=%g: working set of flow %d's component: got %v, want %v", s.Now(), fl.id, resNames(f.resources), resNames(wantRes))
			}
			for j, r := range refRates(want, wantRes) {
				if math.Float64bits(want[j].rate) != math.Float64bits(r) {
					t.Fatalf("t=%g: flow %d rate %v, reference %v", s.Now(), want[j].id, want[j].rate, r)
				}
			}
		}
	}
	return run
}

func flowIDs(flows []*Flow) []int64 {
	ids := make([]int64, len(flows))
	for i, fl := range flows {
		ids[i] = fl.id
	}
	return ids
}

func resNames(res []*Resource) []string {
	names := make([]string, len(res))
	for i, r := range res {
		names[i] = r.name
	}
	return names
}

// TestFabricFastPathMatchesRegistryWalk plays seeded random workloads —
// transfers within and across racks of an oversubscribed two-tier cluster,
// slow-link overrides installed and removed mid-flow, and link and node
// failures that cancel flows — and holds the fabric to the registry-walk
// reference at every event. It then replays each workload with registries
// padded so that no ordering is recovered by filtering, and requires every
// transfer to complete at the bit-identical time.
func TestFabricFastPathMatchesRegistryWalk(t *testing.T) {
	var sorted, filtered int
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 8 + 4*rng.Intn(5)
		trunk := 100 * float64(1+rng.Intn(4)) / 2
		script := randomFabricScript(rng, nodes)
		base := runFabricScript(t, nodes, trunk, script, false)
		padded := runFabricScript(t, nodes, trunk, script, true)
		sorted += base.sorted
		filtered += base.filtered
		if padded.filtered != 0 {
			t.Fatalf("seed %d: the padded run filtered %d orderings", seed, padded.filtered)
		}
		if len(base.done) != len(padded.done) {
			t.Fatalf("seed %d: %d transfers, %d when padded", seed, len(base.done), len(padded.done))
		}
		for i := range base.done {
			if math.IsNaN(base.done[i]) {
				t.Fatalf("seed %d: transfer %d never completed", seed, i)
			}
			if math.Float64bits(base.done[i]) != math.Float64bits(padded.done[i]) {
				t.Fatalf("seed %d: transfer %d completed at %v, %v when padded", seed, i, base.done[i], padded.done[i])
			}
		}
	}
	if sorted == 0 || filtered == 0 {
		t.Fatalf("the workloads recovered %d orderings by sorting and %d by filtering; both paths must run", sorted, filtered)
	}
}

// BenchmarkOrderRecovery times the two ways the fabric recovers id order for
// a component of n flows among a registry of total: sorting the discovered
// flows, and filtering the registry for the marked ones (stopping at the
// last). sortCheaper's crossover comes from it; run with
// go test -run '^$' -bench OrderRecovery ./internal/simnet/
func BenchmarkOrderRecovery(b *testing.B) {
	for _, total := range []int{256, 512, 1024} {
		reg := make([]*Flow, total)
		for i := range reg {
			reg[i] = &Flow{id: int64(i)}
		}
		for _, ratio := range []int{4, 8, 12, 16, 24, 32} {
			n := total / ratio
			const gen = 1
			found := make([]*Flow, n)
			for i, p := range rand.New(rand.NewSource(1)).Perm(total)[:n] {
				found[i] = reg[p]
				reg[p].visitGen = gen
			}
			buf := make([]*Flow, n)
			b.Run(fmt.Sprintf("total=%d/ratio=%d/sort", total, ratio), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, found)
					slices.SortFunc(buf, func(a, b *Flow) int { return cmp.Compare(a.id, b.id) })
				}
			})
			b.Run(fmt.Sprintf("total=%d/ratio=%d/filter", total, ratio), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, found)
					out := buf[:0]
					for _, fl := range reg {
						if fl.visitGen == gen {
							if out = append(out, fl); len(out) == n {
								break
							}
						}
					}
				}
			})
			for _, fl := range found {
				fl.visitGen = 0
			}
		}
	}
}
