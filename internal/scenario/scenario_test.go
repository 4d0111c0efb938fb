package scenario

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestLibraryConfigsValidateAndCompile is the gate every shipped scenario
// must pass: valid, compilable, and the advertised length.
func TestLibraryConfigsValidateAndCompile(t *testing.T) {
	lib := Library()
	if len(lib) != len(LibraryNames()) {
		t.Fatalf("library has %d configs, names list %d", len(lib), len(LibraryNames()))
	}
	for _, name := range LibraryNames() {
		cfg, ok := lib[name]
		if !ok {
			t.Fatalf("library missing %q", name)
		}
		if cfg.Name != name {
			t.Errorf("library[%q].Name = %q", name, cfg.Name)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		s, err := Compile(cfg)
		if err != nil {
			t.Errorf("%s: compile: %v", name, err)
			continue
		}
		if len(s.Events) != cfg.Writes {
			t.Errorf("%s: %d events, want %d", name, len(s.Events), cfg.Writes)
		}
		for _, ev := range s.Events {
			if ev.Size <= 0 {
				t.Fatalf("%s: event %d has size %d", name, ev.Seq, ev.Size)
			}
			if len(ev.Group) < 2 {
				t.Fatalf("%s: event %d group %v too small", name, ev.Seq, ev.Group)
			}
			for _, m := range ev.Group {
				if m < 0 || m >= cfg.Nodes {
					t.Fatalf("%s: event %d member %d outside [0,%d)", name, ev.Seq, m, cfg.Nodes)
				}
			}
		}
	}
}

// TestCompileDeterministic double-compiles every shipped config and
// requires byte-identical event streams — the package's core contract.
func TestCompileDeterministic(t *testing.T) {
	for name, cfg := range Library() {
		a, err := Compile(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Compile(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ea, err := a.MarshalEvents()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eb, err := b.MarshalEvents()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(ea, eb) {
			t.Errorf("%s: double-compile diverged", name)
		}
		ha, _ := a.SHA256()
		hb, _ := b.SHA256()
		if ha != hb || ha == "" {
			t.Errorf("%s: digests %q vs %q", name, ha, hb)
		}
	}
}

// TestConfigJSONRoundTrip pins that every shipped config survives
// Marshal→Load unchanged — the property that keeps the scenarios/ files
// and the Go library from drifting apart.
func TestConfigJSONRoundTrip(t *testing.T) {
	for name, cfg := range Library() {
		data, err := cfg.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Errorf("%s: round trip changed the config:\n%s", name, data)
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"name":"x","nodes":4,"writes":1,"arrival":{"kind":"closed"},"sizes":{"kind":"fixed","bytes":1},"groups":{"kind":"roster","members":[0,1]},"typo_field":1}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() Config {
		c := Cosmos()
		return c
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"missing name", func(c *Config) { c.Name = "" }},
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero writes", func(c *Config) { c.Writes = 0 }},
		{"bad arrival", func(c *Config) { c.Arrival.Kind = "warp" }},
		{"poisson without rate", func(c *Config) { c.Arrival = Arrival{Kind: ArrivalPoisson} }},
		{"bad size kind", func(c *Config) { c.Sizes.Kind = "gaussian" }},
		{"lognormal mean below median", func(c *Config) { c.Sizes.MeanBytes = c.Sizes.MedianBytes / 2 }},
		{"bad group kind", func(c *Config) { c.Groups.Kind = "mesh" }},
		{"kofn pool outside cluster", func(c *Config) { c.Groups.N = 16 }},
		{"roster outside cluster", func(c *Config) {
			c.Groups = GroupConfig{Kind: GroupRoster, Members: []int{0, 99}}
		}},
		{"roster repeats", func(c *Config) {
			c.Groups = GroupConfig{Kind: GroupRoster, Members: []int{0, 0}}
		}},
		{"tenant without weight", func(c *Config) { c.Tenants = []Tenant{{Name: "t"}} }},
		{"tenant without name", func(c *Config) { c.Tenants = []Tenant{{Weight: 1}} }},
		{"fault kind", func(c *Config) { c.Faults = []Fault{{Kind: "meteor", AtFraction: 0.5}} }},
		{"fault node range", func(c *Config) { c.Faults = []Fault{{Kind: FaultCrash, AtFraction: 0.5, Node: 99}} }},
		{"fault at zero", func(c *Config) { c.Faults = []Fault{{Kind: FaultCrash, AtFraction: 0, Node: 1}} }},
		{"partition whole cluster", func(c *Config) {
			c.Faults = []Fault{{Kind: FaultPartition, AtFraction: 0.5, RackSize: 16}}
		}},
		{"cross-traffic from out of range", func(c *Config) {
			c.CrossTraffic = []CrossFlow{{From: -1, To: 1, StopSec: 1}}
		}},
		{"cross-traffic to out of range", func(c *Config) {
			c.CrossTraffic = []CrossFlow{{From: 0, To: 99, StopSec: 1}}
		}},
		{"cross-traffic self-loop", func(c *Config) {
			c.CrossTraffic = []CrossFlow{{From: 1, To: 1, StopSec: 1}}
		}},
		{"cross-traffic negative streams", func(c *Config) {
			c.CrossTraffic = []CrossFlow{{From: 0, To: 1, Streams: -1, StopSec: 1}}
		}},
		{"cross-traffic negative chunk", func(c *Config) {
			c.CrossTraffic = []CrossFlow{{From: 0, To: 1, ChunkBytes: -1, StopSec: 1}}
		}},
		{"cross-traffic missing stop", func(c *Config) {
			c.CrossTraffic = []CrossFlow{{From: 0, To: 1}}
		}},
		{"cross-traffic stop before start", func(c *Config) {
			c.CrossTraffic = []CrossFlow{{From: 0, To: 1, StartSec: 2, StopSec: 1}}
		}},
		{"fabric loss rate out of range", func(c *Config) {
			c.Replay.Fabric = &Fabric{LossRate: 1, Reliab: true}
		}},
		{"fabric negative reorder rate", func(c *Config) {
			c.Replay.Fabric = &Fabric{ReorderRate: -0.1, Reliab: true}
		}},
		{"fabric regions miss nodes", func(c *Config) {
			c.Replay.Fabric = &Fabric{Regions: []int{0, 1}}
		}},
		{"fabric negative region", func(c *Config) {
			c.Replay.Fabric = &Fabric{Regions: make([]int, c.Nodes)}
			c.Replay.Fabric.Regions[3] = -1
		}},
		{"fabric rtt matrix not square", func(c *Config) {
			c.Replay.Fabric = &Fabric{RTTMs: [][]float64{{1, 2}, {1}}}
		}},
		{"fabric rtt matrix misses region", func(c *Config) {
			regions := make([]int, c.Nodes)
			regions[0] = 2
			c.Replay.Fabric = &Fabric{Regions: regions, RTTMs: [][]float64{{1, 2}, {2, 1}}}
		}},
		{"fabric negative rtt", func(c *Config) {
			c.Replay.Fabric = &Fabric{RTTMs: [][]float64{{-1}}}
		}},
		{"fabric loss without reliab", func(c *Config) {
			c.Replay.Fabric = &Fabric{LossRate: 0.01}
		}},
		{"fabric reorder without reliab", func(c *Config) {
			c.Replay.Fabric = &Fabric{ReorderRate: 0.01}
		}},
		{"fabric fec without reliab", func(c *Config) {
			c.Replay.Fabric = &Fabric{FECGroup: 8}
		}},
		{"fabric negative fec group", func(c *Config) {
			c.Replay.Fabric = &Fabric{FECGroup: -1, Reliab: true}
		}},
		{"fabric rto without reliab", func(c *Config) {
			c.Replay.Fabric = &Fabric{RTOMs: 100}
		}},
		{"fabric negative rto", func(c *Config) {
			c.Replay.Fabric = &Fabric{RTOMs: -1, Reliab: true}
		}},
	} {
		cfg := base()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestArrivalTimes(t *testing.T) {
	cfg := Churn() // paced at 200 µs
	s, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range s.Events {
		if want := float64(i) * 200e-6; ev.At != want {
			t.Fatalf("paced event %d at %g, want %g", i, ev.At, want)
		}
	}

	cfg = MixedTenants() // poisson
	s, err = Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := 0.0
	for i, ev := range s.Events {
		if ev.At <= last {
			t.Fatalf("poisson event %d at %g, not after %g", i, ev.At, last)
		}
		last = ev.At
	}
	// Mean inter-arrival should be near 1/rate.
	mean := last / float64(len(s.Events))
	if mean < 0.2/2000 || mean > 5.0/2000 {
		t.Errorf("poisson mean gap %g, want ≈%g", mean, 1.0/2000)
	}

	cfg = Cosmos() // closed loop
	cfg.Writes = 10
	s, err = Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range s.Events {
		if ev.At != ClosedLoop {
			t.Fatalf("closed-loop event %d has At %g", ev.Seq, ev.At)
		}
	}
	if got := s.Concurrency(); got != 4 {
		t.Errorf("cosmos concurrency = %d, want 4", got)
	}
}

func TestChurnPhases(t *testing.T) {
	s, err := Compile(Churn())
	if err != nil {
		t.Fatal(err)
	}
	wantA := []int{0, 1, 2, 3, 4}
	wantB := []int{0, 1, 5, 6, 7}
	for i, ev := range s.Events {
		switch {
		case i < 20:
			if !reflect.DeepEqual(ev.Group, wantA) {
				t.Fatalf("event %d group %v, want %v", i, ev.Group, wantA)
			}
		case i < 40:
			if !reflect.DeepEqual(ev.Group, wantB) {
				t.Fatalf("event %d group %v, want %v", i, ev.Group, wantB)
			}
		default:
			if len(ev.Group) != 4 || ev.Group[0] != 0 {
				t.Fatalf("event %d group %v, want root 0 + 3 of 7", i, ev.Group)
			}
			for j := 1; j < 4; j++ {
				if ev.Group[j] < 1 || ev.Group[j] > 7 {
					t.Fatalf("event %d member %d outside pool", i, ev.Group[j])
				}
				if j > 1 && ev.Group[j-1] >= ev.Group[j] {
					t.Fatalf("event %d group %v unsorted", i, ev.Group)
				}
			}
		}
	}
}

func TestTenantMix(t *testing.T) {
	s, err := Compile(MixedTenants())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range s.Events {
		counts[ev.Tenant]++
		switch ev.Tenant {
		case "meta":
			if ev.Size != 16*kib {
				t.Fatalf("meta event %d size %d", ev.Seq, ev.Size)
			}
			if len(ev.Group) != 3 {
				t.Fatalf("meta event %d group %v, want root + 2", ev.Seq, ev.Group)
			}
		case "bulk":
			if len(ev.Group) != 4 {
				t.Fatalf("bulk event %d group %v, want root + 3", ev.Seq, ev.Group)
			}
		default:
			t.Fatalf("event %d has unknown tenant %q", ev.Seq, ev.Tenant)
		}
	}
	// 3:1 weights over 200 writes — meta should clearly dominate.
	if counts["meta"] <= counts["bulk"] {
		t.Errorf("tenant mix %v does not reflect 3:1 weights", counts)
	}
}

// TestSingleTenantDrawsNothingExtra pins the skip-degenerate-draws rule: a
// one-tenant scenario compiles the same stream as the equivalent untenanted
// scenario, so adding a tenant label never perturbs the workload.
func TestSingleTenantDrawsNothingExtra(t *testing.T) {
	plain := Cosmos()
	plain.Writes = 50
	labeled := plain
	labeled.Tenants = []Tenant{{Name: "only", Weight: 1}}

	a, err := Compile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(labeled)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Size != eb.Size || !reflect.DeepEqual(ea.Group, eb.Group) {
			t.Fatalf("event %d diverged: %+v vs %+v", i, ea, eb)
		}
		if eb.Tenant != "only" {
			t.Fatalf("event %d tenant %q", i, eb.Tenant)
		}
	}
}

func TestBucketSampler(t *testing.T) {
	s, err := NewSizeSampler(SizeConfig{Kind: SizeBuckets, Buckets: []SizeBucket{
		{Bytes: 100, Weight: 1}, {Bytes: 1000, Weight: 9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	counts := map[int]int{}
	for i := 0; i < 10_000; i++ {
		counts[s.Sample(rng)]++
	}
	if len(counts) != 2 {
		t.Fatalf("draw values %v, want exactly the two buckets", counts)
	}
	if frac := float64(counts[1000]) / 10_000; frac < 0.85 || frac > 0.95 {
		t.Errorf("heavy bucket drawn %.2f of the time, want ≈0.9", frac)
	}
}

func TestEnumerateGroups(t *testing.T) {
	got := EnumerateGroups(GroupConfig{Kind: GroupKofN, K: 3, N: 5}, 100)
	if len(got) != 10 {
		t.Fatalf("C(5,3) enumeration has %d entries", len(got))
	}
	if !reflect.DeepEqual(got[0], []int{0, 1, 2}) || !reflect.DeepEqual(got[9], []int{2, 3, 4}) {
		t.Errorf("enumeration order wrong: first %v last %v", got[0], got[9])
	}
	if EnumerateGroups(GroupConfig{Kind: GroupKofN, K: 10, N: 30}, 100) != nil {
		t.Error("over-limit enumeration did not return nil")
	}
	mapped := EnumerateGroups(GroupConfig{Kind: GroupKofN, K: 2, N: 3, Base: 1, Root: []int{0}}, 100)
	if !reflect.DeepEqual(mapped[0], []int{0, 1, 2}) || !reflect.DeepEqual(mapped[2], []int{0, 2, 3}) {
		t.Errorf("base/root mapping wrong: %v", mapped)
	}
	churn := EnumerateGroups(Churn().Groups, 1000)
	if len(churn) != 2+35 { // two rosters + C(7,3)
		t.Errorf("churn enumeration has %d entries, want 37", len(churn))
	}
}

func TestBinomialAndRank(t *testing.T) {
	for _, tc := range []struct{ n, k, want int }{
		{15, 3, 455}, {15, 0, 1}, {15, 15, 1}, {5, 6, 0}, {10, 2, 45}, {64, 1, 64},
	} {
		if got := Binomial(tc.n, tc.k); got != tc.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
	for _, bad := range []struct {
		g []int
		n int
	}{
		{[]int{3, 3}, 5},      // repeated
		{[]int{0, 9}, 5},      // out of range
		{[]int{2, 1, 0}, 15},  // unsorted
		{[]int{-1, 1, 2}, 15}, // negative
	} {
		if got := CombinationRank(bad.g, bad.n); got != -1 {
			t.Errorf("CombinationRank(%v, %d) = %d, want -1", bad.g, bad.n, got)
		}
	}
}

func TestKofNSamplerAllocationFree(t *testing.T) {
	s, err := NewGroupSampler(GroupConfig{Kind: GroupKofN, K: 3, N: 15, Base: 1, Root: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]int, 4)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = s.Sample(rng, buf)
	})
	if allocs != 0 {
		t.Errorf("kofn sample allocates %.1f per draw, want 0", allocs)
	}
}
