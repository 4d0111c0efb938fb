package schedule

import (
	"reflect"
	"testing"
)

// adaptiveRackOf maps rank → rank/rackSize, the layout every adaptive test
// uses (rank 0 is always the lowest rank of rack 0, as the planner requires).
func adaptiveRackOf(n, rackSize int) []int {
	rackOf := make([]int, n)
	for i := range rackOf {
		rackOf[i] = i / rackSize
	}
	return rackOf
}

// adaptiveMasks enumerates the contention buckets worth testing for one
// geometry: clean, one saturated rack, all non-root racks, a two-rack spread,
// and a mask polluted with bits the planner must strip (the root's rack and
// the flat-fabric bit).
func adaptiveMasks(n, rackSize int) []uint64 {
	lastRack := (n - 1) / rackSize
	masks := []uint64{0}
	if lastRack >= 1 {
		var all uint64
		for r := 1; r <= lastRack; r++ {
			all |= uint64(1) << uint(r)
		}
		masks = append(masks, uint64(1)<<1, all, all|1|flatHotBit)
		if lastRack >= 2 {
			masks = append(masks, uint64(1)<<1|uint64(1)<<uint(lastRack))
		}
	}
	return masks
}

// TestAdaptiveMaskedNodePlanMatchesPerNode is the planner-equivalence
// property extended over contention buckets: for every rack shape, group
// size, block count, and mask, the rank-local fast path must return exactly
// what splitting the global masked plan returns.
func TestAdaptiveMaskedNodePlanMatchesPerNode(t *testing.T) {
	for _, rackSize := range []int{1, 3, 4, 8} {
		for _, n := range []int{4, 8, 12, 16, 17, 32, 48, 64} {
			gen := AdaptiveGen{RackOf: adaptiveRackOf(n, rackSize)}
			for _, k := range nodePlanBlocks {
				for _, mask := range adaptiveMasks(n, rackSize) {
					want := gen.MaskedPlan(n, k, mask).PerNode()
					for r := 0; r < n; r++ {
						if got := gen.MaskedNodePlan(n, k, r, mask); !nodePlanEqual(got, want[r]) {
							t.Fatalf("adaptive(rack=%d n=%d k=%d rank=%d mask=%#x): MaskedNodePlan ≠ PerNode\n got: %+v\nwant: %+v",
								rackSize, n, k, r, mask, got, want[r])
						}
					}
				}
			}
		}
	}
}

// TestShelterPlanInvariants checks every sheltered hybrid the mask grid can
// produce for causality and coverage (Validate), and for the sheltering
// property itself: no transfer leaves a saturated rack for another rack, and
// each saturated rack's trunk is crossed inbound exactly once per block — the
// delivery minimum.
func TestShelterPlanInvariants(t *testing.T) {
	for _, tc := range []struct{ n, rackSize int }{
		{8, 4}, {16, 4}, {17, 4}, {24, 8}, {32, 8}, {64, 8}, {12, 1},
	} {
		rackOf := adaptiveRackOf(tc.n, tc.rackSize)
		gen := AdaptiveGen{RackOf: rackOf}
		for _, k := range nodePlanBlocks {
			for _, mask := range adaptiveMasks(tc.n, tc.rackSize) {
				eff := gen.effectiveMask(mask)
				if eff == 0 {
					continue
				}
				p := gen.MaskedPlan(tc.n, k, mask)
				if err := p.Validate(); err != nil {
					t.Fatalf("shelter(rack=%d n=%d k=%d mask=%#x): %v", tc.rackSize, tc.n, k, mask, err)
				}
				inbound := make(map[int]int)
				for _, tr := range p.Transfers {
					fr, to := rackOf[tr.From], rackOf[tr.To]
					if fr == to {
						continue
					}
					if eff&(uint64(1)<<uint(fr)) != 0 {
						t.Fatalf("shelter(rack=%d n=%d k=%d mask=%#x): transfer %+v relays out of saturated rack %d",
							tc.rackSize, tc.n, k, mask, tr, fr)
					}
					if eff&(uint64(1)<<uint(to)) != 0 {
						inbound[to]++
					}
				}
				for r := 0; r <= maxMaskRack; r++ {
					if eff&(uint64(1)<<uint(r)) == 0 {
						continue
					}
					if got := inbound[r]; got != k {
						t.Fatalf("shelter(rack=%d n=%d k=%d mask=%#x): saturated rack %d crossed inbound %d times, want exactly %d (one per block)",
							tc.rackSize, tc.n, k, mask, r, got, k)
					}
				}
			}
		}
	}
}

// TestAdaptiveMaskZeroSharesHybridCache pins the uncontended fast path: mask
// 0 (and any mask whose routable bits strip to nothing) must return exactly
// the static hybrid's plan, so an adaptive group that never sees contention
// is bit-identical to its static counterpart.
func TestAdaptiveMaskZeroSharesHybridCache(t *testing.T) {
	const n, k, rackSize = 32, 16, 8
	rackOf := adaptiveRackOf(n, rackSize)
	ad := AdaptiveGen{RackOf: rackOf}
	hy := HybridGen{RackOf: rackOf}
	for r := 0; r < n; r++ {
		want := hy.NodePlan(n, k, r)
		if got := ad.MaskedNodePlan(n, k, r, 0); !nodePlanEqual(got, want) {
			t.Fatalf("rank %d: mask-0 adaptive plan ≠ hybrid plan", r)
		}
		// Bits the shape cannot act on (the root's rack, the flat-fabric bit)
		// must strip back to the mask-0 plan.
		if got := ad.MaskedNodePlan(n, k, r, flatHotBit|1); !nodePlanEqual(got, want) {
			t.Fatalf("rank %d: stripped-to-zero mask plan ≠ hybrid plan", r)
		}
	}
}

// TestAdaptiveFlatFallbacks pins the flat-fabric forms: with no topology the
// adaptive planner is the binomial pipeline when cool and the chain when the
// host-contention bit is set; rack bits without a rack layout are ignored.
func TestAdaptiveFlatFallbacks(t *testing.T) {
	gen := AdaptiveGen{}
	for _, n := range []int{4, 16, 17} {
		for _, k := range nodePlanBlocks {
			cool := gen.MaskedPlan(n, k, 0)
			if !reflect.DeepEqual(cool, BinomialPipelineGen{}.Plan(n, k)) {
				t.Fatalf("flat(n=%d k=%d): mask-0 plan ≠ binomial pipeline", n, k)
			}
			if !reflect.DeepEqual(gen.MaskedPlan(n, k, uint64(1)<<5), cool) {
				t.Fatalf("flat(n=%d k=%d): rack bits changed a flat-fabric plan", n, k)
			}
			hot := gen.MaskedPlan(n, k, flatHotBit)
			if !reflect.DeepEqual(hot, chainGen{}.Plan(n, k)) {
				t.Fatalf("flat(n=%d k=%d): hot plan ≠ chain", n, k)
			}
			for r := 0; r < n; r++ {
				if got, want := gen.MaskedNodePlan(n, k, r, flatHotBit), (chainGen{}).NodePlan(n, k, r); !nodePlanEqual(got, want) {
					t.Fatalf("flat(n=%d k=%d rank=%d): hot MaskedNodePlan ≠ chain NodePlan", n, k, r)
				}
			}
		}
	}
}

// TestAdaptiveChurningSignalBoundsCacheKeys drives DecideMask with hundreds
// of oscillating contention samples — including values inside the hysteresis
// band — and plans from every mask it emits. However noisy the signal, the
// mask must stay inside the routable racks (two here), so the contention
// bucket, not the raw sample, selects the plan.
func TestAdaptiveChurningSignalBoundsCacheKeys(t *testing.T) {
	const n, k = 24, 8 // racks 0 (root's), 1, 2
	gen := AdaptiveGen{RackOf: adaptiveRackOf(n, 8)}
	var mask uint64
	planned := 0
	for i := 0; i < 400; i++ {
		sample := Contention{TrunkUp: []float64{
			5.0,                          // root rack: loud, but there is no route around it
			0.5 + float64(i%13)/10.0,     // rack 1 sweeps 0.5..1.7 through both thresholds
			0.5 + float64((i*7)%13)/10.0, // rack 2: decorrelated sweep
		}}
		mask = gen.DecideMask(sample, mask)
		if mask&^uint64(0b110) != 0 {
			t.Fatalf("sample %d: mask %#x sets bits outside the routable racks", i, mask)
		}
		if mask != 0 {
			gen.MaskedNodePlan(n, k, i%n, mask)
			planned++
		}
	}
	if planned == 0 {
		t.Fatal("signal sweep never produced a sheltered plan")
	}
}

// TestDecideMaskHysteresis pins the two-threshold quantizer: racks enter the
// mask at saturateAt, stay down to clearAt, and leave below it; the root's
// rack is never masked; trunk pressure is the max of the two directions. The
// flat-fabric bit follows the same discipline on the host-busy and
// credit-stall signals.
func TestDecideMaskHysteresis(t *testing.T) {
	topo := AdaptiveGen{RackOf: adaptiveRackOf(16, 4)} // racks 0..3
	bit1, bit2 := uint64(1)<<1, uint64(1)<<2
	topoCases := []struct {
		name string
		c    Contention
		prev uint64
		want uint64
	}{
		{"below threshold", Contention{TrunkUp: []float64{0, 1.24}}, 0, 0},
		{"enters at saturateAt", Contention{TrunkUp: []float64{0, 1.25}}, 0, bit1},
		{"holds inside the band", Contention{TrunkUp: []float64{0, 0.75}}, bit1, bit1},
		{"band pressure alone never enters", Contention{TrunkUp: []float64{0, 0.9}}, 0, 0},
		{"clears below clearAt", Contention{TrunkUp: []float64{0, 0.74}}, bit1, 0},
		{"downlink pressure counts", Contention{TrunkDown: []float64{0, 0, 1.3}}, 0, bit2},
		{"root rack never masked", Contention{TrunkUp: []float64{99, 0, 0}}, 0, 0},
		{"independent racks", Contention{TrunkUp: []float64{0, 1.5, 0.8}}, bit2, bit1 | bit2},
	}
	for _, tc := range topoCases {
		if got := topo.DecideMask(tc.c, tc.prev); got != tc.want {
			t.Errorf("topo %s: DecideMask = %#x, want %#x", tc.name, got, tc.want)
		}
	}

	flat := AdaptiveGen{}
	flatCases := []struct {
		name string
		c    Contention
		prev uint64
		want uint64
	}{
		{"idle", Contention{HostTx: 1, HostRx: 1}, 0, 0},
		{"enters at hostBusyAt", Contention{HostRx: 3}, 0, flatHotBit},
		{"stall alone enters", Contention{CreditStall: 0.5}, 0, flatHotBit},
		{"holds inside the band", Contention{HostTx: 1.6}, flatHotBit, flatHotBit},
		{"residual stall holds", Contention{HostTx: 1, CreditStall: 0.3}, flatHotBit, flatHotBit},
		{"clears below half-thresholds", Contention{HostTx: 1.4, CreditStall: 0.2}, flatHotBit, 0},
	}
	for _, tc := range flatCases {
		if got := flat.DecideMask(tc.c, tc.prev); got != tc.want {
			t.Errorf("flat %s: DecideMask = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestAdaptiveBlockSize pins block-size scaling: it only engages under a
// non-zero mask.
func TestAdaptiveBlockSize(t *testing.T) {
	gen := AdaptiveGen{}
	if got := gen.AdaptiveBlockSize(1<<20, 0); got != 1<<20 {
		t.Errorf("mask-0 block size = %d, want the base", got)
	}
	if got := gen.AdaptiveBlockSize(1<<20, 1<<1); got != 2<<20 {
		t.Errorf("contended block size = %d, want 2× the base", got)
	}
	if got := gen.AdaptiveBlockSize(0, 1<<1); got != 0 {
		t.Errorf("zero base scaled to %d", got)
	}
}

func TestAdaptivePanicsOnRackOfMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for a RackOf shorter than the group")
		}
	}()
	AdaptiveGen{RackOf: []int{0, 0}}.NodePlan(3, 1, 0)
}
