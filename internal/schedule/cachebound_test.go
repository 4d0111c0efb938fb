package schedule

import (
	"fmt"
	"runtime"
	"testing"

	"rdmc/internal/obs"
)

// drainPlanCache evicts everything resident so a test starts from a known
// cache population regardless of what ran before it.
func drainPlanCache(t *testing.T) {
	t.Helper()
	SetPlanCacheCap(1)
	planEvictMu.Lock()
	planCache.Range(func(k, _ any) bool {
		planCache.Delete(k)
		planCacheLen.Add(-1)
		return true
	})
	planEvictMu.Unlock()
	SetPlanCacheCap(0)
	if n := PlanCacheSize(); n != 0 {
		t.Fatalf("drained cache still holds %d entries", n)
	}
}

// TestPlanCacheChurnStaysBounded is the regression test for the unbounded
// planCache: 10k distinct geometries must leave both the resident-entry count
// and the heap flat, while every returned plan stays correct.
func TestPlanCacheChurnStaysBounded(t *testing.T) {
	drainPlanCache(t)
	const cap = 64
	SetPlanCacheCap(cap)
	defer SetPlanCacheCap(0)
	defer drainPlanCache(t)

	var gauge obs.Gauge
	var evict obs.Counter
	SetMetrics(&Metrics{CacheSize: &gauge, CacheEvict: &evict})
	defer SetMetrics(nil)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	const geometries = 10000
	for i := 0; i < geometries; i++ {
		nodes := 3 + i%5
		blocks := 1 + i%4
		key := planKey{algo: "churn-test", nodes: nodes, blocks: blocks, aux: fmt.Sprintf("g%d", i)}
		np := cachedNodePlan(key, nodes-1, func() Plan {
			return chainGen{}.Plan(nodes, blocks)
		})
		if len(np.Recvs) != blocks {
			t.Fatalf("geometry %d: rank %d got %d recvs, want %d", i, nodes-1, len(np.Recvs), blocks)
		}
		if i%1000 == 0 {
			if n := PlanCacheSize(); n > cap {
				t.Fatalf("after %d geometries cache holds %d entries, cap %d", i, n, cap)
			}
		}
	}

	if n := PlanCacheSize(); n > cap {
		t.Fatalf("cache holds %d entries after churn, cap %d", n, cap)
	}
	if g := gauge.Load(); g != int64(PlanCacheSize()) {
		t.Fatalf("plan_cache_size gauge %d, resident entries %d", g, PlanCacheSize())
	}
	if evict.Load() < geometries-cap {
		t.Fatalf("eviction counter %d, want >= %d", evict.Load(), geometries-cap)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	const headroom = 16 << 20 // generous: cap×tiny tables is well under 1 MiB
	if after.HeapAlloc > before.HeapAlloc+headroom {
		t.Fatalf("heap grew from %d to %d across 10k geometries", before.HeapAlloc, after.HeapAlloc)
	}
}

// TestPlanCacheHotEntrySurvivesSweep checks the second-chance bit: an entry
// referenced every round outlives cold churn until a force pass is required.
func TestPlanCacheHotEntrySurvivesSweep(t *testing.T) {
	drainPlanCache(t)
	SetPlanCacheCap(8)
	defer SetPlanCacheCap(0)
	defer drainPlanCache(t)

	hot := planKey{algo: "churn-test", nodes: 4, blocks: 2, aux: "hot"}
	computes := 0
	lookupHot := func() {
		cachedNodePlan(hot, 0, func() Plan {
			computes++
			return chainGen{}.Plan(4, 2)
		})
	}
	lookupHot()
	for i := 0; i < 100; i++ {
		key := planKey{algo: "churn-test", nodes: 4, blocks: 2, aux: fmt.Sprintf("cold%d", i)}
		cachedNodePlan(key, 0, func() Plan { return chainGen{}.Plan(4, 2) })
		lookupHot() // keep the reference bit set between sweeps
	}
	if computes != 1 {
		t.Fatalf("hot entry recomputed %d times; second-chance bit not honored", computes)
	}
}

// TestPlanCacheReMissRecomputes proves eviction is safe: a key evicted by
// churn recomputes on the next lookup and yields an identical plan.
func TestPlanCacheReMissRecomputes(t *testing.T) {
	drainPlanCache(t)
	const cap = 4
	SetPlanCacheCap(cap)
	defer SetPlanCacheCap(0)
	defer drainPlanCache(t)

	key := planKey{algo: "churn-test", nodes: 6, blocks: 3, aux: "victim"}
	build := func() Plan { return chainGen{}.Plan(6, 3) }
	first := cachedNodePlan(key, 2, build)
	// Flood with keys that are each looked up twice, so every flood entry
	// holds its second-chance bit and the cold victim is the only entry the
	// sweep may take, whatever order sync.Map iterates in. The first over-cap
	// insert therefore evicts it: cap flood keys always suffice.
	for i := 0; i < cap; i++ {
		k := planKey{algo: "churn-test", nodes: 6, blocks: 3, aux: fmt.Sprintf("flood%d", i)}
		cachedNodePlan(k, 0, build)
		cachedNodePlan(k, 0, build)
		if _, ok := planCache.Load(key); !ok {
			break
		}
	}
	if _, ok := planCache.Load(key); ok {
		t.Fatalf("cold victim survived %d referenced flood keys at cap %d", cap, cap)
	}
	again := cachedNodePlan(key, 2, build)
	if len(again.Sends) != len(first.Sends) || len(again.Recvs) != len(first.Recvs) {
		t.Fatalf("recomputed plan differs: %d/%d sends, %d/%d recvs",
			len(again.Sends), len(first.Sends), len(again.Recvs), len(first.Recvs))
	}
	for i := range again.Recvs {
		if again.Recvs[i] != first.Recvs[i] {
			t.Fatalf("recv %d differs after recompute: %+v vs %+v", i, again.Recvs[i], first.Recvs[i])
		}
	}
}
