package bench

import (
	"fmt"
	"sort"

	"rdmc/internal/scenario"
	"rdmc/internal/schedule"
)

// tenantsConfig is the many-group multi-tenancy workload behind `-exp
// tenants`: a 512-node Fractus fabric where every group is rooted at node 0
// (the service front-end, so one NIC port is genuinely contended), a heavy
// tenant replicates 2 MiB objects and a light tenant 64 KiB objects, each to
// 4 random replicas drawn from the other 511 nodes (5-member groups).
// Arrivals are closed-loop with 96 writes outstanding — far beyond what the
// root's port can carry, which is the overload the QoS layer exists for.
// With >1000 writes the k-of-n draws produce >1000 distinct overlapping
// groups, all pre-created.
func tenantsConfig(writes, throttleBytes int) scenario.Config {
	groups := &scenario.GroupConfig{Kind: scenario.GroupKofN, K: 4, N: 511, Base: 1, Root: []int{0}}
	return scenario.Config{
		Name:    "tenants",
		Seed:    99,
		Nodes:   512,
		Writes:  writes,
		Arrival: scenario.Arrival{Kind: scenario.ArrivalClosed, Concurrency: 96},
		Tenants: []scenario.Tenant{
			{
				Name:      "heavy",
				Weight:    1,
				QoSWeight: 1,
				Sizes:     &scenario.SizeConfig{Kind: scenario.SizeFixed, Bytes: 2 * mib},
				Groups:    groups,
			},
			{
				Name:      "light",
				Weight:    3,
				QoSWeight: 3,
				Sizes:     &scenario.SizeConfig{Kind: scenario.SizeFixed, Bytes: 64 * kib},
				Groups:    groups,
			},
		},
		// SendWindow 4 lets the heavy tenant keep four blocks per group in
		// flight — its natural appetite with 32-block objects, and the
		// flooding the light tenant (one block per write) needs protection
		// from. Unthrottled, heavy's in-flight share of the root's port is
		// appetite-proportional; throttled, the WFQ drain makes it
		// weight-proportional.
		Replay: scenario.Replay{
			Cluster:       "fractus",
			BlockBytes:    64 * kib,
			SendWindow:    4,
			RecvWindow:    4,
			ThrottleBytes: throttleBytes,
		},
	}
}

// tenantP99 pulls one tenant's p99 latency in seconds.
func tenantP99(lats []float64) float64 {
	sorted := append([]float64(nil), lats...)
	sort.Float64s(sorted)
	return sorted[int(0.99*float64(len(sorted)-1))]
}

// jainIndex is Jain's fairness index: J = (Σx)² / (n·Σx²), 1.0 when every
// tenant gets exactly its weighted share, 1/n when one tenant starves the
// rest.
func jainIndex(x []float64) float64 {
	var sum, sq float64
	for _, v := range x {
		sum += v
		sq += v * v
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(x)) * sq)
}

// TenantsQoS is the RDMC-as-a-service experiment: the tenantsConfig workload
// replayed twice from the identical compiled stream — once unthrottled
// (groups contend unmanaged on the root's NIC) and once with each node's
// 512 KiB weighted-fair send budget (the service layer's QoS path, 3:1 in
// the light tenant's favor) — reporting per-tenant p50/p90/p99 and a Jain
// fairness index instead of only aggregate throughput. The claim under test:
// QoS-on bounds the heavy tenant's impact on the light tenant's p99.
func TenantsQoS(scale Scale) Report {
	writes := 3000
	if scale == Quick {
		writes = 1200
	}
	const throttleBytes = 512 * kib

	r := Report{
		ID:    "tenants",
		Title: fmt.Sprintf("RDMC-as-a-service: 512 nodes, %d writes over >1000 overlapping groups, heavy vs light tenants under overload", writes),
		Paper: "§5 (Cosmos workload, scaled out): many overlapping groups multiplexed over one fabric",
		Columns: []string{
			"qos", "tenant", "writes", "p50", "p90", "p99", "mean ms", "Gb/s",
		},
	}

	type outcome struct {
		res    streamResult
		cfg    scenario.Config
		groups int
		jain   float64
	}
	run := func(mode string, throttle int) outcome {
		cfg := tenantsConfig(writes, throttle)
		if err := cfg.Validate(); err != nil {
			panic(fmt.Sprintf("bench: tenants: %v", err))
		}
		stream, err := scenario.Compile(cfg)
		if err != nil {
			panic(fmt.Sprintf("bench: tenants: %v", err))
		}
		res := replayStream(cfg, stream, staticSpec(schedule.BinomialPipeline))
		row := func(tenant string, lats []float64, bytes float64) {
			cells, mean := latencyStats(lats, []float64{0.50, 0.90, 0.99})
			r.Rows = append(r.Rows, append(append([]string{
				mode, tenant, fmt.Sprintf("%d", len(lats)),
			}, cells...), ms(mean), f1(gbps(bytes, res.elapsed))))
		}
		row("all", res.latencies, res.bytes)
		// Fairness input: each tenant's attained rate — bytes moved per
		// second of observed write latency — normalized by its QoS weight.
		// A closed loop completes every write in both modes, so completed
		// bytes alone cannot distinguish fair from unfair; the latency each
		// tenant paid per byte can.
		var norm []float64
		for _, t := range cfg.Tenants {
			lats := res.byTenant[t.Name]
			row(t.Name, lats, res.tenantB[t.Name])
			var latSum float64
			for _, l := range lats {
				latSum += l
			}
			norm = append(norm, res.tenantB[t.Name]/latSum/float64(t.QoSWeight))
		}
		return outcome{res: res, cfg: cfg, groups: len(scenarioGroups(cfg, stream)), jain: jainIndex(norm)}
	}

	off := run("off", 0)
	on := run("on", throttleBytes)

	offP99 := tenantP99(off.res.byTenant["light"])
	onP99 := tenantP99(on.res.byTenant["light"])
	r.Notes = append(r.Notes,
		fmt.Sprintf("light p99: qos-off %sms, qos-on %sms, ratio %s (on must not exceed off)",
			ms(offP99), ms(onP99), f2(onP99/offP99)),
		fmt.Sprintf("jain fairness (goodput/weight): qos-off %s, qos-on %s", f2(off.jain), f2(on.jain)),
		fmt.Sprintf("groups: %d distinct on %d nodes, seed %d", on.groups, on.cfg.Nodes, on.cfg.Seed),
	)
	return r
}
