package bench

import (
	"fmt"

	"rdmc/internal/core"
	"rdmc/internal/schedule"
	"rdmc/internal/simnet"
)

// crossStream runs one looping bulk flow from→to on the deployment's
// cluster: chunk-sized transfers re-issue back to back from start until the
// virtual clock passes stop, modelling a foreign tenant loading part of the
// fabric. The flows ride the same fluid model as the multicast, so they
// steal trunk capacity exactly as competing traffic would.
func crossStream(d *deployment, from, to int, chunk, start, stop float64) {
	cl := d.grid.Cluster()
	var loop func(broken bool)
	issue := func() {
		cl.Transfer(simnet.NodeID(from), simnet.NodeID(to), chunk, loop)
	}
	loop = func(broken bool) {
		if broken || d.grid.Sim().Now() >= stop {
			return
		}
		issue()
	}
	d.grid.Sim().At(start, issue)
}

// AdaptiveScheduling compares the adaptive planner against every static
// schedule on a three-rack slice of the Apt model, uncontended and with
// foreign cross traffic saturating one member rack's TOR uplink. The group
// spans racks 0 (the root's, all eight nodes), 1, and 2 (four nodes each);
// rack 1's four spare NICs stream outbound to rack 3, offering 20 GB/s of
// demand against the 16 GB/s trunk — genuine saturation, not just flow
// count. Egress contention is the configuration where schedule choice
// matters most: rack 1's members still receive at full rate through the
// clean downlink, but any schedule that routes relay duties through rack 1
// (the chain's onward edge, the hybrid's leader-to-leader hop) drags every
// downstream rack to the trunk's fair share. The adaptive planner shelters
// rack 1 — its leader drops out of the leader-level pipeline and is fed
// point-to-point by the root — so no multicast edge crosses the hot uplink
// at all.
func AdaptiveScheduling(scale Scale) Report {
	const n = 32 // four Apt racks; the group spans three
	size := 64 * mib
	stop := 2.0
	if scale == Full {
		size = 256 * mib
		stop = 8.0
	}

	// Group: all of rack 0, nodes 8..11 of rack 1, nodes 16..19 of rack 2.
	// Nodes 12..15 (rack 1) and 24..29 (rack 3) stay outside the group as
	// cross-traffic endpoints.
	var group []int
	group = append(group, members(8)...)
	for i := 8; i < 12; i++ {
		group = append(group, i)
	}
	for i := 16; i < 20; i++ {
		group = append(group, i)
	}
	rackOf := make([]int, len(group))
	for i, m := range group {
		rackOf[i] = m / AptRackSize
	}

	gens := []struct {
		name string
		gen  schedule.Generator
	}{
		{"chain", schedule.New(schedule.Chain)},
		{"pipeline", schedule.New(schedule.BinomialPipeline)},
		{"hybrid", schedule.HybridGen{RackOf: rackOf}},
		{"adaptive", schedule.AdaptiveGen{RackOf: rackOf}},
	}

	// runOne issues the multicast at 1 ms of virtual time — after the
	// cross-traffic flows are on the fabric, so the root's contention
	// sample sees them — and returns the seconds from issue to the last
	// delivery.
	runOne := func(gen schedule.Generator, cluster simnet.ClusterConfig, contended bool) float64 {
		d := deploy(cluster, false)
		if contended {
			// Twenty-four streams out of rack 1's four spare NICs into
			// rack-3 sinks. The aggregate demand (20 GB/s of NIC capacity)
			// saturates the 16 GB/s trunk, and the flow count drives the
			// per-flow max-min share — and with it any multicast edge
			// crossing rack1.up — down to about 5 Gb/s.
			for i := 0; i < 24; i++ {
				crossStream(d, 12+i%4, 24+i%6, 8*mib, 0, stop)
			}
		}
		g := d.group(group, core.GroupConfig{BlockSize: mib, Generator: gen})
		const issueAt = 1e-3
		d.grid.Sim().At(issueAt, func() { g.send(size) })
		last := run(d, g)
		if g.delivered != len(group) {
			panic(fmt.Sprintf("bench: adaptive: delivered %d of %d", g.delivered, len(group)))
		}
		return last - issueAt
	}

	configs := []struct {
		name      string
		cluster   simnet.ClusterConfig
		contended bool
	}{
		{"uncontended", Apt(n), false},
		{"cross-traffic", Apt(n), true},
		{"oversub 8 Gb/s + cross", func() simnet.ClusterConfig {
			c := Apt(n)
			c.TrunkBandwidth = AptRackSize * 8e9 / 8
			return c
		}(), true},
	}

	r := Report{
		ID: "adaptive",
		Title: fmt.Sprintf("Adaptive vs static schedules under cross traffic (%d-node group on Apt, %s)",
			len(group), sizeLabel(size)),
		Paper: "(no paper counterpart — §4.3 fixes the schedule at group creation; " +
			"this measures picking and re-routing it from a live congestion signal)",
		Columns: []string{"config"},
	}
	for _, g := range gens {
		r.Columns = append(r.Columns, g.name+" Gb/s")
	}
	r.Columns = append(r.Columns, "adaptive/best-static")

	var uncontendedHybrid, uncontendedAdaptive string
	for _, cfg := range configs {
		row := []string{cfg.name}
		bestStatic := 0.0
		adaptiveRate := 0.0
		for _, g := range gens {
			elapsed := runOne(g.gen, cfg.cluster, cfg.contended)
			rate := gbps(float64(size), elapsed)
			row = append(row, f1(rate))
			if g.name == "adaptive" {
				adaptiveRate = rate
			} else if rate > bestStatic {
				bestStatic = rate
			}
		}
		row = append(row, f2(adaptiveRate/bestStatic))
		r.Rows = append(r.Rows, row)
		if cfg.name == "uncontended" {
			uncontendedHybrid = row[3]
			uncontendedAdaptive = row[4]
		}
	}
	if uncontendedAdaptive == uncontendedHybrid {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"uncontended adaptive matches static hybrid cell-for-cell (%s Gb/s): mask 0 runs the hybrid's plan", uncontendedAdaptive))
	} else {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"MISMATCH: uncontended adaptive %s Gb/s != static hybrid %s Gb/s", uncontendedAdaptive, uncontendedHybrid))
	}
	return r
}
