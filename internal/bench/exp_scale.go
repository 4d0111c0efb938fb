package bench

import (
	"fmt"

	"rdmc/internal/scenario"
	"rdmc/internal/schedule"
)

// Fig8Scalability reproduces Figure 8: total time to replicate a 256 MB
// object to N nodes on the Sierra model. Sequential send scales linearly in
// the receiver count while the binomial pipeline scales sub-linearly —
// "whether making 127, 255 or 511 copies, the total time required is almost
// the same". Each sweep point is the scenario.Fig8 config replayed with
// both algorithms.
func Fig8Scalability(scale Scale) Report {
	sizes := []int{2, 8, 32, 128}
	if scale == Full {
		sizes = []int{2, 4, 8, 16, 32, 64, 128, 256, 512}
	}
	r := Report{
		ID:      "fig8",
		Title:   "Total time (ms) replicating 256 MB to N nodes (Sierra model)",
		Paper:   "sequential scales linearly with receivers; binomial pipeline is nearly flat (orders of magnitude apart at 512 nodes)",
		Columns: []string{"nodes", "sequential send", "binomial pipeline", "ratio"},
	}
	var firstBin, lastBin float64
	for i, n := range sizes {
		cfg := scenario.Fig8(n)
		stream, err := scenario.Compile(cfg)
		if err != nil {
			panic(fmt.Sprintf("bench: fig8: %v", err))
		}
		seq := replayStream(cfg, stream, staticSpec(schedule.Sequential)).lastDone
		bin := replayStream(cfg, stream, staticSpec(schedule.BinomialPipeline)).lastDone
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", n), ms(seq), ms(bin), f1(seq / bin),
		})
		if i == 0 {
			firstBin = bin
		}
		lastBin = bin
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"binomial pipeline time grows only %.2f× from %d to %d nodes — replication is almost free",
		lastBin/firstBin, sizes[0], sizes[len(sizes)-1]))
	return r
}

// Fig9Cosmos reproduces Figure 9: the latency distribution of a
// Cosmos-calibrated replication workload (3 random replicas out of 15,
// log-normal sizes) replayed with sequential send, binomial tree, and
// binomial pipeline, plus the aggregate replication throughput. The
// workload is the canned scenario.Cosmos config, compiled once and
// replayed per algorithm.
func Fig9Cosmos(scale Scale) Report {
	cfg := scenario.Cosmos()
	cfg.Writes = scaledWrites(cfg, scale)
	stream, err := scenario.Compile(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: fig9: %v", err))
	}
	algos, err := replayAlgorithms(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: fig9: %v", err))
	}
	results := make(map[string]streamResult, len(algos))
	for _, spec := range algos {
		results[spec.name] = replayStream(cfg, stream, spec)
	}

	r := Report{
		ID:    "fig9",
		Title: fmt.Sprintf("Cosmos replication-layer replay, %d writes (latency percentiles, ms)", cfg.Writes),
		Paper: "binomial pipeline ≈2× faster than binomial tree and ≈3× faster than " +
			"sequential send; ≈93 Gb/s replicated with binomial pipeline (≈1 PB/day)",
		Columns: []string{"algorithm", "p10", "p25", "p50", "p75", "p90", "p99", "mean", "agg Gb/s"},
	}
	for _, spec := range algos {
		res := results[spec.name]
		cells, mean := latencyStats(res.latencies, []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99})
		r.Rows = append(r.Rows, append(append([]string{spec.name}, cells...),
			ms(mean), f1(gbps(res.bytes, res.elapsed))))
	}
	mean := func(a schedule.Algorithm) float64 {
		var sum float64
		for _, l := range results[a.String()].latencies {
			sum += l
		}
		return sum / float64(len(results[a.String()].latencies))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("mean latency: binomial pipeline is %.1f× faster than binomial tree, %.1f× faster than sequential",
			mean(schedule.BinomialTree)/mean(schedule.BinomialPipeline),
			mean(schedule.Sequential)/mean(schedule.BinomialPipeline)))
	return r
}
