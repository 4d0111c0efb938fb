// Cosmos replays a synthetic trace calibrated to the Cosmos replication
// workload of the paper's Figure 9 (3 random replicas out of 15, log-normal
// object sizes with median 12 MB and mean 29 MB) on a simulated 100 Gb/s
// cluster, and prints the latency distribution under each multicast
// algorithm. The writes are the canned scenario.Cosmos() config compiled
// with the chosen seed and length. Because the cluster is simulated, the
// study runs in virtual time: replaying hundreds of multi-megabyte writes
// takes seconds of wall time.
//
// Run with:
//
//	go run ./examples/cosmos [-writes 500] [-seed 42]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"rdmc"
	"rdmc/internal/scenario"
)

func main() {
	writes := flag.Int("writes", 500, "number of replicated writes to replay")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()
	if err := run(*writes, *seed); err != nil {
		log.Fatal(err)
	}
	_ = os.Stdout.Sync()
}

func run(writes int, seed int64) error {
	cfg := scenario.Cosmos()
	cfg.Seed, cfg.Writes = seed, writes
	stream, err := scenario.Compile(cfg)
	if err != nil {
		return err
	}
	algos := []rdmc.Algorithm{rdmc.SequentialSend, rdmc.BinomialTree, rdmc.BinomialPipeline}
	fmt.Printf("replaying %d Cosmos-calibrated writes (%d replicas from a %d-node pool)\n\n",
		writes, cfg.Groups.K, cfg.Groups.N)
	fmt.Printf("%-20s  %8s  %8s  %8s  %10s\n", "algorithm", "p50 ms", "p90 ms", "p99 ms", "agg Gb/s")
	for _, a := range algos {
		lat, bytes, elapsed, err := replay(a, stream)
		if err != nil {
			return err
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Printf("%-20s  %8.2f  %8.2f  %8.2f  %10.1f\n",
			a.String(),
			ms(lat[len(lat)*50/100]), ms(lat[len(lat)*90/100]), ms(lat[len(lat)*99/100]),
			float64(bytes)*8/elapsed.Seconds()/1e9)
	}
	fmt.Println("\nthe binomial pipeline replicates the same workload with a fraction of the")
	fmt.Println("latency because every NIC sends and receives concurrently (paper Figure 9)")
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// groupIndex maps a drawn member list (the fixed root, then pool members
// offset by Base) to its position in the EnumerateGroups order.
func groupIndex(g scenario.GroupConfig, members []int) int {
	pool := make([]int, 0, g.K)
	for _, m := range members[len(g.Root):] {
		pool = append(pool, m-g.Base)
	}
	return scenario.CombinationRank(pool, g.N)
}

// replay issues the stream's writes through overlapping 4-member groups
// (generator + 3 replicas), up to the stream's concurrency outstanding at a
// time.
func replay(algo rdmc.Algorithm, stream *scenario.Stream) ([]time.Duration, int64, time.Duration, error) {
	cfg := stream.Config
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: cfg.Nodes, Seed: cfg.Seed})
	if err != nil {
		return nil, 0, 0, err
	}

	type rec struct {
		issued    time.Duration
		remaining int
		size      int
	}
	var (
		latencies []time.Duration
		bytes     int64
		pending   = make(map[string]*rec)
		roots     = make(map[int]*rdmc.Group)
		issue     func()
		issued    int
	)
	key := func(gi, seq int) string { return fmt.Sprintf("%d/%d", gi, seq) }
	seqOf := make(map[int]int)

	// Pre-create all 455 groups, off the critical path as in the paper.
	all := scenario.EnumerateGroups(cfg.Groups, scenario.Binomial(cfg.Groups.N, cfg.Groups.K))
	for gi, members := range all {
		gi := gi
		for _, m := range members {
			g, err := cluster.Node(m).CreateGroup(gi+1, members, rdmc.GroupConfig{
				BlockSize:  cfg.Replay.BlockBytes,
				Algorithm:  algo,
				SendWindow: cfg.Replay.SendWindow,
				RecvWindow: cfg.Replay.RecvWindow,
			}, rdmc.Callbacks{
				Completion: func(seq int, _ []byte, _ int) {
					r := pending[key(gi, seq)]
					if r == nil {
						return
					}
					if r.remaining--; r.remaining == 0 {
						delete(pending, key(gi, seq))
						latencies = append(latencies, cluster.Now()-r.issued)
						bytes += int64(r.size)
						issue()
					}
				},
			})
			if err != nil {
				return nil, 0, 0, err
			}
			if g.Rank() == 0 {
				roots[gi] = g
			}
		}
	}

	issue = func() {
		if issued >= len(stream.Events) {
			return
		}
		ev := stream.Events[issued]
		gi := groupIndex(cfg.Groups, ev.Group)
		issued++
		seq := seqOf[gi]
		seqOf[gi] = seq + 1
		pending[key(gi, seq)] = &rec{issued: cluster.Now(), remaining: len(ev.Group), size: ev.Size}
		if err := roots[gi].SendSized(ev.Size); err != nil {
			panic(err)
		}
	}
	for i := 0; i < stream.Concurrency(); i++ {
		issue()
	}
	elapsed := cluster.Run()
	if len(latencies) != len(stream.Events) {
		return nil, 0, 0, fmt.Errorf("completed %d of %d writes", len(latencies), len(stream.Events))
	}
	return latencies, bytes, elapsed, nil
}
