package main

import (
	"fmt"
	"math"
	"strings"
)

// selfCheck runs every workload twice with the same seed, back to back in
// this process, and prints per workload and end-to-end metric how far the
// two sets disagree next to the metric's bound. It fails if any host-clock
// metric disagrees by more than its bound (set-up time, as for the driver,
// is reported but not held to it: it is a sub-millisecond median), or if a
// virtual-time metric is not identical: the simulator is exact.
func selfCheck(seed int64, seconds float64) error {
	var sets [2]map[string]map[string]float64
	for i := range sets {
		sets[i] = map[string]map[string]float64{}
		for _, w := range workloads {
			fmt.Printf("set %d: %s\n", i+1, w.Name)
			s, err := runWorkload(w.Name, seed, seconds)
			if err != nil {
				return err
			}
			if s.failed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed", w.Name, s.failed, s.attempted)
			}
			sets[i][w.Name], _, _ = s.reduce()
		}
	}
	fmt.Printf("\n%-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "differ", "bound")
	var over []string
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0][w.Name][m.Name], sets[1][w.Name][m.Name]
			diff := 0.0
			if a != b {
				diff = math.Abs(a-b) / ((math.Abs(a) + math.Abs(b)) / 2)
			}
			verdict := ""
			switch {
			case strings.HasPrefix(m.Name, "virt_") && a != b:
				verdict = "  NOT IDENTICAL"
			case m.Name != "setup_s" && diff > m.Bound:
				verdict = "  OVER"
			}
			if verdict != "" {
				over = append(over, w.Name+"/"+m.Name)
			}
			fmt.Printf("%-14s %-22s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", w.Name, m.Name, a, b, diff*100, m.Bound*100, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("two sets of the same code disagree beyond the bound on %s", strings.Join(over, ", "))
	}
	return nil
}
