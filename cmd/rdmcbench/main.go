// Command rdmcbench regenerates the RDMC paper's tables and figures on the
// simulated fabric.
//
// Usage:
//
//	rdmcbench -list
//	rdmcbench -exp fig4a [-full]
//	rdmcbench -all [-full]
//	rdmcbench -exp fig8 -full -cpuprofile fig8.pprof
//	rdmcbench -scenario scenarios/cosmos.json
//	rdmcbench -golden check [-golden-dir testdata/golden]
//
// Each experiment prints the same rows or series the paper reports, with the
// paper's qualitative result noted for comparison. -full uses the paper's
// complete parameter ranges; the default trims sweeps for fast runs.
//
// -scenario replays a declarative workload config (see internal/scenario and
// the shipped scenarios/ directory) through the generic runner. -golden
// record regenerates the pinned quick-scale datasets under testdata/golden/;
// -golden check regenerates them in memory and fails on any divergence —
// the determinism regression gate CI runs.
//
// With -all, experiments run concurrently — each owns a private simulation,
// so they share nothing but the process — while the reports print in the
// fixed registry order, byte-identical to a serial run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"rdmc/internal/bench"
	"rdmc/internal/obs"
	"rdmc/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rdmcbench", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list experiment ids")
		exp        = fs.String("exp", "", "experiment id to run")
		all        = fs.Bool("all", false, "run every experiment")
		full       = fs.Bool("full", false, "use the paper's full parameter ranges")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		metrics    = fs.String("metrics", "", "write a metrics snapshot (JSON) to this file on exit; - for stderr")
		tracefile  = fs.String("tracefile", "", "write a Chrome-trace-format event dump to this file on exit")
		scen       = fs.String("scenario", "", "replay a scenario config file (JSON)")
		golden     = fs.String("golden", "", "golden datasets: record or check")
		goldenDir  = fs.String("golden-dir", bench.DefaultGoldenDir, "directory holding the golden datasets")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Observability: one shared sink for every deployment the run builds.
	// Instrumentation never touches the virtual clock, so the reported
	// figures are byte-identical with and without it.
	var sink *obs.Obs
	if *metrics != "" || *tracefile != "" {
		sink = obs.New(0)
		bench.SetObserver(sink)
		defer func() {
			bench.SetObserver(nil)
			if err := writeObs(sink, *metrics, *tracefile); err != nil {
				fmt.Fprintf(os.Stderr, "rdmcbench: %v\n", err)
			}
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("rdmcbench: cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("rdmcbench: cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdmcbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rdmcbench: memprofile: %v\n", err)
			}
		}()
	}

	registry := bench.Experiments()
	scale := bench.Quick
	if *full {
		scale = bench.Full
	}

	switch {
	case *list:
		for _, id := range bench.Order() {
			fmt.Println(id)
		}
		return nil

	case *scen != "":
		return runScenarioFile(*scen, scale)

	case *golden != "":
		switch *golden {
		case "record":
			return bench.GoldenRecord(*goldenDir)
		case "check":
			return bench.GoldenCheck(*goldenDir)
		default:
			return fmt.Errorf("rdmcbench: -golden wants record or check, got %q", *golden)
		}

	case *all:
		return runAll(registry, scale)

	case *exp != "":
		report, err := renderOne(registry, *exp, scale)
		if err != nil {
			return err
		}
		fmt.Print(report)
		return nil

	default:
		fs.Usage()
		return fmt.Errorf("rdmcbench: pass -list, -all, -exp <id>, -scenario <file>, or -golden record|check")
	}
}

// runScenarioFile loads a scenario config and replays it through the
// generic runner, printing the report like any registered experiment.
func runScenarioFile(path string, scale bench.Scale) error {
	cfg, err := scenario.LoadFile(path)
	if err != nil {
		return fmt.Errorf("rdmcbench: %w", err)
	}
	start := time.Now()
	report := bench.RunScenario(cfg, scale)
	fmt.Print(report.String())
	fmt.Printf("(generated in %.1fs wall time)\n", time.Since(start).Seconds())
	return nil
}

// writeObs dumps the observability sink: the metrics snapshot as JSON and the
// event ring in Chrome trace format (load into chrome://tracing or Perfetto).
func writeObs(sink *obs.Obs, metrics, tracefile string) error {
	if metrics != "" {
		data, err := sink.Registry().MarshalJSON()
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		data = append(data, '\n')
		if metrics == "-" {
			_, err = os.Stderr.Write(data)
		} else {
			err = os.WriteFile(metrics, data, 0o644)
		}
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if tracefile != "" {
		f, err := os.Create(tracefile)
		if err != nil {
			return fmt.Errorf("tracefile: %w", err)
		}
		defer f.Close()
		if err := obs.WriteChromeTrace(f, sink.Ring().Snapshot()); err != nil {
			return fmt.Errorf("tracefile: %w", err)
		}
	}
	return nil
}

// runAll executes every experiment concurrently. Each runner builds its own
// deployments (every deployment owns a private simnet.Sim, so virtual clocks
// never interact), and the rendered reports are buffered and printed in
// registry order, making the output deterministic regardless of completion
// order.
func runAll(registry map[string]bench.Runner, scale bench.Scale) error {
	ids := bench.Order()
	reports := make([]string, len(ids))
	errs := make([]error, len(ids))
	start := time.Now()
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			// Runners panic on internal failure; turn that into an error so
			// one broken experiment reports itself instead of tearing down
			// the whole concurrent batch mid-print.
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("panic: %v", r)
				}
			}()
			reports[i], errs[i] = renderOne(registry, id, scale)
		}(i, id)
	}
	wg.Wait()
	for i, id := range ids {
		if errs[i] != nil {
			return fmt.Errorf("rdmcbench: %s: %w", id, errs[i])
		}
		fmt.Print(reports[i])
	}
	fmt.Printf("(all %d experiments in %.1fs wall time)\n", len(ids), time.Since(start).Seconds())
	return nil
}

// renderOne runs a single experiment and returns its printed form, including
// the per-experiment wall time line.
func renderOne(registry map[string]bench.Runner, id string, scale bench.Scale) (string, error) {
	runner, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("rdmcbench: unknown experiment %q (try -list)", id)
	}
	start := time.Now()
	report := runner(scale)
	var sb strings.Builder
	sb.WriteString(report.String())
	fmt.Fprintf(&sb, "(generated in %.1fs wall time)\n\n", time.Since(start).Seconds())
	return sb.String(), nil
}
