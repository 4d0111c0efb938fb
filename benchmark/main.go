// Command benchmark is the repository's benchmark: five named workloads, ten
// end-to-end metrics and a per-layer catalogue (see README.md in this
// directory and BENCHMARK.json at the repository root). It drives the library
// through its public functions, times those calls from outside, checks every
// output, and prints each metric by name with its unit; the last line of
// standard output is one JSON object for the driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is what a result file under the output directory carries.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Result   result             `json:"result"`
	Samples  map[string]int     `json:"samples"`
	Tails    map[string]float64 `json:"percentile_reported,omitempty"`
	Notes    []string           `json:"notes"`
	Env      environment        `json:"environment"`
}

type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Network    string `json:"network"`
}

func readEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		Network:    "loopback, not a link",
	}
	if c := os.Getenv("RDMC_BENCHMARK_COMMIT"); c != "" { // set by run.sh
		env.Commit = c
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// measure runs one workload once and returns its report: the end-to-end
// metrics, or with traced set the per-layer metrics.
func measure(name string, seed int64, seconds float64, traced bool, outDir string) (report, error) {
	rep := report{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		Env: readEnvironment(),
	}
	var (
		values    map[string]float64
		infos     []metricInfo
		attempted int
		failed    int
	)
	if traced {
		t, err := traceWorkload(name, seed, seconds, outDir)
		if err != nil {
			return rep, err
		}
		values, infos = t.metrics, perLayer
		attempted, failed = t.attempted, t.failed
		rep.Notes = t.notes
	} else {
		s, err := runWorkload(name, seed, seconds)
		if err != nil {
			return rep, err
		}
		values, rep.Samples, rep.Tails = s.reduce()
		infos = endToEnd
		attempted, failed = s.attempted, s.failed
		rep.Notes = s.notes
	}
	rep.Result = result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]value{},
	}
	for _, info := range infos {
		v, ok := values[info.Name]
		if !ok {
			return rep, fmt.Errorf("%s: metric %s was not measured", name, info.Name)
		}
		rep.Result.Metrics[info.Name] = value{Value: v, Unit: info.Unit}
	}
	if len(values) != len(infos) {
		return rep, fmt.Errorf("%s: measured %d metrics, the catalogue names %d", name, len(values), len(infos))
	}
	return rep, nil
}

func (r report) print() {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("workload %s  seed %d  %s  attempted %d  failed %d  correct %v\n",
		r.Workload, r.Seed, kind, r.Result.Attempted, r.Result.Failed, r.Result.Correct)
	for _, n := range r.Notes {
		fmt.Printf("  # %s\n", n)
	}
	names := make([]string, 0, len(r.Result.Metrics))
	for n := range r.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Result.Metrics[n]
		extra := ""
		if c, ok := r.Samples[n]; ok {
			extra = fmt.Sprintf("  n=%d", c)
		}
		if p, ok := r.Tails[n]; ok {
			extra += fmt.Sprintf("  reported at p%.4g", p*100)
		}
		fmt.Printf("  %-34s %16.6g %-8s%s\n", n, v.Value, v.Unit, extra)
	}
}

func (r report) save(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d.json", r.Workload, r.Seed)
	if r.Traced {
		name = fmt.Sprintf("%s-seed%d.layers.json", r.Workload, r.Seed)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func run() error {
	var (
		name      = flag.String("workload", "all", "one of "+strings.Join(workloadNames(), ", ")+", or all")
		seed      = flag.Int64("seed", 1, "seed for payload bytes, message sizes and fabric loss; equal seeds give equal inputs")
		seconds   = flag.Float64("seconds", 20, "measured seconds per wall-clock workload; scales the simulated workloads' message counts")
		trace     = flag.Int("trace", 0, "1 runs the traced set: per-layer metrics, Chrome-trace files and the self-time table")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare each end-to-end metric's difference with its bound")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for result files and traces")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *selfcheck {
		return selfCheck(*seed, *seconds)
	}
	names := workloadNames()
	if *name != "all" {
		names = []string{*name}
	}
	var last []byte
	all := map[string]result{}
	bad := false
	for _, n := range names {
		rep, err := measure(n, *seed, *seconds, *trace == 1, *outDir)
		if err != nil {
			return err
		}
		rep.print()
		if err := rep.save(*outDir); err != nil {
			return err
		}
		all[n] = rep.Result
		bad = bad || !rep.Result.Correct
		if last, err = json.Marshal(rep.Result); err != nil {
			return err
		}
	}
	if len(names) > 1 {
		var err error
		if last, err = json.Marshal(all); err != nil {
			return err
		}
	}
	fmt.Println(string(last))
	if bad {
		return fmt.Errorf("an operation failed or an output was wrong")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
