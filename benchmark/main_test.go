package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// quickSeconds keeps a pass over all five workloads under ten seconds.
const quickSeconds = 0.8

func TestQuickPassOverEveryWorkload(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		rep, err := measure(w.Name, 1, quickSeconds, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed)
		}
		if len(rep.Result.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(rep.Result.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			v, ok := rep.Result.Metrics[m.Name]
			if !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v (present %v), want a positive %s", w.Name, m.Name, v, ok, m.Unit)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("quick pass took %v, want under 10 s", d)
	}
}

func TestWindowsHoldWholeOperationsAndDropTheTail(t *testing.T) {
	ms := time.Millisecond
	cpu := 0.0
	w := &windower{length: time.Second, cpuNow: func() float64 { return cpu }}
	w.begin(100 * ms)
	for _, op := range []struct {
		at  time.Duration
		cpu float64
	}{
		{500 * ms, 0.4}, {1090 * ms, 0.9}, {1150 * ms, 1.0}, // closes at 1150: 1050 ms, 3 ops, 1.0 s CPU
		{1600 * ms, 1.3}, {2150 * ms, 2.5}, // closes at 2150: 1000 ms, 2 ops, 1.5 s CPU
		{2900 * ms, 3.0}, // never closes: dropped
	} {
		cpu = op.cpu
		w.op(op.at)
	}
	want := []window{{1050 * ms, 3, 1.0}, {1000 * ms, 2, 1.5}}
	if !reflect.DeepEqual(w.closed, want) {
		t.Fatalf("windows %+v, want %+v", w.closed, want)
	}
	// 3 ops x 7 MB in 1.05 s and 2 ops x 7 MB in 1 s: median of 20 and 14.
	if g := goodputOf(w.closed, 7e6); math.Abs(g-17) > 1e-9 {
		t.Fatalf("goodput %v MB/s, want 17", g)
	}
	if m := median([]float64{9, 1, 5, 100}); m != 7 {
		t.Fatalf("median %v, want 7", m)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
		used float64
	}{
		{2000, 0.99, 0.99}, // 20 beyond
		{1000, 0.99, 0.99}, // exactly 10
		{500, 0.99, 0.98},  // p99 leaves 5: drop to the percentile that leaves 10
		{40, 0.95, 0.75},
		{15, 0.95, 0.5}, // nothing above the median is supported
	} {
		v, used := supportedTail(seq(c.n), c.want)
		if math.Abs(used-c.used) > 1e-12 {
			t.Errorf("n=%d want p%g: reported p%g, expected p%g", c.n, c.want*100, used*100, c.used*100)
		}
		if beyond := float64(c.n-1) - v; used > 0.5 && beyond < minBeyond-1 {
			t.Errorf("n=%d: value %v leaves only %v samples beyond", c.n, v, beyond)
		}
	}
}

func TestSpanAccounting(t *testing.T) {
	op := opTrace{
		send: 100, sendRet: 104,
		incoming:   []float64{103, 110, 106},
		completion: []float64{150, 190, 170},
	}
	s := summarize([]opTrace{op})
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	// Critical receiver is rank 2 (index 1): announce 10 of which the Send
	// call covers 4, recv 80, msg 90.
	if s.selfSendCall != 4 || s.selfAnnounce != 6 || s.selfRecv != 80 || s.selfMsg != 0 || s.totalMsg != 90 {
		t.Fatalf("self times %+v", s)
	}
	if s.skew != 40 || s.announce != 10 || s.sendCall != 4 {
		t.Fatalf("medians %+v", s)
	}
	broken := op
	broken.incoming = []float64{103, 195, 106} // Incoming after Completion: a recording error
	if err := summarize([]opTrace{broken}).check(); err == nil {
		t.Fatal("a span that does not tile its parent passed the check")
	}
}

func TestTracedSliceSpansTileTheMessage(t *testing.T) {
	spec := wallSpecs["small_tcp4"]
	wt, err := traceWall(spec, 1, quickSeconds, filepath.Join(t.TempDir(), "ring.json"))
	if err != nil {
		t.Fatal(err)
	}
	if wt.failed != 0 || len(wt.ops) == 0 {
		t.Fatalf("failed %d, %d traced operations", wt.failed, len(wt.ops))
	}
	if err := summarize(wt.ops).check(); err != nil {
		t.Fatal(err)
	}
	if wt.snapshot.Counters["core.blocks_sent"] == 0 || wt.ringEvents == 0 {
		t.Fatalf("observer recorded nothing: %d blocks, %d events", wt.snapshot.Counters["core.blocks_sent"], wt.ringEvents)
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer probes are fixed-count and take about fifteen seconds")
	}
	out := t.TempDir()
	rep, err := measure("small_tcp4", 1, quickSeconds, true, out)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Correct || len(rep.Result.Metrics) != len(perLayer) {
		t.Fatalf("correct=%v, %d metrics, want %d", rep.Result.Correct, len(rep.Result.Metrics), len(perLayer))
	}
	for _, suffix := range []string{"trace.json", "ring.json", "selftime.txt"} {
		if _, err := os.Stat(filepath.Join(out, "small_tcp4-seed1."+suffix)); err != nil {
			t.Error(err)
		}
	}
}

func virtOf(t *testing.T, name string, seed int64) map[string]float64 {
	t.Helper()
	s, err := runWorkload(name, seed, quickSeconds)
	if err != nil {
		t.Fatal(err)
	}
	m, _, _ := s.reduce()
	out := map[string]float64{}
	for k, v := range m {
		if strings.HasPrefix(k, "virt_") {
			out[k] = v
		}
	}
	return out
}

func TestSimulatedMetricsAreDeterministic(t *testing.T) {
	for _, name := range []string{"sim_scale256", "sim_wan_lossy"} {
		a, b := virtOf(t, name, 7), virtOf(t, name, 7)
		if len(a) != 3 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave %v then %v", name, a, b)
		}
		if c := virtOf(t, name, 8); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical %v", name, a)
		}
	}
	w1, err := wanTrial(wanTrialSeed(7, 0), 8, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := wanTrial(wanTrialSeed(7, 0), 8, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if w1.stats != w2.stats || w1.stats.DataFrames == 0 {
		t.Errorf("reliab counters differ across equal seeds: %+v vs %+v", w1.stats, w2.stats)
	}
}

// benchmarkFile mirrors BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkFileNamesWhatTheProgramEmits(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) || len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("file lists %d workloads, %d end-to-end, %d per-layer; catalogue %d, %d, %d",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: file %+v, catalogue %+v", i, f.Workloads[i], w)
		}
	}
	hasSetup := false
	for i, m := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: file %+v, catalogue %+v", i, g, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		g := f.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: file %+v, catalogue %+v", i, g, m)
		}
		if seen[m.Name] || m.Moves == "" || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("per-layer %s: duplicate, no stated interaction, or over-long name or unit", m.Name)
		}
		seen[m.Name] = true
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", f.Paths, f.RunSeconds)
	}
}
