package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rdmc"
	"rdmc/internal/obs"
)

// traceResult is one traced run: every per-layer metric, by name.
type traceResult struct {
	metrics           map[string]float64
	attempted, failed int
	notes             []string
}

// Work per requested second in each of a traced simulated run's two passes
// (observer off, then on); the rest of the run's time goes to the probes.
const (
	tracedScaleMsgsPerSecond = 0.25
	tracedWANTrialsPerSecond = 5.0
)

// workloadTrace is what the two passes over one workload hand to the common
// per-layer arithmetic.
type workloadTrace struct {
	ops        []opTrace
	snapshot   obs.Snapshot
	ringEvents uint64
	messages   int     // operations the observed pass carried
	baseRate   float64 // goodput with the observer off, MB/s of the host clock
	tracedRate float64 // and on
	waitFrac   []float64
	barrierUs  float64
	use        usage // what the observer-off pass cost the process ...
	useMsgs    int   // ... over this many operations
	clock, nic string
	ceiling    string  // the ceiling.* metric that bounds goodput; "" on sim_*
	lineFrac   float64 // sim_*: virtual goodput over line rate
	attempted  int
	failed     int
}

func snapshotOf(ob *rdmc.Observer) (obs.Snapshot, error) {
	var snap obs.Snapshot
	b, err := ob.MetricsJSON()
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(b, &snap)
}

func traceWall(spec wallSpec, seed int64, seconds float64, ringPath string) (workloadTrace, error) {
	wt := workloadTrace{clock: "host", nic: "tcpnic", ceiling: "ceiling.tcp_loopback_MBps"}
	if spec.intra {
		wt.nic, wt.ceiling = "shmnic", "ceiling.memcpy_MBps"
	}
	bufs := newWallBuffers(spec, seed)
	warm, measure := sliceLengths(seconds)
	win := windowLength(seconds)
	base, err := runSlice(spec, bufs, warm, measure, win, nil)
	if err != nil {
		return wt, err
	}
	ob := rdmc.NewObserver(0)
	traced, err := runSlice(spec, bufs, warm, measure, win, ob)
	if err != nil {
		return wt, err
	}
	wt.attempted = base.attempted + traced.attempted
	wt.failed = base.failed + traced.failed
	for _, t := range traced.times {
		wt.ops = append(wt.ops, wallOp(t))
	}
	if wt.snapshot, err = snapshotOf(ob); err != nil {
		return wt, err
	}
	wt.ringEvents = ob.EventCount()
	wt.messages = traced.attempted
	wt.baseRate, wt.tracedRate = goodputOf(base.windows, float64(spec.msgSize)), goodputOf(traced.windows, float64(spec.msgSize))
	wt.waitFrac = traced.waitFrac
	wt.barrierUs = micros(traced.barrier)
	wt.use, wt.useMsgs = base.use, len(base.latency)
	return wt, writeRing(ringPath, ob.WriteChromeTrace)
}

// hostRate is the median over simulated messages of payload MB per host
// second: the traced passes are too short to cut into windows.
func hostRate(msgs []simMsg, size int) float64 {
	var rates []float64
	for _, m := range msgs {
		if m.ok {
			rates = append(rates, float64(size)/1e6/m.host.Seconds())
		}
	}
	return median(rates)
}

func (wt *workloadTrace) addSimPasses(base, traced []simMsg, size int, lineRate float64, use usage) {
	baseTried, baseFailed := checkSimMsgs(base)
	tracedTried, tracedFailed := checkSimMsgs(traced)
	wt.attempted, wt.failed = baseTried+tracedTried, baseFailed+tracedFailed
	wt.clock, wt.nic = "virtual", "simnic"
	for _, m := range traced {
		if m.ok {
			wt.ops = append(wt.ops, simOp(m))
		}
	}
	wt.messages = len(traced)
	wt.baseRate, wt.tracedRate = hostRate(base, size), hostRate(traced, size)
	wt.use, wt.useMsgs = use, len(base)
	var s samples
	s.addVirtual(base, size, lineRate, false)
	wt.lineFrac = s.virtGoodputFrac()
}

func traceScale(seed int64, seconds float64, ringPath string) (workloadTrace, error) {
	var wt workloadTrace
	count := int(math.Max(2, math.Round(tracedScaleMsgsPerSecond*seconds)))
	before := usageNow()
	base, err := runSimGroup(scaleShape, seed, count, time.Second, nil)
	if err != nil {
		return wt, err
	}
	use := usageNow().since(before)
	ob := rdmc.NewObserver(0)
	traced, err := runSimGroup(scaleShape, seed, count, time.Second, ob)
	if err != nil {
		return wt, err
	}
	wt.addSimPasses(base.msgs, traced.msgs, scaleShape.msgSize, base.lineRate, use)
	if !base.barrier || !traced.barrier {
		wt.attempted++
		wt.failed++
	}
	if wt.snapshot, err = snapshotOf(ob); err != nil {
		return wt, err
	}
	wt.ringEvents = ob.EventCount()
	return wt, writeRing(ringPath, ob.WriteChromeTrace)
}

func traceWAN(seed int64, seconds float64, ringPath string) (workloadTrace, error) {
	var wt workloadTrace
	trials := int(math.Max(10, math.Round(tracedWANTrialsPerSecond*seconds)))
	ob := obs.New(0)
	var base, traced []simMsg
	before := usageNow()
	for t := 0; t < trials; t++ {
		w, err := wanTrial(wanTrialSeed(seed, t), 0, nil, false)
		if err != nil {
			return wt, err
		}
		base = append(base, w.msg)
	}
	use := usageNow().since(before)
	for t := 0; t < trials; t++ {
		w, err := wanTrial(wanTrialSeed(seed, t), 0, ob, true)
		if err != nil {
			return wt, err
		}
		traced = append(traced, w.msg)
		wt.waitFrac = append(wt.waitFrac, w.waitFrac)
	}
	wt.addSimPasses(base, traced, wanSize, wanLineRate, use)
	wt.nic = "reliab + simnic"
	wt.snapshot = ob.Registry().Snapshot()
	wt.ringEvents = ob.Ring().Total()
	return wt, writeRing(ringPath, func(w io.Writer) error {
		return obs.WriteChromeTrace(w, ob.Ring().Snapshot())
	})
}

func writeRing(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

func histMean(s obs.Snapshot, name string) float64 {
	h := s.Histograms[name]
	return ratio(float64(h.Sum), float64(h.Count))
}

// traceWorkload is the traced run of one workload: a pass with the observer
// off, a pass with Observer, RecordStats and the harness's spans on, then
// the layer probes. It writes the harness's spans and the program's own
// event ring as Chrome traces, and the self-time table, under outDir.
func traceWorkload(name string, seed int64, seconds float64, outDir string) (traceResult, error) {
	res := traceResult{metrics: map[string]float64{}}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	file := func(suffix string) string {
		return filepath.Join(outDir, fmt.Sprintf("%s-seed%d.%s", name, seed, suffix))
	}
	var wt workloadTrace
	var err error
	start := time.Now()
	switch name {
	case "sim_scale256":
		wt, err = traceScale(seed, seconds, file("ring.json"))
	case "sim_wan_lossy":
		wt, err = traceWAN(seed, seconds, file("ring.json"))
	default:
		spec, ok := wallSpecs[name]
		if !ok {
			return res, fmt.Errorf("unknown workload %q", name)
		}
		wt, err = traceWall(spec, seed, seconds, file("ring.json"))
		res.notes = append(res.notes, "traffic crosses the host loopback, not a link")
	}
	if err != nil {
		return res, err
	}
	res.attempted, res.failed = wt.attempted, wt.failed
	passes := time.Since(start)

	spans := summarize(wt.ops)
	if err := spans.check(); err != nil {
		return res, fmt.Errorf("%s: span accounting: %w", name, err)
	}
	table := spans.selfTimeTable(name, wt.clock, wt.nic)
	fmt.Print(table)
	if err := os.WriteFile(file("selftime.txt"), []byte(table), 0o644); err != nil {
		return res, err
	}
	if err := writeChromeTrace(file("trace.json"), wt.ops); err != nil {
		return res, err
	}

	m := res.metrics
	if err := runProbes(seed, m); err != nil {
		return res, err
	}
	c := wt.snapshot.Counters
	msgs := float64(wt.messages)
	m["core.send_call_us"] = spans.sendCall
	m["core.announce_us"] = spans.announce
	m["core.recv_span_us"] = spans.recvSpan
	m["core.completion_skew_us"] = spans.skew
	m["core.destroy_barrier_us"] = wt.barrierUs
	m["core.ctrl_per_block"] = ratio(float64(c["core.ctrl_tx"]), float64(c["core.blocks_sent"]))
	m["core.batch_run_mean"] = histMean(wt.snapshot, "core.batch_run")
	m["core.send_wait_frac"] = 0
	if len(wt.waitFrac) > 0 {
		m["core.send_wait_frac"] = median(wt.waitFrac)
	}
	m["schedule.plan_cache_hit_frac"] = ratio(float64(c["core.plan_cache_hits"]),
		float64(c["core.plan_cache_hits"]+c["core.plan_cache_misses"]))
	var meshTx uint64
	for k, v := range c {
		if strings.HasPrefix(k, "mesh.tx.") {
			meshTx += v
		}
	}
	m["mesh.frames_per_msg"] = ratio(float64(meshTx), msgs)
	m["nicbase.cq_batch_mean"] = histMean(wt.snapshot, "nic.cq_batch")
	m["nicbase.posts_per_msg"] = ratio(float64(c["nic.posts"]), msgs)
	frames := float64(c["tcpnic.direct_frames"] + c["tcpnic.staged_frames"])
	m["tcpnic.direct_frac"] = ratio(float64(c["tcpnic.direct_frames"]), frames)
	m["tcpnic.zero_copy_frac"] = ratio(float64(c["tcpnic.zero_copy_sends"]), frames)
	m["tcpnic.coalesce_mean"] = histMean(wt.snapshot, "tcpnic.writer_coalesce")
	m["obs.trace_overhead_frac"] = 1 - ratio(wt.tracedRate, wt.baseRate)
	m["obs.ring_events_per_msg"] = ratio(float64(wt.ringEvents), msgs)
	m["proc.allocs_per_msg"] = ratio(float64(wt.use.mallocs), float64(wt.useMsgs))
	m["proc.alloc_bytes_per_msg"] = ratio(float64(wt.use.allocBytes), float64(wt.useMsgs))
	m["proc.gc_pause_ms"] = float64(wt.use.gcPauseNs) / 1e6
	m["proc.cpu_user_frac"] = ratio(wt.use.user, wt.use.cpu)
	m["ceiling.goodput_frac"] = wt.lineFrac
	if wt.ceiling != "" {
		m["ceiling.goodput_frac"] = ratio(wt.baseRate, m[wt.ceiling])
	}

	res.notes = append(res.notes,
		fmt.Sprintf("two passes over the workload (observer off, then Observer + RecordStats + spans) took %v; %d operations traced on the %s clock",
			passes.Round(time.Millisecond), spans.ops, wt.clock),
		"probe metrics (stream, rtt, ns per call, ceilings) are fixed-count and the same in every workload's traced run",
		"traces and the self-time table are under "+outDir)
	return res, nil
}
