package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"
)

var wallSpecs = map[string]wallSpec{
	"bulk_tcp4":  {msgSize: 16 << 20, blockSize: 1 << 20},
	"bulk_shm4":  {msgSize: 16 << 20, blockSize: 1 << 20, intra: true},
	"small_tcp4": {msgSize: 8 << 10, blockSize: 1 << 20},
}

// scaleShape is sim_scale256. Windows are pinned to 1 as every paper
// experiment in internal/bench pins them: on the fluid fabric overlapping
// windows only take capacity from critical-path blocks.
var scaleShape = simShape{
	nodes: 256, gbps: 100, blockSize: 1 << 20, window: 1,
	msgSize: 256 << 20, deadline: 10 * time.Second,
}

// twinShape is a wall-clock workload's group run on the simulated fabric at
// library defaults; it gives the wall workloads their virt_* metrics.
func twinShape(spec wallSpec) simShape {
	return simShape{
		nodes: wallNodes, gbps: 100, blockSize: spec.blockSize,
		msgSize: spec.msgSize, deadline: 10 * time.Second,
	}
}

// twinMessages gives the twin's p95 its ten samples beyond.
const twinMessages = 200

// Work per requested second of measurement, sized on the 2-vCPU reference
// box so that a simulated run takes about as long as it asks to measure.
const (
	scaleMsgsPerSecond = 3.0
	wanTrialsPerSecond = 36.0
	// The simulated workloads build this many clusters beyond the measured
	// one (the WAN workload builds one per trial anyway).
	scaleSetupCycles = 20
)

// samples is what one run of a workload measured, before it is reduced to
// the end-to-end metrics.
type samples struct {
	setups  []float64 // s
	latency []float64 // us of host time per operation
	// One entry per group of consecutive operations (see addTails): the
	// group's latency at p99 or at the highest percentile it supports, and
	// that percentile.
	tail, tailAt []float64
	// Windows of about a second of back-to-back operations on the host
	// clock; every operation of a workload carries opBytes of payload to
	// every receiver in opXfers block transfers.
	windows []window
	opBytes float64
	opXfers float64

	memLiveMB float64

	virtLat  []float64 // ms of virtual time per operation
	virtSecs float64
	virtOps  int
	lineRate float64 // bytes per virtual second
	virtSize float64 // bytes per simulated operation

	attempted, failed int
	notes             []string
}

// addVirtual folds simulated messages into the virtual-time samples and the
// operation counts; withHost also takes their host-clock latencies.
func (s *samples) addVirtual(msgs []simMsg, size int, lineRate float64, withHost bool) {
	a, f := checkSimMsgs(msgs)
	s.attempted += a
	s.failed += f
	s.lineRate, s.virtSize = lineRate, float64(size)
	for _, m := range msgs {
		if !m.ok {
			continue
		}
		s.virtLat = append(s.virtLat, m.virt*1e3)
		s.virtSecs += m.virt
		s.virtOps++
		if withHost {
			s.latency = append(s.latency, micros(m.host))
		}
	}
}

// addTails cuts a stretch of consecutive operations into groups and records
// each group's tail latency. The run reports the median over its groups, so
// that a neighbour's burst, which lands in one or two of them, does not set
// the figure; each group applies the ten-samples-beyond rule to itself.
func (s *samples) addTails(latencies []float64, groups int) {
	for g := 0; g < groups; g++ {
		part := latencies[g*len(latencies)/groups : (g+1)*len(latencies)/groups]
		if len(part) == 0 {
			continue
		}
		v, at := supportedTail(part, 0.99)
		s.tail = append(s.tail, v)
		s.tailAt = append(s.tailAt, at)
	}
}

// A wall-clock slice is cut in two; a simulated run into as many groups of
// simTailGroupSize as it holds, at most as many as a wall-clock run has.
const (
	tailGroupsPerSlice = 2
	simTailGroupSize   = 90
)

func simTailGroups(n int) int {
	return int(math.Max(1, math.Min(wallSlices*tailGroupsPerSlice, float64(n/simTailGroupSize))))
}

func (s samples) virtGoodputFrac() float64 {
	return ratio(float64(s.virtOps)*s.virtSize, s.virtSecs*s.lineRate)
}

// memSampler tracks the live heap while a workload runs: the bytes still
// reachable after the most recent collection, read ten times a second from
// runtime/metrics (no stop-the-world). Stop reports the mean of the samples.
//
// A peak was specified first and three kinds were tried; none repeats between
// runs of one binary. MemStats.Sys-HeapReleased follows the scavenger's
// timing and the 4 MB arena grain (+-20 % on the 20 MB small-message
// process). The live heap itself has two levels on the bulk workloads, 67 MB
// between messages and 93 MB while pooled staging buffers are reachable, and
// how many collections land on the second is chance: the maximum sample reads
// 67 or 95, the 95th percentile 67, 75 or 93. The mean moves by the share of
// such collections, a percent or two.
type memSampler struct {
	stop chan struct{}
	mean chan float64
}

// startMemSampler first collects once, so that what an earlier workload in
// this process left behind is not counted as live.
func startMemSampler() *memSampler {
	runtime.GC()
	m := &memSampler{stop: make(chan struct{}), mean: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		sum, n := 0.0, 0
		for {
			metrics.Read(live)
			sum += float64(live[0].Value.Uint64()) / 1e6
			n++
			select {
			case <-tick.C:
			case <-m.stop:
				m.mean <- sum / float64(n)
				return
			}
		}
	}()
	return m
}

// Stop ends the sampling and returns the mean live heap in MB.
func (m *memSampler) Stop() float64 {
	close(m.stop)
	return <-m.mean
}

func sliceLengths(seconds float64) (warm, measure time.Duration) {
	measure = time.Duration(seconds / wallSlices * float64(time.Second))
	warm = measure / 5
	if warm > time.Second {
		warm = time.Second
	}
	return warm, measure
}

func runWall(spec wallSpec, seed int64, seconds float64) (s samples, err error) {
	bufs := newWallBuffers(spec, seed)
	mem := startMemSampler()
	defer func() { s.memLiveMB = mem.Stop() }()

	for i := 0; i < setupCycles; i++ {
		d, err := setupCycle(spec, bufs)
		if err != nil {
			return s, err
		}
		s.setups = append(s.setups, d.Seconds())
	}
	warm, measure := sliceLengths(seconds)
	twin := twinShape(spec)
	s.opBytes, s.opXfers = float64(spec.msgSize), float64(twin.xfersPerMsg())
	for i := 0; i < wallSlices; i++ {
		r, err := runSlice(spec, bufs, warm, measure, windowLength(seconds), nil)
		if err != nil {
			return s, err
		}
		s.setups = append(s.setups, r.setup.Seconds())
		s.latency = append(s.latency, durationsToMicros(r.latency)...)
		s.addTails(durationsToMicros(r.latency), tailGroupsPerSlice)
		s.windows = append(s.windows, r.windows...)
		s.attempted += r.attempted
		s.failed += r.failed
	}
	sim, err := runSimGroup(twin, seed, twinMessages, time.Second, nil)
	if err != nil {
		return s, err
	}
	s.addVirtual(sim.msgs, twin.msgSize, sim.lineRate, false)
	if !sim.barrier {
		s.attempted++
		s.failed++
	}
	s.notes = append(s.notes,
		"traffic crosses the host loopback, not a link",
		fmt.Sprintf("closed loop: 1 sender, 1 group of %d in-process nodes, 1 message outstanding, library-default windows", wallNodes),
		fmt.Sprintf("%d slices of %v on fresh clusters, each after %v untimed warm-up", wallSlices, measure, warm),
		"virt_*: "+describeShape(twin))
	return s, nil
}

func runScale(seed int64, seconds float64) (s samples, err error) {
	mem := startMemSampler()
	defer func() { s.memLiveMB = mem.Stop() }()

	for i := 0; i < scaleSetupCycles; i++ {
		r, err := runSimGroup(scaleShape, seed, 0, time.Second, nil)
		if err != nil {
			return s, err
		}
		s.setups = append(s.setups, r.setup.Seconds())
	}
	count := int(math.Max(2, math.Round(scaleMsgsPerSecond*seconds)))
	r, err := runSimGroup(scaleShape, seed, count, windowLength(seconds), nil)
	if err != nil {
		return s, err
	}
	s.setups = append(s.setups, r.setup.Seconds())
	s.windows = r.windows
	s.opBytes, s.opXfers = float64(scaleShape.msgSize), float64(scaleShape.xfersPerMsg())
	s.addVirtual(r.msgs, scaleShape.msgSize, r.lineRate, true)
	s.addTails(s.latency, simTailGroups(len(s.latency)))
	if !r.barrier {
		s.attempted++
		s.failed++
	}
	s.notes = append(s.notes, "virtual time: "+describeShape(scaleShape),
		"host-clock metrics time the simulator, not a network")
	return s, nil
}

func runWAN(seed int64, seconds float64) (s samples, err error) {
	mem := startMemSampler()
	defer func() { s.memLiveMB = mem.Stop() }()

	trials := int(math.Max(20, math.Round(wanTrialsPerSecond*seconds)))
	msgs := make([]simMsg, 0, trials)
	wins := newWindower(windowLength(seconds))
	t0 := time.Now()
	wins.begin(0)
	for t := 0; t < trials; t++ {
		w, err := wanTrial(wanTrialSeed(seed, t), 0, nil, false)
		if err != nil {
			return s, err
		}
		s.setups = append(s.setups, w.setup.Seconds())
		msgs = append(msgs, w.msg)
		wins.op(time.Since(t0))
	}
	s.windows = wins.closed
	s.opBytes, s.opXfers = wanSize, float64(blocksOf(wanSize, wanBlock)*(wanNodes-1))
	s.addVirtual(msgs, wanSize, wanLineRate, true)
	s.addTails(s.latency, simTailGroups(len(s.latency)))
	s.notes = append(s.notes,
		fmt.Sprintf("virtual time: %d nodes in 3 regions, 10 Gb/s, 30-80 ms RTT, %.1f %% frame loss, %d-byte blocks, window %d, selective retransmit",
			wanNodes, wanLoss*100, wanBlock, wanWindow),
		"host-clock metrics time the simulator, not a network")
	return s, nil
}

func runWorkload(name string, seed int64, seconds float64) (samples, error) {
	switch name {
	case "sim_scale256":
		return runScale(seed, seconds)
	case "sim_wan_lossy":
		return runWAN(seed, seconds)
	}
	spec, ok := wallSpecs[name]
	if !ok {
		return samples{}, fmt.Errorf("unknown workload %q", name)
	}
	return runWall(spec, seed, seconds)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// goodputOf is the median over windows of payload MB delivered to every
// receiver per host second.
func goodputOf(ws []window, opBytes float64) float64 {
	rates := make([]float64, len(ws))
	for i, w := range ws {
		rates[i] = float64(w.ops) * opBytes / 1e6 / w.dur.Seconds()
	}
	return median(rates)
}

// reduce turns a run's samples into the end-to-end metrics, with the sample
// count behind each and, for tail metrics, the percentile actually reported.
func (s samples) reduce() (metrics map[string]float64, counts map[string]int, tails map[string]float64) {
	metrics = map[string]float64{}
	counts = map[string]int{}
	tails = map[string]float64{}
	put := func(name string, v float64, n int) {
		metrics[name] = v
		counts[name] = n
	}
	var cpuPerGB []float64
	for _, w := range s.windows {
		cpuPerGB = append(cpuPerGB, w.cpu/(float64(w.ops)*s.opBytes/1e9))
	}
	goodput := goodputOf(s.windows, s.opBytes)
	put("setup_s", median(s.setups), len(s.setups))
	put("goodput_MBps", goodput, len(s.windows))
	put("host_xfers_per_s", goodput*1e6/s.opBytes*s.opXfers, len(s.windows))
	put("cpu_s_per_GB", median(cpuPerGB), len(s.windows))
	put("latency_p50_us", median(s.latency), len(s.latency))
	put("latency_p99_us", median(s.tail), len(s.latency))
	tails["latency_p99_us"] = minOf(s.tailAt)
	put("mem_live_MB", s.memLiveMB, 1)
	put("virt_goodput_frac", s.virtGoodputFrac(), len(s.virtLat))
	put("virt_latency_p50_ms", median(s.virtLat), len(s.virtLat))
	p95, used := supportedTail(s.virtLat, 0.95)
	put("virt_latency_p95_ms", p95, len(s.virtLat))
	tails["virt_latency_p95_ms"] = used
	return metrics, counts, tails
}
