package main

// The catalogue is the single list of workload and metric names. BENCHMARK.json
// at the repository root repeats the names, units, directions and bounds; a
// test keeps the two in step.

type workloadInfo struct {
	Name string
	Why  string
}

var workloads = []workloadInfo{
	{"bulk_tcp4", "16 MiB objects in 1 MiB blocks over loopback TCP: the paper's large-object case on real sockets; tcpnic and core's windows do the work"},
	{"bulk_shm4", "bulk_tcp4 with the shared-memory data plane: same core, schedule and mesh path, sockets bypassed; a tcpnic change must not move it"},
	{"small_tcp4", "8 KiB single-block messages over loopback TCP: message rate, so planning, the mesh handshake and CQ dispatch dominate, not copying"},
	{"sim_scale256", "virtual time, 256 nodes at 100 Gb/s, 256 MiB objects, windows 1: the paper's fraction of line rate at scale, and simulator speed"},
	{"sim_wan_lossy", "virtual time, 6 nodes in 3 regions, 30-80 ms RTT, 0.1 % frame loss: latency- and loss-bound, the only workload with reliab on the path"},
}

type metricInfo struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	// Moves says which end-to-end metric on which workload a per-layer metric
	// is expected to move; for an end-to-end metric it says what is measured.
	Moves string
}

// Host-clock metrics share one definition on every workload. On the sim_*
// workloads the host clock times the simulator itself, so they read as
// simulator speed; the virt_* metrics are the simulated fabric's own clock.
// On the wall-clock workloads virt_* come from the workload's shape run once
// more on the simulated 100 Gb/s fabric at library defaults.
var endToEnd = []metricInfo{
	{"setup_s", "s", "lower", 0.25, "median time to build the cluster and create the group on every member"},
	{"goodput_MBps", "MB/s", "higher", 0.25, "payload bytes (1e6) delivered to every receiver per host second; median over 1 s windows of whole operations"},
	{"latency_p50_us", "us", "lower", 0.25, "host time from Send to the last receiver's Completion, median"},
	{"latency_p99_us", "us", "lower", 0.25, "the same at p99, or the highest percentile with ten samples beyond it; median over half-slices"},
	{"cpu_s_per_GB", "s/GB", "lower", 0.25, "process user+sys CPU seconds per 1e9 payload bytes; median over the same windows"},
	{"mem_live_MB", "MB", "lower", 0.15, "mean of the live heap (bytes reachable after the last collection), sampled at 10 Hz"},
	{"virt_goodput_frac", "frac", "higher", 0.01, "payload bits delivered to all per virtual second over NIC line rate"},
	{"virt_latency_p50_ms", "ms", "lower", 0.01, "virtual time from send to last completion, median"},
	{"virt_latency_p95_ms", "ms", "lower", 0.03, "the same, at the highest percentile up to p95 with ten samples beyond it"},
	{"host_xfers_per_s", "1/s", "higher", 0.25, "block transfers (blocks x receivers) completed per host second; same windows as goodput"},
}

var perLayer = []metricInfo{
	{"schedule.nodeplan_ns.n4_k1", "ns", "lower", 0, "latency_p50_us@small_tcp4"},
	{"schedule.nodeplan_ns.n4_k16", "ns", "lower", 0, "none expected on bulk_*: planning is off their critical path"},
	{"schedule.nodeplan_ns.n256_k256", "ns", "lower", 0, "host_xfers_per_s, setup_s@sim_scale256"},
	{"schedule.plan_us.n48_k256", "us", "lower", 0, "host_xfers_per_s@sim_scale256 at non-power-of-two sizes (cache-miss path)"},
	{"schedule.plan_cache_hit_frac", "frac", "higher", 0, "latency_p50_us@small_tcp4"},

	{"core.send_call_us", "us", "lower", 0, "latency_p50_us@small_tcp4"},
	{"core.announce_us", "us", "lower", 0, "latency_p50_us@small_tcp4"},
	{"core.recv_span_us", "us", "lower", 0, "goodput_MBps@bulk_tcp4 and bulk_shm4"},
	{"core.completion_skew_us", "us", "lower", 0, "latency_p99_us@bulk_tcp4 and bulk_shm4"},
	{"core.destroy_barrier_us", "us", "lower", 0, "none of the loop metrics: paid once per group"},
	{"core.ctrl_per_block", "1/block", "lower", 0, "latency_p50_us, cpu_s_per_GB@small_tcp4"},
	{"core.batch_run_mean", "count", "higher", 0, "cpu_s_per_GB@bulk_tcp4"},
	{"core.send_wait_frac", "frac", "lower", 0, "goodput_MBps@bulk_tcp4 and bulk_shm4"},
	{"core.groups16_round_us", "us", "lower", 0, "none of the five: gate for many-group work"},

	{"mesh.ctrl_rtt_us", "us", "lower", 0, "latency_p50_us@small_tcp4"},
	{"mesh.frames_per_msg", "1/msg", "lower", 0, "latency_p50_us, goodput_MBps@small_tcp4; none on bulk_*, sim_*"},

	{"nicbase.cq_batch_mean", "count", "higher", 0, "cpu_s_per_GB@small_tcp4"},
	{"nicbase.posts_per_msg", "1/msg", "lower", 0, "cpu_s_per_GB@small_tcp4"},
	{"nicbase.bufpool_ns", "ns", "lower", 0, "cpu_s_per_GB@small_tcp4"},

	{"tcpnic.stream_MBps", "MB/s", "higher", 0, "goodput_MBps, cpu_s_per_GB@bulk_tcp4; none on bulk_shm4, sim_*"},
	{"tcpnic.msg_rtt_us", "us", "lower", 0, "latency_p50_us@small_tcp4"},
	{"tcpnic.allocs_per_op", "1/op", "lower", 0, "cpu_s_per_GB@small_tcp4"},
	{"tcpnic.direct_frac", "frac", "higher", 0, "goodput_MBps, cpu_s_per_GB@bulk_tcp4"},
	{"tcpnic.zero_copy_frac", "frac", "higher", 0, "cpu_s_per_GB@bulk_tcp4"},
	{"tcpnic.coalesce_mean", "count", "higher", 0, "cpu_s_per_GB@small_tcp4"},

	{"shmnic.stream_MBps", "MB/s", "higher", 0, "goodput_MBps@bulk_shm4; none elsewhere"},
	{"shmnic.msg_rtt_us", "us", "lower", 0, "latency_p50_us@bulk_shm4"},
	{"shmnic.allocs_per_op", "1/op", "lower", 0, "cpu_s_per_GB@bulk_shm4"},

	{"reliab.wrap_overhead_frac", "frac", "lower", 0, "host_xfers_per_s@sim_wan_lossy; the copy at PostSend"},
	{"reliab.retx_frame_frac", "frac", "lower", 0, "virt_latency_p95_ms, virt_goodput_frac@sim_wan_lossy"},
	{"reliab.resent_bytes_frac", "frac", "lower", 0, "virt_goodput_frac@sim_wan_lossy"},
	{"reliab.fec_recovered_frac", "frac", "higher", 0, "virt_latency_p95_ms@sim_wan_lossy once FEC is on the workload's path"},
	{"reliab.host_ms_per_trial", "ms", "lower", 0, "host_xfers_per_s@sim_wan_lossy"},

	{"simhost.host_ms_per_msg.n256", "ms", "lower", 0, "host_xfers_per_s@sim_scale256"},
	{"simnic.virt_goodput_frac_w4.n64", "frac", "higher", 0, "virt_goodput_frac@bulk_*, small_tcp4 (their library-default simulated run)"},
	{"simhost.xfers_per_s_w4.n64", "1/s", "higher", 0, "host_xfers_per_s@sim_*"},

	{"simnet.events_per_s", "1/s", "higher", 0, "host_xfers_per_s@sim_scale256; every virt_* stays identical"},
	{"simnet.flows_per_s", "1/s", "higher", 0, "host_xfers_per_s@sim_scale256; every virt_* stays identical"},

	{"session.send_overhead_frac", "frac", "lower", 0, "none of the five: no workload runs a session"},
	{"session.failover_virt_ms", "ms", "lower", 0, "none of the five: no workload injects a fault"},

	{"service.throttle_ns_per_op", "ns", "lower", 0, "none of the five: no workload throttles"},
	{"service.admit_ns_per_op", "ns", "lower", 0, "none of the five: gate for tenant work"},

	{"obs.trace_overhead_frac", "frac", "lower", 0, "goodput_MBps on the traced workload, observer attached"},
	{"obs.ring_events_per_msg", "1/msg", "lower", 0, "obs.trace_overhead_frac"},

	{"proc.allocs_per_msg", "1/msg", "lower", 0, "cpu_s_per_GB, latency_p99_us on the traced workload"},
	{"proc.alloc_bytes_per_msg", "B/msg", "lower", 0, "mem_live_MB, latency_p99_us on the traced workload"},
	{"proc.gc_pause_ms", "ms", "lower", 0, "latency_p99_us on the traced workload"},
	{"proc.cpu_user_frac", "frac", "higher", 0, "cpu_s_per_GB: the rest is kernel time"},

	{"ceiling.tcp_loopback_MBps", "MB/s", "higher", 0, "the box, not the program: three raw TCP streams of 16 MiB"},
	{"ceiling.memcpy_MBps", "MB/s", "higher", 0, "the box, not the program: 16 MiB copied into three buffers"},
	{"ceiling.goodput_frac", "frac", "higher", 0, "goodput over the workload's ceiling: raw TCP, memcpy, or (sim_*) NIC line rate"},
}
