package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"rdmc"
	"rdmc/internal/chaos"
	"rdmc/internal/core"
	"rdmc/internal/mesh"
	"rdmc/internal/rdma"
	"rdmc/internal/rdma/nicbase"
	"rdmc/internal/rdma/reliab"
	"rdmc/internal/rdma/shmnic"
	"rdmc/internal/rdma/tcpnic"
	"rdmc/internal/scenario"
	"rdmc/internal/schedule"
	"rdmc/internal/service"
	"rdmc/internal/simnet"
)

// Layer probes: fixed-count calls of each layer's exported functions, timed
// from outside. They do not depend on the workload being traced, so every
// traced run carries the same set, measured in the same process as the
// workload's own numbers. This file holds every import of an internal
// package that is not on a workload's path.

const probeWatchdog = 30 * time.Second

// runProbes fills in every workload-independent per-layer metric.
func runProbes(seed int64, out map[string]float64) error {
	probes := []func(int64, map[string]float64) error{
		probeSchedule, probeGroups16, probeMesh, probeBufPool, probeNICs,
		probeReliabWAN, probeSimScale, probeSimnet, probeSession, probeService,
		probeCeilings,
	}
	for _, p := range probes {
		if err := p(seed, out); err != nil {
			return err
		}
	}
	return nil
}

// timePerCall is the median over five batches of the mean nanoseconds one
// call takes.
func timePerCall(calls int, fn func()) float64 {
	var batches []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		batches = append(batches, float64(time.Since(t0))/float64(calls))
	}
	return median(batches)
}

var planSink int // keeps the planner calls from being optimised away

func probeSchedule(_ int64, out map[string]float64) error {
	gen := schedule.New(schedule.BinomialPipeline)
	nodePlan := func(n, k, calls int) float64 {
		return timePerCall(calls, func() { planSink += len(gen.NodePlan(n, k, n/2).Recvs) })
	}
	out["schedule.nodeplan_ns.n4_k1"] = nodePlan(4, 1, 20000)
	out["schedule.nodeplan_ns.n4_k16"] = nodePlan(4, 16, 20000)
	out["schedule.nodeplan_ns.n256_k256"] = nodePlan(256, 256, 2000)
	// 48 nodes is not a power of two: the full circulant plan, which the
	// plan cache computes on a miss.
	out["schedule.plan_us.n48_k256"] = timePerCall(3, func() { planSink += len(gen.Plan(48, 256).Transfers) }) / 1e3
	return nil
}

// probeGroups16 times one round of 16 concurrent two-node groups each
// moving 1 MiB over loopback TCP.
func probeGroups16(_ int64, out map[string]float64) error {
	const groups, size, warm, rounds = 16, 1 << 20, 5, 60
	nodes, err := rdmc.NewLocalCluster(2)
	if err != nil {
		return err
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	delivered := make(chan struct{}, groups)
	failed := make(chan error, 2*groups)
	roots := make([]*rdmc.Group, groups)
	payload := make([]byte, size)
	for g := range roots {
		buf := make([]byte, size)
		fail := func(err error) { failed <- err }
		if roots[g], err = nodes[0].CreateGroup(g, []int{0, 1}, rdmc.GroupConfig{}, rdmc.Callbacks{Failure: fail}); err != nil {
			return err
		}
		if _, err = nodes[1].CreateGroup(g, []int{0, 1}, rdmc.GroupConfig{}, rdmc.Callbacks{
			Incoming:   func(int) []byte { return buf },
			Completion: func(int, []byte, int) { delivered <- struct{}{} },
			Failure:    fail,
		}); err != nil {
			return err
		}
	}
	watchdog := time.After(probeWatchdog)
	var times []float64
	for r := 0; r < warm+rounds; r++ {
		t0 := time.Now()
		for _, g := range roots {
			if err := g.Send(payload); err != nil {
				return err
			}
		}
		for d := 0; d < groups; d++ {
			select {
			case <-delivered:
			case err := <-failed:
				return fmt.Errorf("groups16: %w", err)
			case <-watchdog:
				return errors.New("groups16: timed out")
			}
		}
		if r >= warm {
			times = append(times, micros(time.Since(t0)))
		}
	}
	out["core.groups16_round_us"] = median(times)
	return nil
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// probeMesh ping-pongs a control message between two mesh endpoints.
func probeMesh(_ int64, out map[string]float64) error {
	const warm, pings = 200, 2000
	var lns [2]net.Listener
	addrs := map[rdma.NodeID]string{}
	for i := range lns {
		ln, err := listen()
		if err != nil {
			return err
		}
		lns[i] = ln
		addrs[rdma.NodeID(i)] = ln.Addr().String()
	}
	// mesh.New blocks until the full mesh is up, so the two ends are built
	// side by side.
	var ms [2]*mesh.Mesh
	var errs [2]error
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i], errs[i] = mesh.New(mesh.Config{NodeID: rdma.NodeID(i), Listener: lns[i], Addrs: addrs})
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, m := range ms {
			if m != nil {
				_ = m.Close()
			}
		}
	}()
	if err := errors.Join(errs[0], errs[1]); err != nil {
		return err
	}
	pong := make(chan struct{}, 1)
	msg := core.CtrlMsg{Kind: core.CtrlReadyBlock, Group: 1, Count: 1}
	ms[1].SetHandler(func(rdma.NodeID, core.CtrlMsg) { _ = ms[1].Send(0, msg) }) // a lost echo shows as the timeout below
	ms[0].SetHandler(func(rdma.NodeID, core.CtrlMsg) { pong <- struct{}{} })
	watchdog := time.After(probeWatchdog)
	var rtts []float64
	for i := 0; i < warm+pings; i++ {
		t0 := time.Now()
		if err := ms[0].Send(1, msg); err != nil {
			return err
		}
		select {
		case <-pong:
		case <-watchdog:
			return errors.New("mesh ping-pong timed out")
		}
		if i >= warm {
			rtts = append(rtts, micros(time.Since(t0)))
		}
	}
	out["mesh.ctrl_rtt_us"] = median(rtts)
	return nil
}

func probeBufPool(_ int64, out map[string]float64) error {
	var pool nicbase.BufPool
	out["nicbase.bufpool_ns"] = timePerCall(200000, func() { pool.Put(pool.Get(64 << 10)) })
	return nil
}

// nicPair is two providers of one transport, ready to connect to each other
// as nodes 0 and 1.
type nicPair struct {
	a, b rdma.Provider
}

func (p nicPair) close() {
	_ = p.a.Close()
	_ = p.b.Close()
}

func tcpnicPair() (nicPair, error) {
	la, err := listen()
	if err != nil {
		return nicPair{}, err
	}
	lb, err := listen()
	if err != nil {
		_ = la.Close()
		return nicPair{}, err
	}
	addrs := map[rdma.NodeID]string{0: la.Addr().String(), 1: lb.Addr().String()}
	a, err := tcpnic.New(tcpnic.Config{NodeID: 0, Listener: la, Addrs: addrs})
	if err != nil {
		return nicPair{}, err
	}
	b, err := tcpnic.New(tcpnic.Config{NodeID: 1, Listener: lb, Addrs: addrs})
	if err != nil {
		_ = a.Close()
		return nicPair{}, err
	}
	return nicPair{a, b}, nil
}

func shmnicPair() (nicPair, error) {
	ex := shmnic.NewExchange()
	a, err := shmnic.New(shmnic.Config{NodeID: 0, Exchange: ex})
	if err != nil {
		return nicPair{}, err
	}
	b, err := shmnic.New(shmnic.Config{NodeID: 1, Exchange: ex})
	if err != nil {
		_ = a.Close()
		return nicPair{}, err
	}
	return nicPair{a, b}, nil
}

// reliabPair wraps a shared-memory pair in the selective-retransmit layer on
// a loss-free path, so only the wrapper's own cost shows.
func reliabPair() (nicPair, error) {
	p, err := shmnicPair()
	if err != nil {
		return nicPair{}, err
	}
	cfg := reliab.Config{Window: 8, MaxPayload: streamBuf}
	return nicPair{reliab.Wrap(p.a, cfg), reliab.Wrap(p.b, cfg)}, nil
}

// reporter returns a channel for a probe's outcome and the function its
// completion handlers report through. The report never blocks: a provider's
// Close delivers the still-posted work as broken from inside the dispatcher,
// after the probe has stopped listening.
func reporter() (<-chan error, func(error)) {
	ch := make(chan error, 1)
	return ch, func(err error) {
		select {
		case ch <- err:
		default:
		}
	}
}

const (
	streamBuf       = 1 << 20
	streamInFlight  = 4
	streamRecvDepth = 16
	rttBuf          = 8 << 10
)

// nicStream moves count buffers of streamBuf bytes over one queue pair with
// streamInFlight sends outstanding, and returns MB/s from the first post to
// the last receive completion. The receiver keeps streamRecvDepth receives
// posted, re-arming one per completion, so that an arrival finds a buffer
// waiting even with the socket's own buffering ahead of it (the buffers
// cycle: only throughput matters here).
func nicStream(p nicPair, count int) (float64, error) {
	done, report := reporter()
	received, armed, posted := 0, 0, 0
	var qa, qb rdma.QueuePair
	src := make([]byte, streamBuf)
	bufs := make([][]byte, streamRecvDepth)
	for i := range bufs {
		bufs[i] = make([]byte, streamBuf)
	}
	arm := func() error {
		armed++
		return qb.PostRecv(rdma.MakeBuffer(bufs[armed%streamRecvDepth]), uint64(armed))
	}
	p.b.SetHandler(func(c rdma.Completion) {
		switch {
		case c.Status != rdma.StatusOK:
			report(fmt.Errorf("receive completed %v", c.Status))
		case c.Op == rdma.OpRecv:
			if received++; received == count {
				report(nil)
			} else if armed < count {
				if err := arm(); err != nil {
					report(err)
				}
			}
		}
	})
	p.a.SetHandler(func(c rdma.Completion) {
		switch {
		case c.Status != rdma.StatusOK:
			report(fmt.Errorf("send completed %v", c.Status))
		case c.Op == rdma.OpSend && posted < count:
			posted++
			if err := qa.PostSend(rdma.MakeBuffer(src), 0, uint64(posted)); err != nil {
				report(err)
			}
		}
	})
	qa, err := p.a.Connect(1, 7)
	if err != nil {
		return 0, err
	}
	if qb, err = p.b.Connect(0, 7); err != nil {
		return 0, err
	}
	// armed and posted pass to the handlers once a completion can fire, so
	// the initial windows are counted before anything is posted.
	armed = streamRecvDepth
	for i := 1; i <= streamRecvDepth; i++ {
		if err := qb.PostRecv(rdma.MakeBuffer(bufs[i%streamRecvDepth]), uint64(i)); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	posted = streamInFlight
	for i := 1; i <= streamInFlight; i++ {
		if err := qa.PostSend(rdma.MakeBuffer(src), 0, uint64(i)); err != nil {
			return 0, err
		}
	}
	select {
	case err := <-done:
		if err != nil {
			return 0, err
		}
	case <-time.After(probeWatchdog):
		return 0, errors.New("stream timed out")
	}
	return float64(count) * streamBuf / 1e6 / time.Since(t0).Seconds(), nil
}

// nicPingPong bounces an rttBuf message between the two ends and returns the
// median round trip and the allocations per one-way message.
func nicPingPong(p nicPair, warm, count int) (rttMicros, allocsPerOp float64, err error) {
	pong, report := reporter()
	var qa, qb rdma.QueuePair
	sendA, recvA := make([]byte, rttBuf), make([]byte, rttBuf)
	sendB, recvB := make([]byte, rttBuf), make([]byte, rttBuf)
	p.b.SetHandler(func(c rdma.Completion) {
		if c.Status != rdma.StatusOK {
			report(fmt.Errorf("echo side completed %v", c.Status))
			return
		}
		if c.Op == rdma.OpRecv { // re-arm, then echo
			if err := qb.PostRecv(rdma.MakeBuffer(recvB), 0); err != nil {
				report(err)
			} else if err := qb.PostSend(rdma.MakeBuffer(sendB), 0, 0); err != nil {
				report(err)
			}
		}
	})
	p.a.SetHandler(func(c rdma.Completion) {
		if c.Status != rdma.StatusOK {
			report(fmt.Errorf("ping side completed %v", c.Status))
			return
		}
		if c.Op == rdma.OpRecv {
			report(nil)
		}
	})
	if qa, err = p.a.Connect(1, 9); err != nil {
		return 0, 0, err
	}
	if qb, err = p.b.Connect(0, 9); err != nil {
		return 0, 0, err
	}
	if err = qb.PostRecv(rdma.MakeBuffer(recvB), 0); err != nil {
		return 0, 0, err
	}
	watchdog := time.After(probeWatchdog)
	var rtts []float64
	var before runtime.MemStats
	for i := 0; i < warm+count; i++ {
		if i == warm {
			runtime.ReadMemStats(&before)
		}
		if err = qa.PostRecv(rdma.MakeBuffer(recvA), 0); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if err = qa.PostSend(rdma.MakeBuffer(sendA), 0, 0); err != nil {
			return 0, 0, err
		}
		select {
		case err = <-pong:
			if err != nil {
				return 0, 0, err
			}
		case <-watchdog:
			return 0, 0, errors.New("ping-pong timed out")
		}
		if i >= warm {
			rtts = append(rtts, micros(time.Since(t0)))
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return median(rtts), float64(after.Mallocs-before.Mallocs) / float64(2*count), nil
}

// streamRate is the median of three nicStream runs, each on a fresh pair.
func streamRate(pair func() (nicPair, error), count int) (float64, error) {
	var rates []float64
	for i := 0; i < 3; i++ {
		p, err := pair()
		if err != nil {
			return 0, err
		}
		mbps, err := nicStream(p, count)
		p.close()
		if err != nil {
			return 0, err
		}
		rates = append(rates, mbps)
	}
	return median(rates), nil
}

func probeNICs(_ int64, out map[string]float64) error {
	transports := []struct {
		name   string
		pair   func() (nicPair, error)
		stream int
	}{
		{"tcpnic", tcpnicPair, 400},
		{"shmnic", shmnicPair, 1200},
	}
	for _, t := range transports {
		mbps, err := streamRate(t.pair, t.stream)
		if err != nil {
			return fmt.Errorf("%s stream probe: %w", t.name, err)
		}
		out[t.name+".stream_MBps"] = mbps
		p, err := t.pair()
		if err != nil {
			return err
		}
		out[t.name+".msg_rtt_us"], out[t.name+".allocs_per_op"], err = nicPingPong(p, 200, 2000)
		p.close()
		if err != nil {
			return fmt.Errorf("%s ping-pong probe: %w", t.name, err)
		}
	}
	wrapped, err := streamRate(reliabPair, 1200)
	if err != nil {
		return fmt.Errorf("reliab stream probe: %w", err)
	}
	out["reliab.wrap_overhead_frac"] = 1 - wrapped/out["shmnic.stream_MBps"]
	return nil
}

// probeReliabWAN runs the lossy-WAN trial shape a fixed number of times with
// and without forward error correction and reads the reliability layer's
// own counters.
func probeReliabWAN(seed int64, out map[string]float64) error {
	const trials, fecGroup = 50, 8
	var plain, fec reliab.Stats
	var host []float64
	for t := 0; t < trials; t++ {
		w, err := wanTrial(wanTrialSeed(seed, t), 0, nil, false)
		if err != nil {
			return err
		}
		f, err := wanTrial(wanTrialSeed(seed, t), fecGroup, nil, false)
		if err != nil {
			return err
		}
		if !w.msg.ok || !f.msg.ok {
			return fmt.Errorf("reliab probe: WAN trial %d was not delivered to every node", t)
		}
		plain.Add(w.stats)
		fec.Add(f.stats)
		host = append(host, float64(w.msg.host)/1e6)
	}
	out["reliab.retx_frame_frac"] = ratio(float64(plain.Retransmits), float64(plain.DataFrames))
	out["reliab.resent_bytes_frac"] = ratio(float64(plain.RetransmitBytes), float64(plain.DataBytes))
	out["reliab.fec_recovered_frac"] = ratio(float64(fec.Recovered), float64(fec.Recovered+fec.Retransmits))
	out["reliab.host_ms_per_trial"] = median(host)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func probeSimScale(seed int64, out map[string]float64) error {
	r, err := runSimGroup(scaleShape, seed, 3, time.Second, nil)
	if err != nil {
		return err
	}
	// 64 nodes at the library-default window, recorded so a later issue can
	// decide whether that default suits the simulated NIC.
	w4 := scaleShape
	w4.nodes, w4.window = 64, 0
	r4, err := runSimGroup(w4, seed, 3, time.Second, nil)
	if err != nil {
		return err
	}
	for _, run := range []simRun{r, r4} {
		if _, failed := checkSimMsgs(run.msgs); failed > 0 || !run.barrier {
			return errors.New("simulated probe multicast was not delivered to every node")
		}
	}
	var s, s4 samples
	s.addVirtual(r.msgs, scaleShape.msgSize, r.lineRate, true)
	s4.addVirtual(r4.msgs, w4.msgSize, r4.lineRate, true)
	out["simhost.host_ms_per_msg.n256"] = median(s.latency) / 1e3
	out["simnic.virt_goodput_frac_w4.n64"] = s4.virtGoodputFrac()
	out["simhost.xfers_per_s_w4.n64"] = float64(w4.xfersPerMsg()) / (median(s4.latency) / 1e6)
	return nil
}

func probeSimnet(_ int64, out map[string]float64) error {
	const events, rounds = 200000, 5
	var rates []float64
	for r := 0; r < rounds; r++ {
		sim := simnet.NewSim(1)
		t0 := time.Now()
		for i := 0; i < events; i++ {
			sim.At(float64(i)*1e-9, func() {})
		}
		sim.Run()
		rates = append(rates, events/time.Since(t0).Seconds())
	}
	out["simnet.events_per_s"] = median(rates)

	// The binomial pipeline's steady-state shape on the fluid fabric: 32
	// flows starting and finishing across 64 NIC ports.
	const flows, ports, fabrics = 32, 64, 400
	rates = rates[:0]
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for f := 0; f < fabrics; f++ {
			sim := simnet.NewSim(1)
			fabric := simnet.NewFabric(sim)
			res := make([]*simnet.Resource, ports)
			for p := range res {
				res[p] = simnet.NewResource("p", 1e9)
			}
			for i := 0; i < flows; i++ {
				fabric.StartFlow(1e6, []*simnet.Resource{res[2*i], res[2*i+1]}, func() {})
			}
			sim.Run()
		}
		rates = append(rates, flows*fabrics/time.Since(t0).Seconds())
	}
	out["simnet.flows_per_s"] = median(rates)
	return nil
}

// probeSession compares the 8 KiB message rate of a reliable session with
// that of a bare group on the same kind of cluster, and reads the virtual
// recovery time of a mid-transfer relay crash.
func probeSession(seed int64, out map[string]float64) error {
	const warm, measure = 300 * time.Millisecond, 1200 * time.Millisecond
	spec := wallSpecs["small_tcp4"]
	bufs := newWallBuffers(spec, seed)
	bare, err := runSlice(spec, bufs, warm, measure, measure/4, nil)
	if err != nil {
		return err
	}
	if bare.failed > 0 || len(bare.latency) == 0 {
		return errors.New("session probe: bare group slice failed")
	}
	bareRate := float64(len(bare.latency)) / bare.measured.Seconds()

	nodes, err := rdmc.NewLocalCluster(wallNodes)
	if err != nil {
		return err
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	members := make([]int, wallNodes)
	for i := range members {
		members[i] = i
	}
	delivered := make(chan struct{}, wallNodes)
	sessions := make([]*rdmc.Session, wallNodes)
	for i, n := range nodes {
		s, err := n.NewSession(rdmc.SessionConfig{ID: 100, Members: members},
			rdmc.SessionCallbacks{Deliver: func(uint64, []byte, int) { delivered <- struct{}{} }})
		if err != nil {
			return err
		}
		sessions[i] = s
	}
	defer func() {
		for _, s := range sessions {
			_ = s.Close()
		}
	}()
	payload := make([]byte, spec.msgSize)
	watchdog := time.After(probeWatchdog)
	sent := 0
	var t0 time.Time
	for start := time.Now(); ; {
		if t0.IsZero() && time.Since(start) >= warm {
			t0, sent = time.Now(), 0
		}
		if !t0.IsZero() && time.Since(t0) >= measure {
			break
		}
		if err := sessions[0].Send(payload); err != nil {
			return err
		}
		for d := 0; d < wallNodes; d++ { // every member delivers, the root included
			select {
			case <-delivered:
			case <-watchdog:
				return errors.New("session probe timed out")
			}
		}
		sent++
	}
	out["session.send_overhead_frac"] = 1 - float64(sent)/time.Since(t0).Seconds()/bareRate

	sc, err := chaos.FromConfig(scenario.FailoverCrashRelay(8, 1))
	if err != nil {
		return err
	}
	res, err := chaos.Run(sc)
	if err != nil {
		return err
	}
	out["session.failover_virt_ms"] = res.RecoverySeconds * 1e3
	return nil
}

func probeService(_ int64, out map[string]float64) error {
	th := service.NewWFQThrottle(1 << 30)
	if err := th.AddClass("t", 1); err != nil {
		return err
	}
	if err := th.BindGroup(1, "t"); err != nil {
		return err
	}
	resume := func() {}
	out["service.throttle_ns_per_op"] = timePerCall(200000, func() {
		if th.Acquire(1, 64<<10, resume) {
			th.Release(1, 64<<10)
		}
	})
	tenant, err := service.NewDirectory(service.DirectoryConfig{}).AddTenant("t", service.TenantConfig{})
	if err != nil {
		return err
	}
	start := func() {}
	out["service.admit_ns_per_op"] = timePerCall(200000, func() {
		if tenant.Submit(1, start) == nil {
			tenant.Done()
		}
	})
	return nil
}

// probeCeilings measures what the box gives a program that does nothing but
// move the bytes: the time for three concurrent raw TCP streams to each
// carry one 16 MiB object in 1 MiB writes, and for one 16 MiB buffer to be
// copied into three. Both are reported as the object's MB over that time,
// the same accounting as goodput_MBps.
func probeCeilings(_ int64, out map[string]float64) error {
	const streams, object, chunk, warm, rounds = wallNodes - 1, 16 << 20, 1 << 20, 3, 30
	ln, err := listen()
	if err != nil {
		return err
	}
	defer ln.Close()
	var tx, rx [streams]net.Conn
	defer func() {
		for i := range tx {
			if tx[i] != nil {
				_ = tx[i].Close()
			}
			if rx[i] != nil {
				_ = rx[i].Close()
			}
		}
	}()
	for i := 0; i < streams; i++ {
		if tx[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			return err
		}
		if rx[i], err = ln.Accept(); err != nil {
			return err
		}
	}
	src := make([]byte, object)
	var dst [streams][]byte
	for i := range dst {
		dst[i] = make([]byte, object)
	}
	var times []float64
	for r := 0; r < warm+rounds; r++ {
		errs := make(chan error, 2*streams)
		t0 := time.Now()
		for i := 0; i < streams; i++ {
			go func(c net.Conn) {
				for off := 0; off < object; off += chunk {
					if _, err := c.Write(src[off : off+chunk]); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(tx[i])
			go func(c net.Conn, buf []byte) {
				_, err := io.ReadFull(c, buf)
				errs <- err
			}(rx[i], dst[i])
		}
		for i := 0; i < 2*streams; i++ {
			if err := <-errs; err != nil {
				return fmt.Errorf("raw TCP ceiling: %w", err)
			}
		}
		if r >= warm {
			times = append(times, time.Since(t0).Seconds())
		}
	}
	out["ceiling.tcp_loopback_MBps"] = object / 1e6 / median(times)

	times = times[:0]
	for r := 0; r < warm+rounds; r++ {
		t0 := time.Now()
		for i := range dst {
			copy(dst[i], src)
		}
		if r >= warm {
			times = append(times, time.Since(t0).Seconds())
		}
	}
	out["ceiling.memcpy_MBps"] = object / 1e6 / median(times)
	return nil
}
