package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rdmc"
)

// Every wall-clock workload runs the same closed loop: one sender goroutine,
// one group over wallNodes in-process nodes, one message outstanding. Four is
// the smallest power-of-two group in which relays relay.
const (
	wallNodes  = 4
	wallSlices = 4
	// setupCycles extra build/teardown cycles join the slices' own set-ups,
	// so the reported set-up time is a median of wallSlices+setupCycles.
	setupCycles = 40
	// opWatchdog bounds how long one slice may overrun before the operation
	// in flight is declared failed.
	opWatchdog = 30 * time.Second
)

// wallSpec is the shape of one wall-clock workload. Group parameters other
// than the block size stay at the library defaults, so that improving a
// default counts.
type wallSpec struct {
	intra     bool // shared-memory data plane instead of loopback TCP
	msgSize   int
	blockSize int
}

// wallBuffers are allocated once per run, before any set-up is timed.
type wallBuffers struct {
	payload []byte
	recv    [][]byte // per receiver rank-1
	// ref holds the payload's bytes next to the two stamps, which receivers
	// compare on every message without touching the sender's buffer.
	refHead, refTail [8]byte
}

func newWallBuffers(spec wallSpec, seed int64) *wallBuffers {
	b := &wallBuffers{payload: make([]byte, spec.msgSize)}
	rand.New(rand.NewSource(seed)).Read(b.payload)
	for i := 1; i < wallNodes; i++ {
		b.recv = append(b.recv, make([]byte, spec.msgSize))
	}
	copy(b.refHead[:], b.payload[8:16])
	copy(b.refTail[:], b.payload[len(b.payload)-16:len(b.payload)-8])
	return b
}

// stamp writes the message number over the first and last eight bytes.
func (b *wallBuffers) stamp(n uint64) {
	binary.LittleEndian.PutUint64(b.payload[:8], n)
	binary.LittleEndian.PutUint64(b.payload[len(b.payload)-8:], n)
}

// checkWindow is the cheap per-message check a receiver runs inside its
// Completion callback: both stamps and the payload bytes next to them.
func (b *wallBuffers) checkWindow(data []byte, n uint64) bool {
	l := len(data)
	return l == len(b.payload) &&
		binary.LittleEndian.Uint64(data[:8]) == n &&
		binary.LittleEndian.Uint64(data[l-8:]) == n &&
		bytes.Equal(data[8:16], b.refHead[:]) &&
		bytes.Equal(data[l-16:l-8], b.refTail[:])
}

// checkFull compares the SHA-256 of every receiver buffer with the payload's.
func (b *wallBuffers) checkFull() bool {
	want := sha256.Sum256(b.payload)
	for _, r := range b.recv {
		if sha256.Sum256(r) != want {
			return false
		}
	}
	return true
}

// msgTimes are the raw timestamps of one traced message, as offsets from the
// cluster's base time. Receiver arrays are indexed by rank-1.
type msgTimes struct {
	send, sendRet time.Duration
	incoming      [wallNodes - 1]time.Duration
	completion    [wallNodes - 1]time.Duration
}

// wallCluster is one fresh cluster with its group created on every member.
type wallCluster struct {
	bufs   *wallBuffers
	nodes  []*rdmc.Node
	groups []*rdmc.Group
	base   time.Time
	setup  time.Duration

	// Per-message state, written by the sender between messages and by the
	// engines' callbacks during one.
	want      atomic.Uint64 // stamp the receivers expect
	receivers atomic.Int32  // receiver completions of the current message
	all       atomic.Int32  // plus the root's own
	lastDone  atomic.Int64  // offset of the last receiver completion
	bad       atomic.Int32  // window-check mismatches
	done      chan struct{} // signalled when every member completed
	failed    chan error    // group failure
	failOnce  sync.Once
	traced    bool
	cur       msgTimes
}

// buildWallCluster times cluster construction plus CreateGroup on every
// member; buffers exist beforehand.
func buildWallCluster(spec wallSpec, bufs *wallBuffers, ob *rdmc.Observer) (*wallCluster, error) {
	c := &wallCluster{
		bufs:   bufs,
		done:   make(chan struct{}, 1),
		failed: make(chan error, 1),
		traced: ob != nil,
	}
	c.base = time.Now()
	var opts []rdmc.ClusterOption
	if spec.intra {
		opts = append(opts, rdmc.WithIntraHost())
	}
	if ob != nil {
		opts = append(opts, rdmc.WithObserver(ob))
	}
	nodes, err := rdmc.NewLocalCluster(wallNodes, opts...)
	if err != nil {
		return nil, fmt.Errorf("local cluster: %w", err)
	}
	c.nodes = nodes
	members := make([]int, wallNodes)
	for i := range members {
		members[i] = i
	}
	gcfg := rdmc.GroupConfig{BlockSize: spec.blockSize, RecordStats: c.traced}
	for i, n := range nodes {
		g, err := n.CreateGroup(1, members, gcfg, c.callbacks(i))
		if err != nil {
			c.close()
			return nil, fmt.Errorf("create group on node %d: %w", i, err)
		}
		c.groups = append(c.groups, g)
	}
	c.setup = time.Since(c.base)
	return c, nil
}

func (c *wallCluster) callbacks(rank int) rdmc.Callbacks {
	fail := func(err error) {
		c.failOnce.Do(func() { c.failed <- err })
	}
	finish := func() {
		if c.all.Add(1) == wallNodes {
			c.done <- struct{}{}
		}
	}
	if rank == 0 {
		return rdmc.Callbacks{
			Completion: func(int, []byte, int) { finish() },
			Failure:    fail,
		}
	}
	r := rank - 1
	return rdmc.Callbacks{
		Incoming: func(size int) []byte {
			if c.traced {
				c.cur.incoming[r] = time.Since(c.base)
			}
			return c.bufs.recv[r]
		},
		Completion: func(_ int, data []byte, size int) {
			now := time.Since(c.base)
			if !c.bufs.checkWindow(data[:size], c.want.Load()) {
				c.bad.Add(1)
			}
			if c.traced {
				c.cur.completion[r] = now
			}
			if c.receivers.Add(1) == wallNodes-1 {
				c.lastDone.Store(int64(now))
			}
			finish()
		},
		Failure: fail,
	}
}

var errWatchdog = errors.New("operation exceeded the watchdog")

// multicast runs one operation: stamp, Send, wait for every member. It
// returns the send offset and the offset of the last receiver's completion.
func (c *wallCluster) multicast(n uint64, watchdog <-chan time.Time) (sent, last time.Duration, err error) {
	c.bufs.stamp(n)
	c.want.Store(n)
	c.receivers.Store(0)
	c.all.Store(0)
	bad := c.bad.Load()
	sent = time.Since(c.base)
	if err := c.groups[0].Send(c.bufs.payload); err != nil {
		return 0, 0, err
	}
	if c.traced {
		c.cur.send, c.cur.sendRet = sent, time.Since(c.base)
	}
	select {
	case <-c.done:
	case err := <-c.failed:
		return 0, 0, fmt.Errorf("group failed: %w", err)
	case <-watchdog:
		return 0, 0, errWatchdog
	}
	if c.bad.Load() != bad {
		return 0, 0, errors.New("receiver content mismatch")
	}
	return sent, time.Duration(c.lastDone.Load()), nil
}

// destroy runs the close barrier on the root, which must report that every
// message reached every member (§4.6), then releases the nodes. It returns
// the barrier's duration.
func (c *wallCluster) destroy() (time.Duration, error) {
	t0 := time.Now()
	err := c.groups[0].DestroyWait(opWatchdog)
	barrier := time.Since(t0)
	c.close()
	if err != nil {
		return barrier, fmt.Errorf("close barrier: %w", err)
	}
	return barrier, nil
}

func (c *wallCluster) close() {
	for _, n := range c.nodes {
		_ = n.Close() // teardown of an in-process node; nothing to report to
	}
}

// sliceResult is one measured slice on one fresh cluster.
type sliceResult struct {
	setup     time.Duration
	barrier   time.Duration
	latency   []time.Duration // Send to last receiver completion, measured part
	windows   []window
	measured  time.Duration
	attempted int
	failed    int
	use       usage      // what the measured part cost the process
	times     []msgTimes // traced slices only
	waitFrac  []float64  // root SendWait/TotalTime, traced slices only
}

// usage is what the process spent between two points: CPU seconds, and the
// Go runtime's allocation and collection counters.
type usage struct {
	cpu, user                      float64 // user+sys, and user alone
	mallocs, allocBytes, gcPauseNs uint64
}

// usageNow reads the process's running totals.
func usageNow() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u, s := cpuSeconds()
	return usage{u + s, u, ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs}
}

func (a usage) since(b usage) usage {
	return usage{a.cpu - b.cpu, a.user - b.user,
		a.mallocs - b.mallocs, a.allocBytes - b.allocBytes, a.gcPauseNs - b.gcPauseNs}
}

// cpuSeconds returns the process's user and system CPU time so far.
func cpuSeconds() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// runSlice builds a cluster, warms it up untimed with every receiver buffer
// hashed after each message, measures for the given duration, hashes again on
// the last message and runs the close barrier. A failed operation ends the
// slice: the group is gone.
func runSlice(spec wallSpec, bufs *wallBuffers, warm, measure, win time.Duration, ob *rdmc.Observer) (sliceResult, error) {
	var res sliceResult
	c, err := buildWallCluster(spec, bufs, ob)
	if err != nil {
		return res, err
	}
	res.setup = c.setup
	watchdog := time.NewTimer(warm + measure + opWatchdog)
	defer watchdog.Stop()

	var n uint64
	op := func(full bool) (sent, last time.Duration, ok bool) {
		n++
		res.attempted++
		sent, last, err := c.multicast(n, watchdog.C)
		if err == nil && full && !bufs.checkFull() {
			err = errors.New("receiver SHA-256 mismatch")
		}
		if err != nil {
			res.failed++
			fmt.Printf("  operation %d failed: %v\n", n, err)
			return 0, 0, false
		}
		return sent, last, true
	}

	alive := true
	for start := time.Now(); alive && (n == 0 || time.Since(start) < warm); {
		_, _, alive = op(true)
	}

	wins := newWindower(win)
	before := usageNow()
	begin := time.Since(c.base)
	wins.begin(begin)
	for alive {
		sent, last, ok := op(false)
		if !ok {
			alive = false
			break
		}
		res.latency = append(res.latency, last-sent)
		wins.op(last)
		if c.traced {
			res.times = append(res.times, c.cur)
			if st := c.groups[0].Stats(); st != nil && st.TotalTime() > 0 {
				res.waitFrac = append(res.waitFrac, float64(st.SendWait())/float64(st.TotalTime()))
			}
		}
		// Stop once the slice's worth of windows has closed; the time
		// guard covers a window length that does not divide the slice.
		if len(wins.closed) >= int(measure/win) || last-begin >= measure+win {
			break
		}
	}
	res.measured = time.Since(c.base) - begin
	res.use = usageNow().since(before)
	res.windows = wins.closed

	if alive {
		op(true)
	}
	barrier, err := c.destroy()
	res.barrier = barrier
	if err != nil {
		res.attempted++
		res.failed++
		fmt.Printf("  %v\n", err)
	}
	return res, nil
}

// setupCycle is one untimed-workload build/teardown whose only output is the
// set-up time.
func setupCycle(spec wallSpec, bufs *wallBuffers) (time.Duration, error) {
	c, err := buildWallCluster(spec, bufs, nil)
	if err != nil {
		return 0, err
	}
	_, err = c.destroy()
	return c.setup, err
}
