// Package reliab wraps any rdma.Provider with software selective-repeat
// reliability, turning the interface's break-on-loss contract into a
// lose-one-frame/retransmit-one-frame contract on fabrics that drop packets.
//
// RDMC inherits RDMA RC semantics: a lost block exhausts NIC retries and the
// whole session surfaces StatusBroken — the right trade on a lossless
// datacenter fabric and the wrong one everywhere else. IRN ("Revisiting
// Network Support for RDMA") showed selective repeat beats go-back-N/break
// once loss is real, and SDR-RDMA argues reliability should be software-
// defined per path. This package is that layer for the repository's
// providers: sequence-numbered frames, a receiver SACK bitmap, retransmission
// timeouts with exponential backoff and jitter, a bounded retransmit buffer,
// and optional systematic XOR parity (FEC) so a high-BDP path can repair a
// single loss per group without waiting a round trip.
//
// The wrapper protects every queue pair except self-connections, which pass
// through verbatim, and is transparent to callers: PostSend/PostRecv/completions keep the rdma contract, including
// FIFO delivery (the receiver reassembles in sequence order) and the
// posted-buffer ownership rule — the wrapper stages its own copy of every
// protected payload, which is also the retransmit buffer, so the caller's
// buffer is returned at send-completion time as usual. A caller send
// completion means "accepted and scheduled for reliable delivery" (like a TCP
// write), not yet "delivered"; endpoint failure still surfaces StatusBroken.
// One-sided writes pass through unprotected: RDMC uses them only for
// receiver-ready signalling on the reliable bootstrap path.
//
// Protected queue pairs speak frames (16-byte header + payload; see
// protocol.go), so both ends of a connection must wrap with the same
// configuration. On metadata-only transports (simnic with nil-Data buffers)
// frames carry a real header and a simulated payload length; on real-byte
// transports (tcpnic, shmnic) the frame is one contiguous copy.
package reliab

import (
	"math/rand"
	"sync"
	"time"

	"rdmc/internal/rdma"
)

// TimerFunc schedules fn after d seconds and returns a cancel function. The
// default runs on the wall clock; simulations inject virtual time.
type TimerFunc func(d float64, fn func()) (cancel func())

func wallTimer(d float64, fn func()) func() {
	t := time.AfterFunc(time.Duration(d*float64(time.Second)), fn)
	return func() { t.Stop() }
}

// Config tunes the reliability layer. The zero value selects the defaults
// noted on each field.
type Config struct {
	// Window bounds the retransmit buffer: at most this many unacknowledged
	// data frames are on the wire per queue pair; further sends park in
	// sequence order until the cumulative ack advances. Default 32.
	Window int
	// RTO is the initial retransmission timeout in seconds; it doubles per
	// expiry (plus seeded jitter) up to MaxRTO and resets when the cumulative
	// ack advances. Defaults 0.2 and 2.
	RTO    float64
	MaxRTO float64
	// FECGroup, when positive, emits one systematic XOR parity frame per
	// this many data frames, letting the receiver repair any single loss per
	// group without waiting for a retransmission. Zero disables FEC.
	FECGroup int
	// FECFlush is the idle timeout in seconds after which a partial parity
	// group is flushed, covering message tails. Default RTO/2.
	FECFlush float64
	// MaxPayload sizes the wrapper's pre-posted receive pool; protected
	// frames whose real payload exceeds it break the connection. Metadata-
	// only payloads (nil Data) are unconstrained. Default 64 KiB.
	MaxPayload int
	// Seed fixes the RTO jitter draws. Default 1.
	Seed int64
	// Timer is the timeout scheduler; nil selects the wall clock.
	Timer TimerFunc
	// DropFn, when non-nil, is consulted for every data-frame transmission
	// (retransmit reports re-sends) and returning true makes the receiver
	// discard that copy on arrival — deterministic loss injection for tests
	// on transports whose own fabric never drops.
	DropFn func(seq uint32, retransmit bool) bool
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.RTO <= 0 {
		c.RTO = 0.2
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 2
	}
	if c.FECFlush <= 0 {
		c.FECFlush = c.RTO / 2
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = 64 << 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timer == nil {
		c.Timer = wallTimer
	}
	return c
}

// Stats counts the layer's work across all protected queue pairs of one
// provider. Retransmit* against Data* is the headline recovery-overhead
// ratio; Recovered counts losses FEC repaired without a retransmission.
type Stats struct {
	DataFrames      uint64
	DataBytes       uint64
	Retransmits     uint64
	RetransmitBytes uint64
	AcksSent        uint64
	AcksReceived    uint64
	ParityFrames    uint64
	ParityBytes     uint64
	Recovered       uint64
	DupFrames       uint64
	InjectedDrops   uint64
}

// Add accumulates o into s, for aggregating counters across a deployment's
// providers.
func (s *Stats) Add(o Stats) {
	s.DataFrames += o.DataFrames
	s.DataBytes += o.DataBytes
	s.Retransmits += o.Retransmits
	s.RetransmitBytes += o.RetransmitBytes
	s.AcksSent += o.AcksSent
	s.AcksReceived += o.AcksReceived
	s.ParityFrames += o.ParityFrames
	s.ParityBytes += o.ParityBytes
	s.Recovered += o.Recovered
	s.DupFrames += o.DupFrames
	s.InjectedDrops += o.InjectedDrops
}

// frameBuf is one wire frame owned by the wrapper: real bytes (header, and
// payload when real bytes move) plus the wire length charged to the fabric,
// which exceeds len(data) exactly when the payload is metadata-only.
type frameBuf struct {
	data    []byte
	wireLen int
}

func (f frameBuf) buffer() rdma.Buffer { return rdma.Buffer{Data: f.data, Len: f.wireLen} }

type qpKey struct {
	peer  rdma.NodeID
	token uint64
}

// Provider wraps an inner rdma.Provider with selective-repeat reliability on
// protected queue pairs. Wrap it once per node, before creating queue pairs.
type Provider struct {
	inner rdma.Provider
	cfg   Config

	mu         sync.Mutex
	qps        map[qpKey]*queuePair
	handler    func(rdma.Completion)
	batch      func([]rdma.Completion)
	queue      []rdma.Completion
	delivering bool
	wrSeq      uint64
	rng        *rand.Rand
	stats      Stats
	closed     bool
}

var _ rdma.Provider = (*Provider)(nil)

// Wrap layers reliability over inner. The wrapper installs itself as inner's
// completion consumer, so it must be created before any completion handler or
// queue pair is set up on inner, and the caller must route all posts through
// the wrapper from then on.
func Wrap(inner rdma.Provider, cfg Config) *Provider {
	p := &Provider{
		inner: inner,
		cfg:   cfg.withDefaults(),
		qps:   make(map[qpKey]*queuePair),
	}
	p.rng = rand.New(rand.NewSource(p.cfg.Seed))
	inner.SetBatchHandler(p.onInnerBatch)
	return p
}

// Stats returns a snapshot of the layer's counters.
func (p *Provider) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// NodeID implements rdma.Provider.
func (p *Provider) NodeID() rdma.NodeID { return p.inner.NodeID() }

// SetHandler implements rdma.Provider.
func (p *Provider) SetHandler(h func(rdma.Completion)) {
	p.mu.Lock()
	p.handler, p.batch = h, nil
	p.mu.Unlock()
}

// SetBatchHandler implements rdma.Provider.
func (p *Provider) SetBatchHandler(h func([]rdma.Completion)) {
	p.mu.Lock()
	p.batch, p.handler = h, nil
	p.mu.Unlock()
}

// RegisterRegion implements rdma.Provider (pass-through).
func (p *Provider) RegisterRegion(id rdma.RegionID, buf []byte) error {
	return p.inner.RegisterRegion(id, buf)
}

// Region implements rdma.Provider (pass-through).
func (p *Provider) Region(id rdma.RegionID) []byte { return p.inner.Region(id) }

// WatchRegion implements rdma.Provider (pass-through).
func (p *Provider) WatchRegion(id rdma.RegionID, fn func(offset, length int)) error {
	return p.inner.WatchRegion(id, fn)
}

// Close implements rdma.Provider: protected pairs fail their outstanding
// caller work, then the inner provider is released.
func (p *Provider) Close() error {
	p.mu.Lock()
	p.closed = true
	for _, qp := range p.qps {
		qp.breakLocked()
	}
	p.mu.Unlock()
	p.dispatch()
	return p.inner.Close()
}

// Connect implements rdma.Provider. Pairs to other nodes get the reliability
// layer; self-connections are returned as the inner provider created them,
// completions forwarded verbatim.
func (p *Provider) Connect(peer rdma.NodeID, token uint64) (rdma.QueuePair, error) {
	inner, err := p.inner.Connect(peer, token)
	if err != nil {
		return nil, err
	}
	if peer == p.inner.NodeID() {
		return inner, nil
	}
	qp := &queuePair{
		p:        p,
		inner:    inner,
		peer:     peer,
		token:    token,
		send:     newSendWindow(),
		recv:     newRecvWindow(p.cfg.FECGroup),
		sendRefs: make(map[uint64]*sendEntry),
		recvRefs: make(map[uint64][]byte),
	}
	if p.cfg.FECGroup > 0 {
		qp.fec = &fecAccum{k: p.cfg.FECGroup}
	}
	qp.rto = p.cfg.RTO
	p.mu.Lock()
	if p.qps[qpKey{peer, token}] != nil {
		p.mu.Unlock()
		_ = inner.Close()
		return nil, rdma.ErrBroken
	}
	p.qps[qpKey{peer, token}] = qp
	// Pre-post the inner receive pool: data + acks + parity in flight.
	var posts []post
	for i := 0; i < 2*p.cfg.Window+8; i++ {
		buf := make([]byte, headerSize+8+p.cfg.MaxPayload)
		posts = append(posts, post{qp: qp, recvBuf: buf, wrID: qp.newRecvRefLocked(buf)})
	}
	p.mu.Unlock()
	runPosts(posts)
	return qp, nil
}

// dispatch drains queued caller completions serially, outside the provider
// lock so handlers can re-enter (post more work) without deadlocking —
// the same single-consumer discipline nicbase's completion queue gives raw
// providers.
func (p *Provider) dispatch() {
	p.mu.Lock()
	if p.delivering {
		p.mu.Unlock()
		return
	}
	p.delivering = true
	for len(p.queue) > 0 {
		batch := p.queue
		p.queue = nil
		h, bh := p.handler, p.batch
		p.mu.Unlock()
		if bh != nil {
			bh(batch)
		} else if h != nil {
			for _, c := range batch {
				h(c)
			}
		}
		p.mu.Lock()
	}
	p.delivering = false
	p.mu.Unlock()
}

// post is one deferred inner-provider action, executed outside the wrapper
// lock (inner posts may block on transport queues whose drain needs the
// wrapper's completion path).
type post struct {
	qp      *queuePair
	send    rdma.Buffer // send when Data/Len set…
	recvBuf []byte      // …receive repost when set
	wrID    uint64
}

func runPosts(posts []post) {
	for _, a := range posts {
		var err error
		if a.recvBuf != nil {
			err = a.qp.inner.PostRecv(rdma.MakeBuffer(a.recvBuf), a.wrID)
		} else {
			err = a.qp.inner.PostSend(a.send, 0, a.wrID)
		}
		if err != nil {
			a.qp.breakNow()
		}
	}
}

// onInnerBatch consumes the inner provider's completion stream: completions
// for protected pairs drive the protocol; everything else (unprotected pairs,
// one-sided writes) is forwarded to the caller untouched, in order.
func (p *Provider) onInnerBatch(cs []rdma.Completion) {
	var posts []post
	p.mu.Lock()
	for _, c := range cs {
		qp := p.qps[qpKey{c.Peer, c.Token}]
		if qp == nil || c.Op == rdma.OpWrite {
			p.queue = append(p.queue, c)
			continue
		}
		qp.onInnerLocked(c, &posts)
	}
	p.mu.Unlock()
	runPosts(posts)
	p.dispatch()
}
