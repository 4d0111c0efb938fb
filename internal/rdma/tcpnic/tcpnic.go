// Package tcpnic implements the rdma.Provider interface over real TCP
// sockets. It realizes the paper's §5.3 direction — "RDMC might work
// surprisingly well over high speed datacenter TCP (with no RDMA)" — and
// gives this reproduction a genuinely runnable transport: the protocol
// engine drives tcpnic exactly as it drives the simulated NIC.
//
// Mapping of verbs semantics onto TCP:
//
//   - one TCP connection per queue pair, established by a (node, token)
//     handshake: both sides call Connect with the same token, the higher
//     node id dials, the lower accepts;
//   - sends are framed [imm][len][payload] and execute in FIFO order per
//     queue pair; the writer coalesces the queued frames (bounded in bytes)
//     into one vectored writev, so a pipelined send window moves with one
//     syscall; the send completion fires when the frame has been handed to
//     the kernel;
//   - receives take a zero-copy fast path whenever a matching receive is
//     already posted at frame-read time: the payload is read from the
//     socket directly into the posted buffer, with no staging and no copy.
//     Only early arrivals (no receive posted yet) stage in a pooled buffer
//     and pay one copy when the receive lands;
//   - one-sided writes are frames applied to the target's registered
//     region (by the completion dispatcher) without raising a receive
//     completion, mirroring RDMA write semantics;
//   - a connection error surfaces as StatusBroken completions for all
//     outstanding work requests on the queue pair, like an RC connection
//     exhausting its retries.
//
// The queue-pair table, region registry, watchers, and the single-dispatcher
// completion queue live in the shared runtime (package nicbase); this
// package contributes only the sockets: framing, the connect handshake, and
// the per-connection reader/writer loops. Early arrivals and inbound write
// payloads are staged in pooled buffers (nicbase.BufPool), so the
// steady-state receive path allocates nothing per block.
package tcpnic

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"rdmc/internal/obs"
	"rdmc/internal/rdma"
	"rdmc/internal/rdma/nicbase"
	"rdmc/internal/rdma/shmnic"
)

const (
	frameData  = 1
	frameWrite = 2

	// maxFrame bounds a frame payload (1 GiB) as a corruption guard.
	maxFrame = 1 << 30
)

// Config describes one node's transport.
type Config struct {
	// NodeID is the local identity.
	NodeID rdma.NodeID
	// Listener accepts queue-pair connections from lower-id peers. The
	// caller owns address distribution (Addrs must contain every peer's
	// listen address, including this node's).
	Listener net.Listener
	// Addrs maps node ids to listen addresses.
	Addrs map[rdma.NodeID]string
	// Intra, when non-nil, is the shared-memory domain of co-located
	// providers: Connect calls whose peer is registered in the exchange
	// produce in-process shared-memory endpoints instead of TCP
	// connections, while remote peers keep using sockets. Every co-located
	// provider must be constructed (registering itself) before any of them
	// connects, so both sides of a pair route consistently.
	Intra *shmnic.Exchange
}

// Provider is a TCP-backed NIC.
type Provider struct {
	nicbase.Base
	cfg Config
	wg  sync.WaitGroup

	// Receive-path copy counters, zero-copy send counter and the writer
	// coalescing histogram; nil (the default) discards the updates. See
	// SetObserver.
	obsDirect      *obs.Counter
	obsStaged      *obs.Counter
	obsStagedBytes *obs.Counter
	obsZeroCopy    *obs.Counter
	obsCoalesce    *obs.Histogram

	// idle maps the key of each idle-break event on its way to the handler
	// to the queue pair that raised it, until that pair's Close (see live).
	idle sync.Map
}

var _ rdma.Provider = (*Provider)(nil)
var _ shmnic.Host = (*Provider)(nil)

// New starts the provider: it begins accepting queue-pair connections and
// dispatching completions immediately (the handler must be installed before
// the first work request is posted).
func New(cfg Config) (*Provider, error) {
	if cfg.Listener == nil {
		return nil, fmt.Errorf("tcpnic: node %d needs a listener", cfg.NodeID)
	}
	p := &Provider{cfg: cfg}
	p.Init(cfg.NodeID, nicbase.NewRingCQ(0))
	if cfg.Intra != nil {
		if err := cfg.Intra.Register(p); err != nil {
			p.CloseCQ()
			return nil, err
		}
	}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Connect implements rdma.Provider: it returns immediately; the connection
// is dialed (or awaited) in the background and queued work requests flush
// once it is up.
func (p *Provider) Connect(peer rdma.NodeID, token uint64) (rdma.QueuePair, error) {
	if ex := p.cfg.Intra; ex != nil && peer != p.cfg.NodeID && ex.Has(peer) {
		// Co-located peer: the queue pair is a shared-memory endpoint, no
		// socket. Pair is idempotent; whichever side connects second links
		// the halves and flushes queued posts.
		qp, _, err := p.EnsureQP(nicbase.QPKey{Peer: peer, Token: token}, func() rdma.QueuePair {
			return ex.NewEndpoint(p, peer, token)
		})
		if err != nil {
			return nil, err
		}
		ex.Pair(qp)
		return qp, nil
	}
	qp, created, err := p.EnsureQP(nicbase.QPKey{Peer: peer, Token: token}, func() rdma.QueuePair {
		return newQueuePair(p, peer, token)
	})
	if err != nil {
		return nil, err
	}
	if created && p.cfg.NodeID > peer {
		// Higher id dials; lower id accepts.
		addr, ok := p.cfg.Addrs[peer]
		if !ok {
			return nil, fmt.Errorf("tcpnic: no address for peer %d", peer)
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			qp.(*queuePair).dial(addr)
		}()
	}
	return qp, nil
}

// SetHandler implements rdma.Provider; the handler sees only live
// completions.
func (p *Provider) SetHandler(h func(rdma.Completion)) {
	if next := h; next != nil {
		h = func(c rdma.Completion) {
			if p.live(&c) {
				next(c)
			}
		}
	}
	p.Base.SetHandler(h)
}

// SetBatchHandler implements rdma.Provider; the handler sees only live
// completions, and no empty batch.
func (p *Provider) SetBatchHandler(h func([]rdma.Completion)) {
	if next := h; next != nil {
		h = func(cs []rdma.Completion) {
			n := 0
			for i := range cs {
				if p.live(&cs[i]) {
					cs[n] = cs[i]
					n++
				}
			}
			if n > 0 {
				next(cs[:n])
			}
		}
	}
	p.Base.SetBatchHandler(h)
}

// live reports whether the dispatcher hands c on: any completion but an
// idle-break event whose queue pair was closed. After that Close the same
// (peer, token) may name a new queue pair, connected or not — a group
// re-created under its old id — and the event would break that one.
func (p *Provider) live(c *rdma.Completion) bool {
	if c.WRID != idleWRID || c.Status != rdma.StatusBroken {
		return true
	}
	_, ok := p.idle.LoadAndDelete(nicbase.QPKey{Peer: c.Peer, Token: c.Token})
	return ok
}

// Close implements rdma.Provider: it stops accepting, breaks every queue
// pair, drains the completion dispatcher, and waits for the background
// goroutines to exit.
func (p *Provider) Close() error {
	qps, first := p.Shutdown()
	if !first {
		return nil
	}
	err := p.cfg.Listener.Close()
	for _, qp := range qps {
		_ = qp.Close()
	}
	p.CloseCQ()
	p.wg.Wait()
	if p.cfg.Intra != nil {
		p.cfg.Intra.Deregister(p)
	}
	return err
}

// accept pairs inbound connections with pending Connect calls by their
// handshake (peer id, token).
func (p *Provider) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.cfg.Listener.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handleInbound(conn)
		}()
	}
}

func (p *Provider) handleInbound(conn net.Conn) {
	var hs [12]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		_ = conn.Close()
		return
	}
	peer := rdma.NodeID(binary.BigEndian.Uint32(hs[0:4]))
	token := binary.BigEndian.Uint64(hs[4:12])

	// The peer may connect before the local Connect call: EnsureQP parks
	// the endpoint so Connect finds it live.
	qp, _, err := p.EnsureQP(nicbase.QPKey{Peer: peer, Token: token}, func() rdma.QueuePair {
		return newQueuePair(p, peer, token)
	})
	if err != nil {
		_ = conn.Close()
		return
	}
	tq, ok := qp.(*queuePair)
	if !ok {
		// The (peer, token) key is occupied by a non-TCP endpoint (an
		// intra-host shared-memory pair): the socket has no one to serve.
		_ = conn.Close()
		return
	}
	tq.attach(conn)
}
