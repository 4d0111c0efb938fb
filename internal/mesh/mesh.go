// Package mesh implements RDMC's out-of-band bootstrap network: the full
// N×N set of TCP connections the paper creates during initialization and
// then uses "for RDMA connection setup and failure reporting" (§2). Here it
// carries the engine's control-plane messages (prepare, ready, failure,
// close barrier) and doubles as the failure detector: a broken mesh
// connection reports the peer as failed.
package mesh

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rdmc/internal/core"
	"rdmc/internal/obs"
	"rdmc/internal/rdma"
)

// Config describes one node's mesh endpoint.
type Config struct {
	// NodeID is the local identity.
	NodeID rdma.NodeID
	// Listener accepts mesh connections from higher-id peers.
	Listener net.Listener
	// Addrs maps every node (including this one) to its mesh listen
	// address.
	Addrs map[rdma.NodeID]string
	// OnPeerDown, when non-nil, is invoked once per peer whose mesh
	// connection breaks (the engine's NotifyFailure is the usual target).
	OnPeerDown func(peer rdma.NodeID)
	// DialTimeout bounds each connection attempt; zero selects 2s.
	DialTimeout time.Duration
	// Observer, when non-nil, receives per-kind frame counters
	// ("mesh.tx.<kind>" / "mesh.rx.<kind>") in its metrics registry.
	Observer *obs.Obs
}

// Mesh is the full mesh endpoint of one node. It implements core.Control.
type Mesh struct {
	cfg Config

	obs *meshObs // nil when unobserved; methods are nil-safe

	mu      sync.Mutex
	handler func(from rdma.NodeID, m core.CtrlMsg)
	peers   map[rdma.NodeID]*peerConn
	closed  bool

	wg sync.WaitGroup
}

var _ core.Control = (*Mesh)(nil)

type peerConn struct {
	conn net.Conn
	mu   sync.Mutex // serializes writes (and owns wbuf)
	wbuf [ctrlWireLen]byte
	down atomic.Bool
}

// New builds the mesh: the local node dials every lower-id peer and accepts
// connections from every higher-id peer, blocking until the full mesh is up
// (mirroring the paper's bootstrap step).
func New(cfg Config) (*Mesh, error) {
	if cfg.Listener == nil {
		return nil, fmt.Errorf("mesh: node %d needs a listener", cfg.NodeID)
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	m := &Mesh{
		cfg:   cfg,
		peers: make(map[rdma.NodeID]*peerConn),
	}
	if cfg.Observer != nil {
		m.obs = newMeshObs(cfg.Observer.Registry())
	}

	expect := 0
	for id := range cfg.Addrs {
		if id > cfg.NodeID {
			expect++
		}
	}
	accepted := make(chan error, 1)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		accepted <- m.acceptN(expect)
	}()

	for id, addr := range cfg.Addrs {
		if id >= cfg.NodeID {
			continue
		}
		if err := m.dialPeer(id, addr); err != nil {
			_ = m.Close()
			return nil, err
		}
	}
	if err := <-accepted; err != nil {
		_ = m.Close()
		return nil, err
	}

	// The mesh is complete: start one reader per peer.
	m.mu.Lock()
	for id, pc := range m.peers {
		id, pc := id, pc
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.readLoop(id, pc)
		}()
	}
	m.mu.Unlock()
	return m, nil
}

func (m *Mesh) dialPeer(id rdma.NodeID, addr string) error {
	var (
		conn net.Conn
		err  error
	)
	for attempt := 0; attempt < 50; attempt++ {
		conn, err = net.DialTimeout("tcp", addr, m.cfg.DialTimeout)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("mesh: dial peer %d at %s: %w", id, addr, err)
	}
	var hs [4]byte
	binary.BigEndian.PutUint32(hs[:], uint32(m.cfg.NodeID))
	if _, err := conn.Write(hs[:]); err != nil {
		_ = conn.Close()
		return fmt.Errorf("mesh: handshake with peer %d: %w", id, err)
	}
	m.addPeer(id, conn)
	return nil
}

func (m *Mesh) acceptN(n int) error {
	for i := 0; i < n; i++ {
		conn, err := m.cfg.Listener.Accept()
		if err != nil {
			return fmt.Errorf("mesh: accept: %w", err)
		}
		var hs [4]byte
		if _, err := io.ReadFull(conn, hs[:]); err != nil {
			_ = conn.Close()
			return fmt.Errorf("mesh: inbound handshake: %w", err)
		}
		m.addPeer(rdma.NodeID(binary.BigEndian.Uint32(hs[:])), conn)
	}
	return nil
}

func (m *Mesh) addPeer(id rdma.NodeID, conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.peers[id] = &peerConn{conn: conn}
}

// Send implements core.Control.
func (m *Mesh) Send(to rdma.NodeID, msg core.CtrlMsg) error {
	m.mu.Lock()
	pc := m.peers[to]
	m.mu.Unlock()
	if pc == nil {
		return fmt.Errorf("mesh: unknown peer %d", to)
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.down.Load() {
		return fmt.Errorf("mesh: peer %d is down", to)
	}
	encodeCtrl(&pc.wbuf, msg)
	if _, err := pc.conn.Write(pc.wbuf[:]); err != nil {
		m.peerDown(to, pc)
		return fmt.Errorf("mesh: send to peer %d: %w", to, err)
	}
	m.obs.sent(msg.Kind)
	return nil
}

// SetHandler implements core.Control.
func (m *Mesh) SetHandler(fn func(from rdma.NodeID, m core.CtrlMsg)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handler = fn
}

func (m *Mesh) readLoop(id rdma.NodeID, pc *peerConn) {
	var rbuf [ctrlWireLen]byte
	// A burst of control messages — a window's worth of credit notices, a
	// round of readies — often sits queued in the socket; the buffered
	// reader drains the burst with one syscall instead of one per 50-byte
	// frame. The loop is the connection's only reader, so buffering cannot
	// strand bytes another reader needs.
	br := bufio.NewReaderSize(pc.conn, 64*ctrlWireLen)
	for {
		if _, err := io.ReadFull(br, rbuf[:]); err != nil {
			m.peerDown(id, pc)
			return
		}
		msg := decodeCtrl(&rbuf)
		m.obs.received(msg.Kind)
		m.mu.Lock()
		h := m.handler
		m.mu.Unlock()
		if h != nil {
			h(id, msg)
		}
	}
}

// peerDown marks the connection dead (once) and reports the failure. The
// notification runs on its own goroutine: peerDown can fire from inside
// Mesh.Send while the caller (typically the engine, relaying a failure)
// holds its own locks, and OnPeerDown re-enters the engine.
func (m *Mesh) peerDown(id rdma.NodeID, pc *peerConn) {
	already := pc.down.Swap(true)
	m.mu.Lock()
	notify := !already && !m.closed && m.cfg.OnPeerDown != nil
	if notify {
		// Register under the lock so Close (which flips closed under the
		// same lock before waiting) cannot race the Add with its Wait.
		m.wg.Add(1)
	}
	closed := m.closed
	m.mu.Unlock()
	if already || closed {
		return
	}
	_ = pc.conn.Close()
	if notify {
		go func() {
			defer m.wg.Done()
			m.cfg.OnPeerDown(id)
		}()
	}
}

// Close tears the mesh down.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	peers := make([]*peerConn, 0, len(m.peers))
	for _, pc := range m.peers {
		peers = append(peers, pc)
	}
	m.mu.Unlock()

	err := m.cfg.Listener.Close()
	for _, pc := range peers {
		_ = pc.conn.Close()
	}
	m.wg.Wait()
	return err
}
