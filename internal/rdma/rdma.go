// Package rdma defines a verbs-like reliable-connection API: queue pairs,
// two-sided send/receive with immediate values, one-sided remote writes into
// registered regions, and a single completion stream per node.
//
// The abstraction mirrors what RDMC (DSN 2018) consumes from Infiniband
// verbs, reduced to the parts the protocol actually uses (§2 of the paper):
//
//   - reliable two-sided operations: a send matches the receiver's oldest
//     posted receive, data arrives uncorrupted and in FIFO order per queue
//     pair, and a completion is raised on both ends;
//   - a 32-bit immediate value carried with every send (RDMC uses it to
//     announce the total message size on every block);
//   - one-sided writes into pre-registered remote memory (RDMC's readiness
//     signals ride the control mesh; package sst's status table and
//     package smc's small-message rings are built from writes);
//   - break-on-failure semantics: when a connection is lost, outstanding and
//     future work requests complete with StatusBroken; a provider itself
//     never retransmits.
//
// Three providers implement the interface: simnic (virtual-time simulation
// over package simnet, substituting for the RDMA hardware this reproduction
// does not have), tcpnic (real TCP sockets — the paper's §5.3 "RDMC on TCP"
// direction, made concrete) and shmnic (in-process memory copies between
// co-located ranks, standalone or co-hosted inside tcpnic). Package reliab
// wraps any of them with software selective retransmit and FEC for fabrics
// that drop frames, keeping this contract for its callers.
package rdma

import "errors"

// NodeID identifies an endpoint in the communication domain. Providers for
// the same domain agree on the numbering.
type NodeID int

// RegionID names a registered memory region addressable by one-sided writes.
type RegionID uint32

// OpType distinguishes completion kinds.
type OpType int

// Completion operation kinds.
const (
	OpSend OpType = iota + 1
	OpRecv
	OpWrite
)

func (o OpType) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpWrite:
		return "write"
	default:
		return "unknown"
	}
}

// Status is the outcome of a work request.
type Status int

// Work request outcomes.
const (
	StatusOK Status = iota + 1
	// StatusBroken reports that the connection failed: the NIC exhausted
	// its retries or the peer vanished. Per the paper's §2, a broken
	// connection is a genuine network or endpoint failure, because RDMC
	// never sends before the receiver is ready.
	StatusBroken
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBroken:
		return "broken"
	default:
		return "unknown"
	}
}

// Buffer describes a memory region handed to a work request. Data may be nil
// for simulation-only workloads where moving real bytes would be wasteful; in
// that case only Len is meaningful. MakeBuffer and SizeBuffer construct the
// two forms.
type Buffer struct {
	Data []byte
	Len  int
}

// MakeBuffer wraps a real byte slice.
func MakeBuffer(data []byte) Buffer { return Buffer{Data: data, Len: len(data)} }

// SizeBuffer describes a metadata-only buffer of n bytes for simulated
// workloads; no user memory backs it.
func SizeBuffer(n int) Buffer { return Buffer{Len: n} }

// Completion reports the outcome of one work request. Completions for a node
// are delivered serially, in order, to the handler installed with SetHandler
// or SetBatchHandler — the analogue of the paper's single shared completion
// queue and thread.
type Completion struct {
	// Op is the kind of work request that completed.
	Op OpType
	// Status is StatusOK or StatusBroken.
	Status Status
	// Peer is the remote end of the queue pair.
	Peer NodeID
	// Token is the rendezvous token of the queue pair (see Connect).
	Token uint64
	// WRID is the caller-chosen work request identifier.
	WRID uint64
	// Imm is the immediate value carried by the send (valid for OpRecv).
	Imm uint32
	// Bytes is the number of bytes transferred.
	Bytes int
	// Data is the receive buffer (valid for OpRecv when real bytes move).
	Data []byte
}

// QueuePair is one endpoint of a reliable connection. Work requests on a
// queue pair execute and complete in FIFO order.
//
// Posting a buffer lends it to the provider until the matching completion
// fires, exactly as registered memory is lent to a hardware NIC while a work
// request is outstanding. Transports rely on this to run zero-copy: posted
// send and write payloads are referenced, not copied, so mutating a buffer
// between post and completion is undefined behaviour — the wire may carry
// either version. Once the completion is observed the buffer is the
// caller's again; the payload has been captured by then, so immediate reuse
// is safe. A receive buffer's contents are likewise unspecified until its
// completion reports StatusOK. The conformance suite's
// PostedBuffersOwnedUntilCompletion case pins the defined (post-completion
// reuse) side of this contract on every transport.
type QueuePair interface {
	// Peer returns the remote node.
	Peer() NodeID
	// Token returns the rendezvous token that paired the endpoints.
	Token() uint64
	// PostSend enqueues a send carrying buf and the immediate value. The
	// matching receive completion at the peer reports imm. buf is lent to
	// the provider until the send completion fires (see the ownership
	// contract above).
	PostSend(buf Buffer, imm uint32, wrID uint64) error
	// PostRecv enqueues a receive buffer. Arriving sends match posted
	// receives in order; buf must be at least as large as the arriving
	// message. buf's contents are unspecified until the receive completes
	// with StatusOK.
	PostRecv(buf Buffer, wrID uint64) error
	// PostWrite enqueues a one-sided write of data into the peer's
	// registered region at the given offset. Only the local end observes
	// a completion; the peer's region watcher (if any) fires instead.
	// data is lent to the provider until the write completion fires.
	PostWrite(region RegionID, offset int, data []byte, wrID uint64) error
	// Close tears the connection down. The peer observes StatusBroken on
	// its outstanding work requests.
	Close() error
}

// Provider is a node's NIC: it creates queue pairs and delivers completions.
type Provider interface {
	// NodeID returns the local endpoint identity.
	NodeID() NodeID
	// Connect creates a queue pair to peer. Both sides must call Connect
	// with the same token (the out-of-band "key exchange" the paper does
	// over its bootstrap TCP mesh); the call returns immediately and work
	// requests posted before the pairing completes are queued.
	Connect(peer NodeID, token uint64) (QueuePair, error)
	// SetHandler installs the completion consumer. It must be set before
	// the first work request is posted and is invoked serially.
	SetHandler(h func(Completion))
	// SetBatchHandler installs a consumer of drained completion batches in
	// place of any per-completion handler. It receives non-empty slices in
	// the same serial order SetHandler's consumer would observe; a slice is
	// valid only for the duration of the call (the dispatcher reuses it).
	// Batching exists for lock amortization: the RDMC engine routes
	// completions to per-group state machines behind per-group locks, and a
	// batch lets it take each lock once per drained run instead of once per
	// block.
	SetBatchHandler(h func([]Completion))
	// RegisterRegion makes buf addressable by peers' one-sided writes.
	RegisterRegion(id RegionID, buf []byte) error
	// Region returns a registered region's memory (nil if unknown).
	Region(id RegionID) []byte
	// WatchRegion installs fn to run after each remote write into the
	// region, standing in for the polling loop a real one-sided-write
	// consumer would run. fn runs serially with the completion handler,
	// never on the poster's stack: it may take a lock the poster holds
	// across PostWrite.
	WatchRegion(id RegionID, fn func(offset, length int)) error
	// Close releases the provider; all queue pairs break.
	Close() error
}

// Errors shared by providers.
var (
	// ErrBroken is returned by posts on a queue pair whose connection has
	// failed or been closed.
	ErrBroken = errors.New("rdma: connection broken")
	// ErrClosed is returned by operations on a closed provider.
	ErrClosed = errors.New("rdma: provider closed")
	// ErrNoHandler is returned when a work request is posted before a
	// completion handler is installed.
	ErrNoHandler = errors.New("rdma: no completion handler installed")
	// ErrUnknownRegion is returned by writes targeting an unregistered
	// region.
	ErrUnknownRegion = errors.New("rdma: unknown memory region")
	// ErrBufferTooSmall is returned when an arriving message exceeds the
	// posted receive buffer.
	ErrBufferTooSmall = errors.New("rdma: posted receive buffer too small")
)
