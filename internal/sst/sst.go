// Package sst implements a shared state table in the style Derecho layers
// over RDMC (paper §4.6): every member owns one row of counters, replicated
// into every other member's memory with one-sided RDMA writes, and reads the
// whole table locally. The paper: "Derecho augments RDMC with a replicated
// status table implemented using one-sided RDMA writes ... Delivery occurs
// only after every receiver has a copy of the message, which receivers
// discover by monitoring the status table."
//
// The table is deliberately minimal — a matrix of uint64 counters. It only
// moves cells (member i bumps "I have received messages 0..k" in its row);
// what the counters mean is the reader's business (package session).
package sst

import (
	"encoding/binary"
	"fmt"

	"rdmc/internal/rdma"
)

// Table is one member's endpoint of a shared state table with one row per
// member and a fixed number of uint64 columns.
type Table struct {
	provider rdma.Provider
	id       uint32
	rank     int
	cols     int

	local []byte           // the full table: len(members) rows × cols × 8 bytes
	qps   []rdma.QueuePair // to every other member
}

// region derives the registered-memory id for a table.
func region(id uint32) rdma.RegionID { return rdma.RegionID(id | 1<<30) }

// New creates the local endpoint. Every member calls New with identical
// arguments; rows start zeroed.
//
// onPush, when non-nil, runs for every update a remote member pushes into
// the local replica (the polling thread a real SST runs), with the cell's
// row, column and value, read race-free on the applying thread (a cell has
// one writer). It is installed before any queue pair connects, so no write
// lands unobserved. It runs on the provider's completion dispatch context,
// never inside the pusher's Set (rdma.Provider.WatchRegion).
func New(provider rdma.Provider, id uint32, members []rdma.NodeID, cols int, onPush func(row, col int, v uint64)) (*Table, error) {
	if cols < 1 {
		return nil, fmt.Errorf("sst: need at least one column, got %d", cols)
	}
	if len(members) < 2 {
		return nil, fmt.Errorf("sst: need at least two members, got %d", len(members))
	}
	if id >= 1<<30 {
		return nil, fmt.Errorf("sst: table id %d must fit in 30 bits", id)
	}
	t := &Table{
		provider: provider,
		id:       id,
		rank:     -1,
		cols:     cols,
		local:    make([]byte, len(members)*cols*8),
	}
	for i, m := range members {
		if m == provider.NodeID() {
			t.rank = i
			break
		}
	}
	if t.rank < 0 {
		return nil, fmt.Errorf("sst: node %d not in member list", provider.NodeID())
	}
	if err := provider.RegisterRegion(region(id), t.local); err != nil {
		return nil, err
	}
	if onPush != nil {
		err := provider.WatchRegion(region(id), func(offset, _ int) {
			row, col := offset/8/t.cols, offset/8%t.cols
			onPush(row, col, t.Get(row, col))
		})
		if err != nil {
			return nil, err
		}
	}
	for rank, m := range members {
		if rank == t.rank {
			t.qps = append(t.qps, nil)
			continue
		}
		lo, hi := t.rank, rank
		if lo > hi {
			lo, hi = hi, lo
		}
		qp, err := provider.Connect(m, uint64(id)<<32|1<<30|uint64(lo)<<16|uint64(hi))
		if err != nil {
			return nil, err
		}
		t.qps = append(t.qps, qp)
	}
	return t, nil
}

// regionReleaser is the optional provider capability Close uses to withdraw
// the table's registered memory and watcher. Every in-tree provider supports
// it (they embed nicbase.Base); a provider without it merely keeps the
// replica bytes registered.
type regionReleaser interface {
	UnregisterRegion(id rdma.RegionID)
}

// Close releases the table's endpoint: the queue pairs close and the
// registered region and its watcher are withdrawn, so a churned-through
// table leaves nothing reachable from the provider. Local reads (Get) keep
// working on the frozen replica; Set after Close fails on every push. Peers'
// replicas are untouched — they keep this member's last published row, which
// is exactly the frozen-frontier semantics a wedged session needs.
func (t *Table) Close() {
	for _, qp := range t.qps {
		if qp != nil {
			_ = qp.Close()
		}
	}
	t.qps = nil
	if r, ok := t.provider.(regionReleaser); ok {
		r.UnregisterRegion(region(t.id))
	}
}

// Rank returns the local member's row index.
func (t *Table) Rank() int { return t.rank }

func (t *Table) offset(row, col int) int { return (row*t.cols + col) * 8 }

// Get reads a cell from the local replica.
func (t *Table) Get(row, col int) uint64 {
	return binary.LittleEndian.Uint64(t.local[t.offset(row, col):])
}

// Set publishes a new value for a cell of the local member's own row: it
// updates the local replica and pushes the cell to every other member with
// one-sided writes. Per-queue-pair FIFO shows every reader a cell's values in
// the order they were set, as Derecho's monotonic predicates need.
//
// A push that fails — typically because that member died and its queue pair
// broke — does not stop propagation to the remaining members: during a view
// change the survivors behind a dead peer in iteration order still need every
// update, or the recovery protocol would wait forever on rows that were never
// written. The first error is returned after all pushes were attempted.
func (t *Table) Set(col uint, value uint64) error {
	if int(col) >= t.cols {
		return fmt.Errorf("sst: column %d out of range (%d columns)", col, t.cols)
	}
	off := t.offset(t.rank, int(col))
	binary.LittleEndian.PutUint64(t.local[off:], value)
	// The pushed bytes are snapshotted rather than sliced out of t.local:
	// providers reference a posted buffer zero-copy until the write
	// completion fires, and a later Set of the same cell must not mutate
	// bytes an in-flight push still owns.
	push := make([]byte, 8)
	binary.LittleEndian.PutUint64(push, value)
	var firstErr error
	for rank, qp := range t.qps {
		if qp == nil {
			continue
		}
		if err := qp.PostWrite(region(t.id), off, push, value); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sst: push to rank %d: %w", rank, err)
		}
	}
	return firstErr
}
