package core

import "time"

// BlockStamp records one block-level event for the microbenchmarks.
type BlockStamp struct {
	// Block is the block number moved.
	Block int
	// PostedAt is when the work request was posted (sends only; receives
	// are posted in a batch during setup).
	PostedAt time.Duration
	// DoneAt is when the completion fired.
	DoneAt time.Duration
}

// TransferStats is the per-node timing record of one message, captured when
// GroupConfig.RecordStats is set. The benchmark harness derives the paper's
// Table 1 rows and Figure 5 timelines from it.
type TransferStats struct {
	// Seq is the message sequence number.
	Seq int
	// Size is the message size in bytes and Blocks its block count.
	Size   int64
	Blocks int
	// StartAt is when the node learned of the transfer (the root's send
	// call, or receipt of the prepare announcement).
	StartAt time.Duration
	// SetupDoneAt is when local setup finished: for receivers, buffers
	// posted and credited to their sources (a one-block block has already
	// landed); for the root, its first send posted, which waited for that
	// target's credit (Table 1's "Remote Setup").
	SetupDoneAt time.Duration
	// Sends and Recvs record per-block completions in execution order.
	Sends []BlockStamp
	Recvs []BlockStamp
	// CopyTime is the critical-path memory-copy time charged (Table 1's
	// "Copy Time" row: the first block lands in a staging buffer and is
	// copied into place).
	CopyTime time.Duration
	// DeliveredAt is when the message became locally complete.
	DeliveredAt time.Duration
}

// TotalTime is the node-local span of the transfer.
func (s *TransferStats) TotalTime() time.Duration { return s.DeliveredAt - s.StartAt }

// SetupTime is the node-local setup span.
func (s *TransferStats) SetupTime() time.Duration { return s.SetupDoneAt - s.StartAt }

// SendBusy sums the post-to-completion spans of the node's sends.
func (s *TransferStats) SendBusy() time.Duration {
	var total time.Duration
	for _, b := range s.Sends {
		total += b.DoneAt - b.PostedAt
	}
	return total
}

// SendWait sums the gaps between consecutive sends (previous completion to
// next post) plus the lead-in from setup to the first post: the time the
// node's transmit side sat idle waiting for blocks, readiness, or the CPU.
// Every component is clamped to ≥ 0: the root stamps its setup only once its
// first send has posted, a clock read after that send's PostedAt, and a
// negative lead-in would silently deflate the wait total.
func (s *TransferStats) SendWait() time.Duration {
	if len(s.Sends) == 0 {
		return 0
	}
	var total time.Duration
	if lead := s.Sends[0].PostedAt - s.SetupDoneAt; lead > 0 {
		total = lead
	}
	for i := 1; i < len(s.Sends); i++ {
		if gap := s.Sends[i].PostedAt - s.Sends[i-1].DoneAt; gap > 0 {
			total += gap
		}
	}
	return total
}

// RecvSpan is the span from setup completion to the last block arrival: the
// window during which the node's receive side was active.
func (s *TransferStats) RecvSpan() time.Duration {
	if len(s.Recvs) == 0 {
		return 0
	}
	return s.Recvs[len(s.Recvs)-1].DoneAt - s.SetupDoneAt
}

// RecvGaps returns the inter-arrival gaps between consecutive block
// receptions, a direct view of per-step wait time (Figure 5).
func (s *TransferStats) RecvGaps() []time.Duration {
	if len(s.Recvs) < 2 {
		return nil
	}
	gaps := make([]time.Duration, 0, len(s.Recvs)-1)
	for i := 1; i < len(s.Recvs); i++ {
		gaps = append(gaps, s.Recvs[i].DoneAt-s.Recvs[i-1].DoneAt)
	}
	return gaps
}
