package partition

import (
	"time"

	"uagpnm/internal/shard"
)

// The op-log streamer: phase 2 of ApplyDataBatch used to buffer every
// staged op and flush the whole ordered list in one end-of-phase /ops
// RPC per shard, serialising coordinator staging and shard application.
// The streamer overlaps them: ops seal into fenced chunks as staging
// proceeds, a background flusher fans each chunk to the fleet while the
// coordinator stages the next one, and the phase joins at finish().
//
// The discipline that keeps this exactly as safe as the single flush:
//
//   - Epochs are allocated at seal time on the mutation goroutine
//     (nextOpEpoch is single-writer), strictly increasing per chunk, so
//     the per-worker fence reconciles retries chunk by chunk.
//   - The flusher only performs RPCs. It never reads the partition
//     structures the staging goroutine is mutating.
//   - A fault does not trigger recovery on the flusher (recovery reads
//     and edits coordinator state mid-mutation). The flusher stalls:
//     the faulted chunk and everything after it accumulate unapplied,
//     and finish() repairs the fleet once staging is complete — a
//     promoted spare's build fence (Config.Epoch = the last sealed
//     epoch) then marks its snapshot as containing every chunk, and the
//     stalled chunks re-flush under the ordinary failover boundary. Survivors
//     acknowledge at-or-below-fence epochs without re-applying (see
//     shard/server.go), so nothing double-applies.

// DefaultOpChunk is the op-stream chunk size when WithOpChunk is unset:
// small enough that a typical batch streams several chunks, large
// enough that the per-chunk RPC overhead stays amortised.
const DefaultOpChunk = 128

// opChunkBacklog bounds how far staging may run ahead of the flusher
// (in sealed chunks) before it blocks on the send.
const opChunkBacklog = 4

// opChunk is one sealed, epoch-fenced slice of the batch's op stream.
type opChunk struct {
	epoch uint64
	ops   []shard.Op
}

// opStreamer owns phase 2's remote op flow for one batch.
type opStreamer struct {
	e     *Engine
	chunk int // seal threshold; ≤ 0 streams nothing (single final flush)
	pend  []shard.Op
	ch    chan opChunk
	join  chan struct{}

	// Flusher-owned until join (the channel close + join receive order
	// the accesses; no lock needed).
	stalled []opChunk
	fault   *shardFault
}

// newOpStreamer starts the background flusher for one batch's phase 2.
// Remote fleets only.
func (e *Engine) newOpStreamer() *opStreamer {
	s := &opStreamer{
		e:     e,
		chunk: e.opChunk,
		ch:    make(chan opChunk, opChunkBacklog),
		join:  make(chan struct{}),
	}
	go s.flusher()
	return s
}

// stage appends one op to the stream, sealing a chunk when the
// threshold fills. Mutation goroutine only.
func (s *opStreamer) stage(op shard.Op) {
	s.pend = append(s.pend, op)
	if s.chunk > 0 && len(s.pend) >= s.chunk {
		s.ch <- opChunk{epoch: s.e.nextOpEpoch(), ops: s.pend}
		s.pend = nil
	}
}

// flusher drains sealed chunks, fanning each to every alive shard.
// After the first fault it stops issuing RPCs and accumulates the rest
// for the recovery at finish().
func (s *opStreamer) flusher() {
	defer close(s.join)
	for c := range s.ch {
		if s.fault != nil {
			s.stalled = append(s.stalled, c)
			continue
		}
		if f := s.flushChunk(c); f != nil {
			s.fault = f
			s.stalled = append(s.stalled, c)
		}
	}
}

// flushChunk fans one chunk to the alive fleet, returning the first
// fault. Errors are recorded, not raised: the failover controller must
// not run on this goroutine.
func (s *opStreamer) flushChunk(c opChunk) *shardFault {
	alive := s.e.aliveIndices()
	faults := make([]*shardFault, len(alive))
	parallelFor(len(alive), len(alive), func(k int) {
		i := alive[k]
		//lint:allow faultseam streamer faults are recorded and repaired at the phase join, off the flusher goroutine
		if err := s.e.shards[i].ApplyOps(c.epoch, c.ops); err != nil {
			faults[k] = &shardFault{idx: i, err: err}
		}
	})
	s.e.metrics.Counter("gpnm_oplog_chunks_total").Inc()
	for _, f := range faults {
		if f != nil {
			return f
		}
	}
	return nil
}

// finish completes the stream: joins the flusher, repairs and
// re-flushes after a mid-stream fault, and flushes the unsealed tail.
// Mutation goroutine only; runs inside the batch's failover boundary.
func (s *opStreamer) finish() {
	joinStart := time.Now()
	close(s.ch)
	<-s.join
	s.e.span("oplog_join", joinStart)

	// Seal the tail BEFORE any recovery: a spare build fences its
	// snapshot at the highest allocated epoch, and the coordinator's
	// graph already contains the tail's ops — the tail epoch must sit at
	// or below that fence or a promoted spare would re-apply ops its
	// snapshot includes.
	var final []shard.Op
	var finalEpoch uint64
	if len(s.pend) > 0 {
		final, s.pend = s.pend, nil
		finalEpoch = s.e.nextOpEpoch()
	}
	if s.fault != nil {
		// Repair with staging complete: the coordinator's graph holds the
		// full batch and a spare's build fence covers every sealed epoch,
		// so stalled chunks re-flush idempotently against the repaired
		// fleet — promoted spares and survivors alike acknowledge epochs
		// their fence already covers.
		s.e.recoverFault(s.fault)
		for _, c := range s.stalled {
			c := c
			s.e.withFailover(func() { s.e.flushOps(c.epoch, c.ops) })
		}
	}
	if final != nil {
		s.e.withFailover(func() { s.e.flushOps(finalEpoch, final) })
		s.e.metrics.Counter("gpnm_oplog_chunks_total").Inc()
	}
}
