package partition

import (
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shard"
	"uagpnm/internal/updates"
)

// ApplyDataBatch applies a whole ΔGD sequence — mutating the data graph
// and the partition bookkeeping per update, and streaming the ops to
// any remote shards — and returns the per-update affected sets (Aff_N,
// for DER-II/EH-Tree) plus their union (the batch change log the
// amendment seeds on).
//
// Affected sets are the conservative ball supersets: deletions take
// their balls in the pre-batch state (covering every pair whose original
// shortest path used the deleted element), insertions in the post-batch
// state (covering every pair whose new shortest path uses the inserted
// edge). Any pair whose distance differs between the original and final
// state is witnessed by one of the two, so the union seeds the amendment
// exactly as the per-update API would, with one row-cache invalidation
// for the whole batch (§VI).
//
// The ball phases (1 and 3) are read-only snapshots of a fixed graph
// state; in process they run one update per pool worker, with remote
// shards they fan across the shard processes (each worker computing
// its slice against its own data-graph replica). The structural phase
// (2) is order-dependent: the coordinator applies every update to its
// own structures serially and streams remote shards the ordered op log
// in epoch-fenced chunks that flush in the background while staging
// continues, joining at the end of the phase (see stream.go). Finally
// the reverse rows of the change log — exactly the rows the subsequent
// amendment pass queries — are pre-warmed across the pool.
//
// This is the substrate's error and failover boundary. Losing a shard
// mid-batch (transport death, replica divergence) does not poison by
// default: the dead worker is quarantined, a spare (if any) is built
// from the coordinator's graph, and the faulted phase is retried on the
// repaired fleet — the op stream is epoch-fenced so a survivor that had
// already applied the in-flight flush never double-applies (see
// recovery.go). Only when no worker survives or the failover budget
// (WithFailoverRetries) is spent does the terminal path fire: an error
// wrapping shard.ErrSubstrateLost, with the engine poisoned (Err
// reports the sticky loss) because the data graph and the replicas may
// then disagree about which prefix of the batch applied. Callers of a
// poisoned engine drain and rebuild.
func (e *Engine) ApplyDataBatch(ds []updates.Update, g *graph.Graph) (perUpdate []nodeset.Set, changeLog nodeset.Set, err error) {
	return e.ApplyDataBatchPre(ds, g, nil)
}

// ApplyDataBatchPre is ApplyDataBatch with phase 1 optionally hoisted
// out: pre, when aligned with ds, carries the deletions' pre-state
// conservative balls already computed against exactly this graph state
// (the pipelined hub overlaps that computation with the previous
// batch's amendment fan — see hub.Pipeline). The balls are adopted
// verbatim in place of the phase-1 fan; the caller vouches that the
// graph has not changed since they were taken and that the same
// existence guards were applied. A nil or misaligned pre runs phase 1
// normally.
func (e *Engine) ApplyDataBatchPre(ds []updates.Update, g *graph.Graph, pre []nodeset.Set) (perUpdate []nodeset.Set, changeLog nodeset.Set, err error) {
	if lossErr := e.Err(); lossErr != nil {
		return nil, nil, lossErr
	}
	defer RecoverSubstrateLoss(&err)
	e.resetFailoverBudget()
	e.metrics.Counter("gpnm_batches_total").Inc()
	perUpdate = make([]nodeset.Set, len(ds))

	// Phase 1: pre-state balls for deletions (nothing applied yet).
	phaseStart := time.Now()
	switch {
	case pre != nil && len(pre) == len(ds):
		for i, u := range ds {
			if u.Kind == updates.DataEdgeDelete || u.Kind == updates.DataNodeDelete {
				perUpdate[i] = pre[i]
			}
		}
	case e.Remote():
		e.withFailover(func() { e.remoteAffected(ds, g, false, nil, perUpdate) })
	default:
		parallelFor(e.workers, len(ds), func(i int) {
			switch u := ds[i]; u.Kind {
			case updates.DataEdgeDelete:
				if g.HasEdge(u.From, u.To) {
					perUpdate[i] = e.conservativeEdgeAffected(u.From, u.To)
				}
			case updates.DataNodeDelete:
				if g.Alive(u.Node) {
					perUpdate[i] = e.nodeAffected(u.Node, g.Out(u.Node), g.In(u.Node))
				}
			}
		})
	}

	e.span("pre_balls", phaseStart)

	// Phase 2: structural application in update order. Remote shards
	// receive the ordered op log as an epoch-fenced chunk stream that
	// flushes in the background while staging continues, joining at the
	// end of the phase. See stream.go. The row caches are stale
	// afterwards.
	phaseStart = time.Now()
	applied := make([]bool, len(ds))
	var stream *opStreamer
	if e.Remote() {
		stream = e.newOpStreamer()
	}
	stage := func(op shard.Op) {
		if stream != nil {
			stream.stage(op)
		}
	}
	for i, u := range ds {
		switch u.Kind {
		case updates.DataEdgeInsert:
			if g.AddEdge(u.From, u.To) {
				stage(e.stageInsertEdge(u.From, u.To))
				applied[i] = true
			}
		case updates.DataEdgeDelete:
			if g.RemoveEdge(u.From, u.To) {
				stage(e.stageDeleteEdge(u.From, u.To))
				applied[i] = true
			}
		case updates.DataNodeInsert:
			if id := g.AddNode(u.Labels...); id != u.Node {
				//lint:allow panic node ids are allocated deterministically by the validated batch; a mismatch means corrupted coordinator state, not bad input
				panic("partition: batch node insert id mismatch")
			}
			stage(e.stageInsertNode(u.Node))
			applied[i] = true
		case updates.DataNodeDelete:
			if removed, ok := g.RemoveNode(u.Node); ok {
				stage(e.stageDeleteNode(u.Node, removed))
				applied[i] = true
			}
		default:
			//lint:allow panic API contract: callers split batches by kind before calling; a pattern update here is a programming error
			panic("partition: ApplyDataBatch on pattern update " + u.String())
		}
	}
	if stream != nil {
		stream.finish()
	}
	e.invalidate()
	e.span("oplog_flush", phaseStart)

	// Phase 3: post-state balls for insertions; assemble the change log.
	phaseStart = time.Now()
	if e.Remote() {
		e.withFailover(func() { e.remoteAffected(ds, g, true, applied, perUpdate) })
	} else {
		parallelFor(e.workers, len(ds), func(i int) {
			if !applied[i] {
				return
			}
			switch u := ds[i]; u.Kind {
			case updates.DataEdgeInsert:
				perUpdate[i] = e.conservativeEdgeAffected(u.From, u.To)
			case updates.DataNodeInsert:
				perUpdate[i] = nodeset.New(u.Node)
			}
		})
	}
	var log nodeset.Builder
	for i := range ds {
		if applied[i] {
			log.AddAll(perUpdate[i])
		}
	}
	changeLog = log.Set()
	e.span("post_balls", phaseStart)

	// Warm the rows the amendment will query: BFS rows over the
	// coordinator's graph, so no shard is involved.
	phaseStart = time.Now()
	e.prefetchRows(changeLog)
	e.span("row_prefetch", phaseStart)
	return perUpdate, changeLog, nil
}
