// Package shard defines the seam between the §V coordinator
// (internal/partition.Engine) and its shard workers. The coordinator
// keeps the data graph, the partition bookkeeping and the ball rows the
// matcher reads, which it computes by BFS over that graph. A worker
// keeps one thing: a label-less replica of the data-graph adjacency,
// fed by the coordinator's epoch-fenced op stream, off which it answers
// the batch's conservative affected balls (Affected). That is the one
// job a worker offloads; no row, distance or per-partition state
// crosses the seam.
//
// RPC fronts a worker process (cmd/gpnm-shard) over HTTP/JSON; Server
// is the worker side. An in-process engine has no shards at all.
//
// Contract: the coordinator mutates its own structures first and then
// streams each mutation to every worker as an Op; a worker applies the
// op to its replica.
package shard

import (
	"errors"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
)

// ErrSubstrateLost marks the sharded substrate as unrecoverable: a
// worker failed (transport death, replica divergence) and the
// coordinator could not repair the loss — no surviving or spare worker
// was left, or the recovery budget was exhausted. The partition engine
// wraps the terminal failure in this sentinel and poisons itself;
// coordinators (hub, Service front ends) surface it with errors.Is and
// drain. Before that terminal point, losses are handled by failover:
// every survivor already holds the full replica, so the dead slot is
// quarantined, a spare (if any) is built from the coordinator's graph,
// and the in-flight op stream is replayed under the Config.Epoch fence.
var ErrSubstrateLost = errors.New("substrate lost")

// Config carries what a worker needs to build its replica.
type Config struct {
	Workers int `json:"workers"` // per-worker pool bound for /affected

	// Epoch is the op-stream fence shipped with a build: the snapshot
	// already reflects every op flush up to and including this epoch,
	// so a replayed ApplyOps at or below it is acknowledged without
	// re-applying — that is how a spare promoted mid-batch, built from
	// the post-staging graph, survives the batch's retry without
	// double-application.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Edge is a directed edge between global node ids.
type Edge struct {
	From uint32 `json:"f"`
	To   uint32 `json:"t"`
}

// Snapshot serialises the data-graph adjacency for a worker build.
// Node ids are implicit: every id < NumIDs exists, ids listed in Dead
// are tombstoned. Labels are not carried; conservative balls are
// label-blind.
type Snapshot struct {
	NumIDs int      `json:"num_ids"`
	Dead   []uint32 `json:"dead,omitempty"`
	Edges  []Edge   `json:"edges,omitempty"`
}

// Materialise rebuilds the snapshot as a fresh graph (label-less).
func (s Snapshot) Materialise() *graph.Graph {
	g := graph.New(nil)
	for i := 0; i < s.NumIDs; i++ {
		g.AddNodeLabelIDs()
	}
	for _, d := range s.Dead {
		g.RemoveNode(d)
	}
	for _, e := range s.Edges {
		g.AddEdge(e.From, e.To)
	}
	return g
}

// Snap captures g as a Snapshot.
func Snap(g *graph.Graph) Snapshot {
	s := Snapshot{NumIDs: g.NumIDs()}
	for id := 0; id < s.NumIDs; id++ {
		if !g.Alive(uint32(id)) {
			s.Dead = append(s.Dead, uint32(id))
		}
	}
	g.Edges(func(e graph.Edge) {
		s.Edges = append(s.Edges, Edge{From: e.From, To: e.To})
	})
	return s
}

// OpKind enumerates the mutations a coordinator streams to its shards.
type OpKind int

// The four structural op kinds, mirroring the data-update kinds.
const (
	OpEdgeInsert OpKind = iota
	OpEdgeDelete
	OpNodeInsert
	OpNodeDelete
)

// Op is one structural mutation by global node id. In the op stream it
// is a mutation already applied to the coordinator's graph, which the
// worker replays on its replica; in an Affected request it names one
// update (OpEdgeInsert, OpEdgeDelete or OpNodeDelete) whose
// conservative ball the worker evaluates against its replica in its
// current state (phase 1 sends deletions pre-batch, phase 3 sends
// insertions post-batch).
type Op struct {
	Kind OpKind `json:"k"`
	From uint32 `json:"u,omitempty"`
	To   uint32 `json:"v,omitempty"`
	Node uint32 `json:"n,omitempty"`
}

// Shard is one worker of the sharded substrate.
//
// Error model: every method that can lose state or transport returns an
// error. A non-nil error means the worker's replica is no longer
// trustworthy — the RPC implementation returns a *TransportError after
// its retries are exhausted — and the coordinator (internal/partition)
// quarantines the slot and runs failover, with ErrSubstrateLost the
// terminal poison only when no worker survives.
type Shard interface {
	// Ping is the liveness probe the failover controller uses to tell
	// a dead worker from a transient fault: it must answer quickly
	// (bounded, no retries) and return nil only when the shard can
	// serve.
	Ping() error

	// Build replaces the worker's replica with snap, discarding all
	// prior state, and adopts cfg.Epoch as its op-stream fence.
	Build(cfg Config, snap Snapshot) error

	// ApplyOps applies one ordered batch of mutations (already applied
	// to the coordinator's graph). epoch fences the stream: the
	// coordinator issues a strictly increasing epoch per flush, and a
	// worker whose replica already reflects it (it applied it, or a
	// fenced build contained it) acknowledges without re-applying —
	// which is what makes the failover retry of an in-flight batch
	// safe against survivors that had applied before the loss.
	ApplyOps(epoch uint64, ops []Op) error

	// Affected computes the conservative affected-ball supersets of
	// the given updates against the worker's replica, at the given hop
	// horizon (0 = exact).
	Affected(horizon int, reqs []Op) ([]nodeset.Set, error)

	// Close releases the shard (remote: closes idle connections; the
	// worker process itself stays up for the next coordinator).
	Close() error
}

// capHops converts a horizon into a usable hop bound.
func capHops(horizon int) int {
	if horizon == 0 {
		return int(shortest.Inf) - 1
	}
	return horizon
}

// EdgeAffected is the conservative ball superset used as the affected
// set of an edge update: everything that reaches u within H-1 hops plus
// everything within H-1 hops of v (plus the endpoints). For insertions
// these balls are identical before and after the update (a new path to
// u via (u,v) would cycle through u), so one formula serves preview and
// apply; for deletions they are evaluated in the pre-delete state,
// which covers every pair whose old shortest path used the edge. gb is
// caller-pooled scratch; the function only reads g.
func EdgeAffected(gb *shortest.GraphBall, g *graph.Graph, u, v uint32, horizon int) nodeset.Set {
	H := capHops(horizon)
	var b nodeset.Builder
	b.Add(u)
	b.Add(v)
	for _, x := range gb.Ball(g, u, H-1, true) {
		b.Add(x)
	}
	for _, y := range gb.Ball(g, v, H-1, false) {
		b.Add(y)
	}
	return b.Set()
}

// NodeAffected is the conservative ball superset for deleting node id
// with out-neighbours outs and in-neighbours ins, evaluated in the
// pre-delete state: both balls around id at H, plus the forward balls
// of its successors and the reverse balls of its predecessors at H-1.
func NodeAffected(gb *shortest.GraphBall, g *graph.Graph, id uint32, outs, ins []uint32, horizon int) nodeset.Set {
	H := capHops(horizon)
	var b nodeset.Builder
	b.Add(id)
	for _, y := range gb.Ball(g, id, H, false) {
		b.Add(y)
	}
	for _, x := range gb.Ball(g, id, H, true) {
		b.Add(x)
	}
	for _, v := range outs {
		for _, y := range gb.Ball(g, v, H-1, false) {
			b.Add(y)
		}
	}
	for _, u := range ins {
		for _, x := range gb.Ball(g, u, H-1, true) {
			b.Add(x)
		}
	}
	return b.Set()
}
