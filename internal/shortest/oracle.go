package shortest

import (
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
)

// Oracle is the read side of an SLen substrate: everything the matcher,
// the elimination detectors and the amendment need to test bounded path
// lengths. They ask only for bounded balls; point distances are a
// property of the global Engine alone (tests use it as the reference).
type Oracle interface {
	// ForwardBall visits {v : d(u,v) ≤ k} ascending, u included at 0.
	ForwardBall(u uint32, k int, fn func(v uint32, d Dist) bool)
	// ReverseBall visits {x : d(x,v) ≤ k} ascending, v included at 0.
	ReverseBall(v uint32, k int, fn func(x uint32, d Dist) bool)
	// Horizon reports the hop cap (0 = exact).
	Horizon() int
	// Exact reports whether distances beyond any bound are represented.
	Exact() bool
}

// DistanceEngine is a maintainable SLen substrate: an Oracle plus the
// incremental update operations and the affected-set previews the
// elimination machinery (DER-II/III) is built on. Two implementations
// exist: the global Engine in this package and the label-partitioned
// engine in internal/partition (§V of the paper). UA-GPNM runs on the
// partitioned one; every other solver runs on the global one.
type DistanceEngine interface {
	Oracle
	// Build (re)computes the substrate from the graph.
	Build()
	// Graph returns the underlying data graph.
	Graph() *graph.Graph
	// InsertEdge/DeleteEdge/InsertNode/DeleteNode synchronise the
	// substrate after the corresponding graph mutation and return the
	// affected nodes (a superset of every endpoint of a changed pair).
	InsertEdge(u, v uint32) nodeset.Set
	DeleteEdge(u, v uint32) nodeset.Set
	InsertNode(id uint32) nodeset.Set
	DeleteNode(id uint32, removed []graph.Edge) nodeset.Set
	// Preview* return the affected set without mutating anything.
	PreviewInsertEdge(u, v uint32) nodeset.Set
	PreviewDeleteEdge(u, v uint32) nodeset.Set
	PreviewDeleteNode(id uint32) nodeset.Set
	// EnsureHorizon widens a capped substrate to cover bound k.
	EnsureHorizon(k int)
	// CloneFor returns an independent copy operating on g2, a clone of
	// the engine's graph.
	CloneFor(g2 *graph.Graph) DistanceEngine
}

// CloneFor implements DistanceEngine for the global engine.
func (e *Engine) CloneFor(g2 *graph.Graph) DistanceEngine { return e.Clone(g2) }

// compile-time interface check
var _ DistanceEngine = (*Engine)(nil)
