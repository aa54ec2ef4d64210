package partition

import (
	"math/rand"
	"testing"

	"uagpnm/internal/shortest"
)

// TestRowCacheInvalidation ensures a stale cached row never survives a
// mutation.
func TestRowCacheInvalidation(t *testing.T) {
	g, ids := fig4Graph()
	e := NewEngine(g, 0)
	e.Build()
	// Warm the cache.
	seen := 0
	e.ForwardBall(ids["SE1"], 4, func(uint32, shortest.Dist) bool { seen++; return true })
	if seen == 0 {
		t.Fatal("warmup ball empty")
	}
	// Mutate: drop the shortcut through PM1.
	g.RemoveEdge(ids["PM1"], ids["SE4"])
	e.DeleteEdge(ids["PM1"], ids["SE4"])
	// d(SE1,SE4) must now be 3 in the (fresh) ball.
	if got := rowDist(e, ids["SE1"], ids["SE4"]); got != 3 {
		t.Fatalf("cached ball served stale distance %v, want 3", got)
	}
}

// TestBatchApplyMatchesSingleOps: ApplyDataBatch and the per-update API
// must leave identical oracle state.
func TestBatchApplyMatchesSingleOps(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		g := homophilousGraph(rng, 30, 90, 3, 0.8)
		e := NewEngine(g, 3)
		e.Build()
		g2 := g.Clone()
		e2 := e.CloneFor(g2).(*Engine)

		// One batch: some inserts, some deletes, a node insert + delete.
		var live []uint32
		g.Nodes(func(id uint32) { live = append(live, id) })
		newID := uint32(g.NumIDs())
		victim := live[rng.Intn(len(live))]
		batch := makeBatch(rng, g, live, newID, victim)

		// Path A: fused batch API.
		_, _, _ = e.ApplyDataBatch(batch, g)
		// Path B: per-update API on the clone.
		applySingles(t, batch, g2, e2)

		n := g.NumIDs()
		for u := uint32(0); int(u) < n; u++ {
			for v := uint32(0); int(v) < n; v++ {
				if a, b := rowDist(e, u, v), rowDist(e2, u, v); a != b {
					t.Fatalf("trial %d: batch vs singles d(%d,%d): %v vs %v", trial, u, v, a, b)
				}
			}
		}
	}
}
