package hub

// Pins for what a shard worker is for: it holds a replica of the data
// graph and answers the batch's affected balls off it. The horizon
// travels with each /affected request, so a registration that widens
// it needs no worker call, and a lost worker is absorbed by the
// survivors as they stand — nothing is rebuilt on them.

import (
	"net/http"
	"strings"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/updates"
)

// horizonGraph is a chain A0→X1→X2→X3→B4 (A reaches B in exactly 4
// hops), a chain A5→X6→X7 and a lone B8. The balls of deleting X2→X3
// and of inserting X7→X3 reach A0 and A5 only at a horizon of at least
// 4.
func horizonGraph() *graph.Graph {
	g := graph.New(nil)
	for _, l := range []string{"A", "X", "X", "X", "B", "A", "X", "X", "B"} {
		g.AddNode(l)
	}
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// hopPattern is the two-node pattern from -bound-> to.
func hopPattern(g *graph.Graph, from, to string, bound pattern.Bound) *pattern.Graph {
	p := pattern.New(g.Labels())
	p.AddEdge(p.AddNode(from), p.AddNode(to), bound)
	return p
}

// TestShardedHorizonWidening registers, mid-session on a hub whose
// substrate runs on two loopback workers, a pattern that widens the
// horizon from 2 to 4, and then applies batches that delete and insert
// edges whose affected balls reach the matched nodes only at the wider
// horizon. After every batch each pattern's matches, and the size of
// the seed set its amendment ran from, must equal an in-process hub's.
// The seed set holds the change log the workers' balls make up: a
// worker still answering balls at the old horizon would leave A0 and
// A5 out of it.
func TestShardedHorizonWidening(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		ws := startWorker(t)
		t.Cleanup(ws.Close)
		addrs[i] = ws.URL
	}
	sharded, err := New(horizonGraph(), Config{Horizon: 2, Workers: 2, Shards: addrs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sharded.Close()
	plain := mustHub(t, horizonGraph(), Config{Horizon: 2, Workers: 2})
	hubs := []*Hub{sharded, plain}

	var ids [2][]PatternID
	register := func(mk func(g *graph.Graph) *pattern.Graph) {
		t.Helper()
		for k, h := range hubs {
			ids[k] = append(ids[k], mustRegister(t, h, mk(h.Graph())))
		}
	}
	same := func(when string) {
		t.Helper()
		for j := range ids[0] {
			ms, ok := sharded.Match(ids[0][j])
			mp, _ := plain.Match(ids[1][j])
			if !ok || !ms.Equal(mp) {
				t.Fatalf("%s, pattern %d: sharded hub diverges from in-process hub", when, j)
			}
			ss, _ := sharded.PatternStats(ids[0][j])
			sp, _ := plain.PatternStats(ids[1][j])
			if ss.SeedNodes != sp.SeedNodes {
				t.Fatalf("%s, pattern %d: sharded amendment seeded %d nodes, in-process %d",
					when, j, ss.SeedNodes, sp.SeedNodes)
			}
		}
	}
	apply := func(when string, ds ...updates.Update) {
		t.Helper()
		for _, h := range hubs {
			if _, _, err := h.ApplyBatch(Batch{D: ds}); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
		}
		same(when)
	}

	register(func(g *graph.Graph) *pattern.Graph { return hopPattern(g, "A", "X", 2) })
	apply("before widening", updates.Update{Kind: updates.DataEdgeInsert, From: 5, To: 1})
	apply("undo", updates.Update{Kind: updates.DataEdgeDelete, From: 5, To: 1})

	register(func(g *graph.Graph) *pattern.Graph { return hopPattern(g, "A", "B", 4) })
	if got := sharded.horizonNow.Load(); got != 4 {
		t.Fatalf("horizon after registering a bound-4 pattern = %d, want 4", got)
	}
	same("after widening")
	if m, _ := plain.Match(ids[1][1]); !m.Nodes(0).Contains(0) {
		t.Fatal("fixture broken: A0 should reach B4 in 4 hops")
	}

	apply("cut the chain", updates.Update{Kind: updates.DataEdgeDelete, From: 2, To: 3})
	apply("rejoin from A5", updates.Update{Kind: updates.DataEdgeInsert, From: 7, To: 3})
	if m, _ := plain.Match(ids[1][1]); m.Nodes(0).Contains(0) || !m.Nodes(0).Contains(5) {
		t.Fatal("fixture broken: the batches should move the A→B match from A0 to A5")
	}
	apply("mixed", updates.Update{Kind: updates.DataEdgeInsert, From: 2, To: 3},
		updates.Update{Kind: updates.DataEdgeDelete, From: 3, To: 4},
		updates.Update{Kind: updates.DataEdgeInsert, From: 3, To: 8})
}

// TestSurvivorAbsorbsLossWithoutRebuild kills one of two workers (no
// spares) and applies a batch: the loss is recovered, the matches equal
// an in-process hub's, and the survivor is not rebuilt — it already
// holds the whole graph, so it serves only its initial /build. The
// endpoints that used to hand it a dead worker's partitions are gone.
func TestSurvivorAbsorbsLossWithoutRebuild(t *testing.T) {
	survivor := newKillableHubWorker(t) // never armed
	victim := newKillableHubWorker(t)
	before := workerRequests(t, survivor.ts.URL)

	g, p := randomHubInstance(23, 120, 400)
	sharded, err := New(g.Clone(), Config{Horizon: 3, Workers: 2,
		Shards: []string{survivor.ts.URL, victim.ts.URL}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sharded.Close()
	plain := mustHub(t, g.Clone(), Config{Horizon: 3, Workers: 2})
	idS := mustRegister(t, sharded, p.Clone())
	idP := mustRegister(t, plain, p.Clone())

	gw := g.Clone()
	for i := 0; i < 2; i++ {
		b := updates.Generate(updates.Balanced(int64(300+i), 0, 30), gw, p)
		updates.ApplyDataStructural(b.D, gw)
		if i == 1 {
			victim.dead.Store(true)
		}
		_, st, err := sharded.ApplyBatch(Batch{D: b.D})
		if err != nil {
			t.Fatalf("sharded batch %d: %v", i, err)
		}
		if _, _, err := plain.ApplyBatch(Batch{D: b.D}); err != nil {
			t.Fatalf("plain batch %d: %v", i, err)
		}
		if want := i; st.Recovered != want {
			t.Fatalf("batch %d: BatchStats.Recovered = %d, want %d", i, st.Recovered, want)
		}
		ms, _ := sharded.Match(idS)
		mp, _ := plain.Match(idP)
		if !ms.Equal(mp) {
			t.Fatalf("batch %d: sharded hub diverges from in-process hub", i)
		}
	}

	if n := survivor.servedCount("/build"); n != 1 {
		t.Fatalf("survivor served %d /build requests, want only the initial one", n)
	}
	if n := survivor.servedCount("/rebuild"); n != 0 {
		t.Fatalf("survivor served %d /rebuild requests, want 0", n)
	}
	// Worker telemetry is shared by every worker in the test binary, so
	// compare the survivor's /metrics before and after: this hub's two
	// initial builds and no rebuild at all.
	after := workerRequests(t, survivor.ts.URL)
	if d := after["/build"] - before["/build"]; d != 2 {
		t.Fatalf("/metrics shows %v new /build requests, want the 2 initial ones", d)
	}
	if d := after["/rebuild"] - before["/rebuild"]; d != 0 {
		t.Fatalf("/metrics shows %v /rebuild requests, want 0", d)
	}
	for _, ep := range []string{"/rebuild", "/horizon"} {
		resp, err := http.Post(survivor.ts.URL+ep, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatalf("POST %s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s = HTTP %d, want 404", ep, resp.StatusCode)
		}
	}
}
