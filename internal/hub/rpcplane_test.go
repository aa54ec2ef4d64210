package hub

// Pin for the single row source: a sharded hub reads every ball row off
// the coordinator's own graph, so its workers serve the op stream and
// the batch's affected balls but never a row — and the worker protocol
// has no row endpoint at all.

import (
	"bufio"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/updates"
)

// randomHubInstance builds a labelled random graph and one pattern over
// its label table, sized so batches produce real amend-fan traffic.
func randomHubInstance(seed int64, n, m int) (*graph.Graph, *pattern.Graph) {
	labels := []string{"A", "B", "C", "D"}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(nil)
	for i := 0; i < n; i++ {
		g.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < m; i++ {
		g.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	p := pattern.New(g.Labels())
	a := p.AddNode("A")
	b := p.AddNode("B")
	c := p.AddNode("C")
	p.AddEdge(a, b, 2)
	p.AddEdge(b, c, 1)
	return g, p
}

// workerRequests scrapes a worker's GET /metrics and returns its
// request count per endpoint (gpnm_worker_requests_total).
func workerRequests(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	const prefix = `gpnm_worker_requests_total{endpoint="`
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		end := strings.Index(rest, `"}`)
		if end < 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest[end+2:]), 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[rest[:end]] = v
	}
	return out
}

func TestShardedHubServesNoRows(t *testing.T) {
	const shards = 2
	addrs := make([]string, shards)
	for i := range addrs {
		ws := startWorker(t)
		t.Cleanup(ws.Close)
		addrs[i] = ws.URL
	}
	before := workerRequests(t, addrs[0])

	g, p := randomHubInstance(11, 160, 520)
	sharded, err := New(g.Clone(), Config{Horizon: 3, Workers: 2, Shards: addrs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sharded.Close()
	plain := mustHub(t, g.Clone(), Config{Horizon: 3, Workers: 2})

	// Pre-generate batches against an evolving clone so node-insert ids
	// line up when the hubs replay them.
	gw := g.Clone()
	batches := make([]updates.Batch, 3)
	for i := range batches {
		batches[i] = updates.Generate(updates.Balanced(int64(100+i), 0, 40), gw, p)
		updates.ApplyDataStructural(batches[i].D, gw)
	}
	var ids [2][]PatternID
	for k, h := range []*Hub{sharded, plain} {
		for _, q := range []*pattern.Graph{p, abPattern(h.Graph())} {
			ids[k] = append(ids[k], mustRegister(t, h, q.Clone()))
		}
	}
	for i, b := range batches {
		if _, _, err := sharded.ApplyBatch(Batch{D: b.D}); err != nil {
			t.Fatalf("sharded batch %d: %v", i, err)
		}
		if _, _, err := plain.ApplyBatch(Batch{D: b.D}); err != nil {
			t.Fatalf("plain batch %d: %v", i, err)
		}
		for j := range ids[0] {
			ms, _ := sharded.Match(ids[0][j])
			mp, _ := plain.Match(ids[1][j])
			if !ms.Equal(mp) {
				t.Fatalf("batch %d, pattern %d: sharded hub diverges from in-process hub", i, j)
			}
		}
	}

	// Worker telemetry is process-wide (every worker in this test binary
	// shares it), so the row endpoints must read zero across the whole
	// package run, while this hub's batches must show up as op-stream and
	// affected-ball traffic.
	after := workerRequests(t, addrs[0])
	for _, ep := range []string{"/row", "/rows"} {
		if n := after[ep]; n != 0 {
			t.Fatalf("workers served %v %s requests, want 0", n, ep)
		}
	}
	for _, ep := range []string{"/ops", "/affected"} {
		if after[ep] <= before[ep] {
			t.Fatalf("workers served no %s requests during the run", ep)
		}
	}
	resp, err := http.Post(addrs[0]+"/rows", "application/json", strings.NewReader(`{"reqs":[]}`))
	if err != nil {
		t.Fatalf("POST /rows: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /rows = HTTP %d, want 404", resp.StatusCode)
	}
}
