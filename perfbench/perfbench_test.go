package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/simulation"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	vs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}, {0.25, 20}} {
		if got := percentile(vs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if tailSupported(99, 0.9) || !tailSupported(100, 0.9) || !tailSupported(20, 0.5) {
		t.Error("tailSupported disagrees with n(1-p) >= 10")
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.8, 1.0, 0.9, 1.2, 1.1, 0.95, 1.05}, [3]float64{0.9, 1.0, 1.1}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.data)
		if !ok || !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.data, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "batch", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 5, Parent: 0},
		{Name: "ball", Start: 1, End: 3, Parent: 1, Aggregate: true},
		{Name: "b", Start: 6, End: 9, Parent: 0},
		// Overlapping children are covered once, and a child is clipped
		// to its parent.
		{Name: "x", Start: 6, End: 8, Parent: 3},
		{Name: "y", Start: 7, End: 12, Parent: 3},
	}
	self := selfTimes(spans)
	want := []float64{3, 2, 2, 0, 2, 5}
	for i := range want {
		if !near(self[i], want[i]) {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestHubAttributionNesting(t *testing.T) {
	ms := func(v float64) float64 { return v / 1000 }
	tr := obs.Trace{Spans: []obs.Span{
		{Name: "der1_fan", Seconds: ms(1)},
		{Name: "pre_balls", Seconds: ms(2)},
		{Name: "oplog_join", Seconds: ms(1)},
		{Name: "oplog_flush", Seconds: ms(3)},
		{Name: "overlay_sync", Seconds: ms(4)},
		{Name: "post_balls", Seconds: ms(1)},
		{Name: "row_prefetch", Seconds: ms(1)},
		{Name: "slen_sync", Seconds: ms(12)},
		{Name: "wake_plan", Seconds: ms(1)},
		{Name: "amend_fan", Seconds: ms(5)},
	}}
	self, ok := hubAttribution(tr, 20*time.Millisecond)
	if !ok {
		t.Fatalf("attribution rejected: %v", self)
	}
	want := map[string]float64{
		"der1_fan": 1, "pre_balls": 2, "oplog_join": 1, "oplog_flush": 2, "overlay_sync": 4,
		"post_balls": 1, "row_prefetch": 1, "slen_sync": 1, "wake_plan": 1, "amend_fan": 5,
		"unattributed": 1,
	}
	sum := 0.0
	for name, w := range want {
		if !near(math.Round(self[name]*1e6)/1e6, w) {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
		sum += self[name]
	}
	if math.Abs(sum-20) > 1e-6 {
		t.Errorf("attribution sums to %v ms, want the 20 ms wall", sum)
	}
	// Spans that claim more than the wall time are rejected.
	if _, ok := hubAttribution(tr, 10*time.Millisecond); ok {
		t.Error("attribution accepted spans longer than the batch")
	}
}

// tiny shrinks a workload so that a test can run it in seconds.
func tiny(sp spec) spec {
	if sp.clusters > 0 {
		sp.clusters, sp.clusterNodes, sp.clusterEdges, sp.patterns = 4, 40, 100, 24
	} else {
		sp.nodes, sp.edges, sp.labels, sp.patterns = 400, 1600, 6, 4
		sp.dataUpdates = 40
	}
	if sp.open {
		sp.rate = 5
	}
	return sp
}

func metricNames(m map[string]value) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func wantNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// Every workload runs at tiny size, untraced and traced, on two seeds:
// each run passes its correctness checks and reports exactly the
// declared metrics, so a claim can be re-checked on a held-out seed.
func TestTinyRunsOfEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			for _, seed := range []int64{1, 2} {
				rec, spans, err := run(tiny(specs[name]), seed, 0.4, traced)
				if err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", name, seed, traced, err)
				}
				res := rec.Result
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d problems=%v",
						name, seed, traced, res.Correct, res.Attempted, res.Failed, rec.Problems)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
					if spans == nil || len(spans.spans) == 0 {
						t.Errorf("%s: traced run recorded no spans", name)
					}
				}
				if got, want := metricNames(res.Metrics), wantNames(defs); !equalStrings(got, want) {
					t.Errorf("%s seed %d traced=%v: metrics %v, want %v", name, seed, traced, got, want)
				}
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A match corrupted on purpose must be counted as a mismatch.
func TestMismatchesCatchesACorruptedMatch(t *testing.T) {
	in := generate(tiny(specs["stream"]), 3)
	s, err := setUp(in)
	if err != nil {
		t.Fatal(err)
	}
	defer s.tearDown()
	var pats []*pattern.Graph
	var matches []*simulation.Match
	for _, id := range s.h.Patterns() {
		p, m, _, err := s.h.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		pats, matches = append(pats, p), append(matches, m)
	}
	if n := mismatches(s.h.Graph().Clone(), in.sp.horizon, pats, matches); n != 0 {
		t.Fatalf("%d mismatches before corruption", n)
	}
	// Put a node that is not in the simulation set into it.
	p := pats[0]
	var u pattern.NodeID
	p.Nodes(func(x pattern.NodeID) { u = x })
	bad := simulation.MatchFromSets(p, func(x pattern.NodeID) nodeset.Set {
		set := matches[0].SimulationSet(x)
		if x == u {
			set = set.Union(nodeset.New(uint32(s.h.Graph().NumIDs() - 1)))
			if set.Equal(matches[0].SimulationSet(x)) {
				set = nodeset.New()
			}
		}
		return set
	})
	matches[0] = bad
	if n := mismatches(s.h.Graph().Clone(), in.sp.horizon, pats, matches); n == 0 {
		t.Fatal("a corrupted match went unnoticed")
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// program reports, with the same units and directions.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !equalStrings(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, program has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, program has %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(base))
	same := make([]float64, len(base))
	for i, v := range base {
		faster[i] = v * 0.8
		same[i] = base[(i+1)%len(base)]
	}
	if v := judge(base, faster, "lower", 0.1); v.Call != "better" || v.Wins != 10 {
		t.Errorf("20%% faster everywhere: %+v", v)
	}
	if v := judge(faster, base, "lower", 0.1); v.Call != "worse" || !v.BoundExceeded {
		t.Errorf("25%% slower everywhere: %+v", v)
	}
	if v := judge(base, same, "lower", 0.1); v.Call != "within noise" || v.BoundExceeded {
		t.Errorf("a permutation of the base: %+v", v)
	}
	if v := judge(base[:5], faster[:5], "lower", 0.1); v.Call != "unresolved (fewer than 10 pairs)" {
		t.Errorf("five pairs: %+v", v)
	}
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if v := judge(wide, base, "lower", 0.1); v.Call != "unresolved" {
		t.Errorf("a base spread wider than the bound: %+v", v)
	}
}

func TestCompareFlagsDifferentEnvironments(t *testing.T) {
	rec := func(seed int64, nproc int, v float64) recording {
		return recording{Workload: "stream", Seed: seed, Env: env{NumCPU: nproc, GOMAXPROCS: nproc, GoVersion: "go1"},
			Result: result{Correct: true, Metrics: map[string]value{"apply_p50_ms": {v, "ms"}}}}
	}
	var base, head []recording
	for seed := int64(1); seed <= 10; seed++ {
		base = append(base, rec(seed, 2, 100+float64(seed)))
		head = append(head, rec(seed, 4, 50+float64(seed)))
	}
	var log strings.Builder
	vs := compareRecordings(&log, base, head, map[string]float64{"apply_p50_ms": 0.1})
	if !strings.Contains(log.String(), "environments differ") {
		t.Errorf("no environment warning in %q", log.String())
	}
	if len(vs) != 1 || vs[0].Metric != "apply_p50_ms" || vs[0].Call != "better" || vs[0].Pairs != 10 {
		t.Errorf("verdicts %+v", vs)
	}
}
