// Command perfbench is the standing-query benchmark of this repository.
// It generates one workload from a seed, sets the system up at its
// defaults, drives it for a fixed time, checks every result against a
// from-scratch recompute, and prints its metrics; the last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"apply_p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is traced and the metrics are the per-layer ones. Run it through
// run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 25 --trace 0
//
// -compare BASE,HEAD diffs two directories of recordings instead (see
// compare.go). README.md in this directory explains the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"uagpnm/internal/core"
	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/simulation"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"apply_p50_ms", "ms", "lower"},
	{"apply_p90_ms", "ms", "lower"},
	{"updates_per_s", "1/s", "higher"},
	{"delta_lag_p50_ms", "ms", "lower"},
	{"delta_lag_p90_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p90_ms", "ms", "lower"},
	{"register_p50_ms", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"hub.apply_wall_ms", "ms", "lower"},
		{"hub.amend_fan_ms", "ms", "lower"},
		{"hub.wake_plan_ms", "ms", "lower"},
		{"hub.woken", "count", "lower"},
		{"hub.skipped", "count", "higher"},
		{"hub.wake_useful_frac", "ratio", "higher"},
		{"hub.der1_fan_ms", "ms", "lower"},
		{"hub.unattributed_ms", "ms", "lower"},
		{"hub.register_ms", "ms", "lower"},
		{"hub.read_wait_ms", "ms", "lower"},
		{"partition.sync_ms", "ms", "lower"},
		{"partition.sync_self_ms", "ms", "lower"},
		{"partition.pre_balls_ms", "ms", "lower"},
		{"partition.oplog_flush_ms", "ms", "lower"},
		{"partition.oplog_join_ms", "ms", "lower"},
		{"partition.overlay_sync_ms", "ms", "lower"},
		{"partition.post_balls_ms", "ms", "lower"},
		{"partition.row_prefetch_ms", "ms", "lower"},
		{"partition.affected_nodes", "count", "lower"},
		{"partition.changelog_nodes", "count", "lower"},
		{"shortest.ball_calls", "count", "lower"},
		{"shortest.ball_nodes", "count", "lower"},
		{"shortest.ball_ms", "ms", "lower"},
		{"shortest.nodes_per_call", "count", "lower"},
		{"elim.can_ms", "ms", "lower"},
		{"elim.cross_calls", "count", "lower"},
		{"elim.cross_ms", "ms", "lower"},
		{"elim.eliminated", "count", "higher"},
		{"elim.eliminated_frac", "ratio", "higher"},
		{"ehtree.build_ms", "ms", "lower"},
		{"ehtree.size", "count", "lower"},
		{"ehtree.roots", "count", "lower"},
		{"simulation.amend_ms", "ms", "lower"},
		{"simulation.delta_ms", "ms", "lower"},
		{"simulation.seed_nodes", "count", "lower"},
		{"simulation.delta_nodes", "count", "lower"},
		{"simulation.run_ms", "ms", "lower"},
		{"replay.wall_ms", "ms", "lower"},
		{"replay.unattributed_ms", "ms", "lower"},
		{"api.apply_overhead_ms", "ms", "lower"},
		{"api.delivery_ms", "ms", "lower"},
		{"api.encode_us", "us", "lower"},
		{"api.decode_us", "us", "lower"},
		{"api.request_bytes", "bytes", "lower"},
		{"api.delta_bytes", "bytes", "lower"},
		{"api.empty_poll_frac", "ratio", "lower"},
		{"api.gen_late_ms", "ms", "lower"},
	}
	for _, ep := range rpcEndpoints {
		defs = append(defs, metricDef{"shard.rpc_calls." + ep, "count", "lower"}, metricDef{"shard.rpc_ms." + ep, "ms", "lower"})
	}
	return append(defs,
		metricDef{"shard.rpc_bytes", "bytes", "lower"},
		metricDef{"shard.rows_planned", "count", "lower"},
		metricDef{"shard.rows_prefetched", "count", "lower"},
		metricDef{"shard.rows_missed", "count", "lower"},
		metricDef{"shard.rows_deduped", "count", "higher"},
		metricDef{"shard.row_plan_ms", "ms", "lower"},
		metricDef{"shard.rpc_failures", "count", "lower"},
		metricDef{"shard.rpc_retries", "count", "lower"},
		metricDef{"trace_overhead", "ratio", "lower"},
	)
}()

// setups is how many times a run sets the system up; setup_s is their
// median.
const setups = 7

// idleReads is how many snapshot reads are timed on the idle system
// after the run, the base hub.read_wait_ms subtracts.
const idleReads = 31

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// recording is what one run writes next to its printed result: the
// result itself plus its environment, sample counts and any problems.
type recording struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    int            `json:"trace"`
	Env      env            `json:"env"`
	Samples  map[string]int `json:"samples"`
	Problems []string       `json:"problems,omitempty"`
	Result   result         `json:"result"`
}

func main() {
	workload := flag.String("workload", "", "workload: stream, fanout, serve or sharded")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measured time of the run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for recordings and span logs")
	root := flag.String("root", ".", "root of the checkout (for the environment stamp)")
	compare := flag.String("compare", "", "BASE,HEAD: compare two directories of recordings instead of running")
	flag.Parse()

	if *compare != "" {
		if err := runCompare(os.Stdout, *compare); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	sp, ok := specs[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in %v, -seconds > 0 and -trace 0 or 1\n", workloadNames)
		os.Exit(2)
	}
	rec, spans, err := run(sp, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec.Env = captureEnv(*root)
	if err := writeOutputs(*out, rec, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing outputs:", err)
	}
	summarize(os.Stdout, rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one run of one workload and returns its recording (the
// environment stamp is left to the caller) and, when traced, the
// replay's spans.
func run(sp spec, seed int64, seconds float64, traced bool) (*recording, *spanLog, error) {
	in := generate(sp, seed)
	var s *system
	var setupS []float64
	var registerMs sample
	var heap0 float64
	for i := 0; i < setups; i++ {
		if s != nil {
			registerMs = append(registerMs, s.registerMs...)
			s.tearDown()
			s = nil
		}
		heap0 = liveHeapMB()
		var err error
		if s, err = setUp(in); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, s.setup.Seconds())
	}
	heapMB := liveHeapMB() - heap0

	var tr *tracer
	if traced {
		tr = newTracer(in)
		tr.start(s)
	}
	// A traced run replays its batches after the loop, which takes about
	// as long again, so its loop gets half the time.
	loopSeconds := seconds
	if traced {
		loopSeconds = seconds / 2
	}
	setupRegistrations := len(s.registerMs)
	var r *runStats
	if sp.open {
		r = openLoop(in, s, loopSeconds, tr)
	} else {
		r = closedLoop(in, s, loopSeconds, tr)
	}
	// register_p50_ms is registration latency under churn: the loop's
	// registrations, not set-up's.
	churnMs := s.registerMs[setupRegistrations:]
	registerMs = append(registerMs, s.registerMs...)

	idle := idleReadMs(s, r.watched)
	checked, mismatches, err := checkFinal(s, in)
	if err != nil {
		r.fail("final check: %v", err)
	}
	if traced {
		tr.rpc1 = readRPC(s.reg)
	}
	s.tearDown()

	trace := 0
	if traced {
		trace = 1
	}
	rec := &recording{Workload: sp.name, Seed: seed, Seconds: seconds, Trace: trace, Samples: map[string]int{
		"apply": len(r.applyMs), "delta_lag": len(r.lagMs), "read": len(r.readMs),
		"register": len(churnMs), "setup": len(setupS), "batches": len(r.batches),
	}}
	if sp.open {
		// The open loop is only valid while the generator keeps its
		// schedule: a late send means the rate exceeded capacity.
		period := 1000 / sp.rate
		if late := percentile(r.genLateMs.sorted(), 0.9); late > period/2 {
			r.fail("generator ran late: p90 %.1f ms against a %.1f ms period", late, period)
		}
	}
	if !traced {
		for _, c := range []struct {
			name string
			n    int
		}{{"apply", len(r.applyMs)}, {"delta_lag", len(r.lagMs)}, {"read", len(r.readMs)}} {
			if !tailSupported(c.n, 0.9) {
				rec.Problems = append(rec.Problems, fmt.Sprintf("%s_p90 rests on %d samples, fewer than ten beyond it", c.name, c.n))
			}
		}
	}

	var spans *spanLog
	metrics := map[string]value{}
	if traced {
		spans = tr.replay(r.batches)
		for _, f := range tr.fails {
			r.fail("trace: %s", f)
		}
		for name, v := range layerMetrics(tr, r, registerMs, idle) {
			metrics[name] = v
		}
	} else {
		applyS, lagS, readS := r.applyMs.sorted(), r.lagMs.sorted(), r.readMs.sorted()
		put := func(name string, v float64) {
			metrics[name] = value{v, unitOf(endToEnd, name)}
		}
		put("setup_s", median(setupS))
		put("apply_p50_ms", percentile(applyS, 0.5))
		put("apply_p90_ms", percentile(applyS, 0.9))
		put("updates_per_s", float64(r.updates)/r.wall.Seconds())
		put("delta_lag_p50_ms", percentile(lagS, 0.5))
		put("delta_lag_p90_ms", percentile(lagS, 0.9))
		put("read_p50_ms", percentile(readS, 0.5))
		put("read_p90_ms", percentile(readS, 0.9))
		put("register_p50_ms", median(churnMs))
		put("heap_mb", heapMB)
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.fail("metric %s has no value", name)
		}
	}
	rec.Problems = append(r.problems, rec.Problems...)
	if mismatches > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d patterns differ from a from-scratch recompute", mismatches))
	}
	rec.Result = result{
		Correct:   mismatches == 0 && r.failed == 0,
		Attempted: r.attempted + checked,
		Failed:    r.failed + mismatches,
		Metrics:   metrics,
	}
	return rec, spans, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// idleReadMs times snapshot reads on the idle system the way the run
// read: the watched pattern through the SDK, or in-process rotating
// over the standing patterns. Errors were already counted by the run.
func idleReadMs(s *system, watched int) sample {
	var out sample
	ids := s.h.Patterns()
	for i := 0; i < idleReads; i++ {
		start := time.Now()
		if s.subscriber != nil {
			_, _, _, _ = s.subscriber.Snapshot(context.Background(), s.ids[watched])
		} else {
			_, _, _, _ = s.h.Snapshot(ids[i%len(ids)])
		}
		out.addDur(time.Since(start))
	}
	return out
}

// checkFinal compares every live pattern's final match with
// simulation.Run on a fresh engine over a copy of the final graph.
func checkFinal(s *system, in *inputs) (checked, bad int, err error) {
	var pats []*pattern.Graph
	var matches []*simulation.Match
	for _, id := range s.h.Patterns() {
		p, m, _, err := s.h.Snapshot(id)
		if err != nil {
			return 0, 0, err
		}
		pats = append(pats, p)
		matches = append(matches, m)
	}
	return len(pats), mismatches(s.h.Graph().Clone(), in.sp.horizon, pats, matches), nil
}

// mismatches counts the matches that differ from a from-scratch
// simulation.Run of their pattern over g.
func mismatches(g *graph.Graph, horizon int, pats []*pattern.Graph, matches []*simulation.Match) int {
	eng := core.NewEngineFor(g, core.Config{Method: core.UAGPNM, Horizon: horizon})
	eng.Build()
	n := 0
	for i, p := range pats {
		if !simulation.Run(p, g, eng).Equal(matches[i]) {
			n++
		}
	}
	return n
}

// layerMetrics turns a traced run into the per-layer metrics: means per
// measured batch unless the name says otherwise.
func layerMetrics(tr *tracer, r *runStats, registerMs, idle sample) map[string]value {
	out := map[string]value{}
	put := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = value{v, unitOf(perLayer, name)}
	}
	n := float64(tr.n)
	per := func(key string) float64 {
		if n == 0 {
			return 0
		}
		return tr.sums[key] / n
	}
	rb := tr.sums["replay.batches"]
	perReplay := func(key string) float64 {
		if rb == 0 {
			return 0
		}
		return tr.sums[key] / rb
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	put("hub.apply_wall_ms", per("hub.wall"))
	put("hub.amend_fan_ms", per("hub.amend_fan"))
	put("hub.wake_plan_ms", per("hub.wake_plan"))
	put("hub.woken", per("hub.woken"))
	put("hub.skipped", per("hub.skipped"))
	put("hub.wake_useful_frac", ratio(tr.sums["hub.useful"], tr.sums["hub.woken"]))
	put("hub.der1_fan_ms", per("hub.der1_fan"))
	put("hub.unattributed_ms", per("hub.unattributed"))
	put("hub.register_ms", mean(registerMs))
	put("hub.read_wait_ms", median(r.readMs)-median(idle))
	put("partition.sync_ms", per("span.slen_sync"))
	put("partition.sync_self_ms", per("hub.slen_sync"))
	for _, ph := range []string{"pre_balls", "oplog_flush", "oplog_join", "overlay_sync", "post_balls", "row_prefetch"} {
		put("partition."+ph+"_ms", per("hub."+ph))
	}
	put("partition.affected_nodes", perReplay("partition.affected_nodes"))
	put("partition.changelog_nodes", perReplay("partition.changelog_nodes"))
	put("shortest.ball_calls", perReplay("shortest.ball_calls"))
	put("shortest.ball_nodes", perReplay("shortest.ball_nodes"))
	put("shortest.ball_ms", perReplay("self.shortest.ball"))
	put("shortest.nodes_per_call", ratio(tr.sums["shortest.ball_nodes"], tr.sums["shortest.ball_calls"]))
	put("elim.can_ms", perReplay("self.elim.can"))
	put("elim.cross_calls", perReplay("elim.cross_calls"))
	put("elim.cross_ms", perReplay("self.elim.cross"))
	eliminated := tr.sums["ehtree.size"] - tr.sums["ehtree.roots"]
	put("elim.eliminated", ratio(eliminated, rb))
	put("elim.eliminated_frac", ratio(eliminated, tr.sums["ehtree.size"]))
	put("ehtree.build_ms", perReplay("self.ehtree.build"))
	put("ehtree.size", perReplay("ehtree.size"))
	put("ehtree.roots", perReplay("ehtree.roots"))
	put("simulation.amend_ms", perReplay("self.simulation.amend"))
	put("simulation.delta_ms", perReplay("self.simulation.delta"))
	put("simulation.seed_nodes", perReplay("simulation.seed_nodes"))
	put("simulation.delta_nodes", perReplay("simulation.delta_nodes"))
	put("simulation.run_ms", tr.sums["simulation.run_ms"])
	put("replay.wall_ms", perReplay("replay.wall"))
	put("replay.unattributed_ms", perReplay("self.replay.batch"))
	put("api.apply_overhead_ms", median(r.overheadMs))
	put("api.delivery_ms", median(r.deliveryMs))
	put("api.encode_us", per("api.encode_us"))
	put("api.decode_us", per("api.decode_us"))
	put("api.request_bytes", per("api.request_bytes"))
	put("api.delta_bytes", per("api.delta_bytes"))
	put("api.empty_poll_frac", ratio(float64(r.emptyPolls), float64(r.polls)))
	put("api.gen_late_ms", percentile(r.genLateMs.sorted(), 0.9))

	rpc1 := tr.rpc1
	for _, ep := range rpcEndpoints {
		put("shard.rpc_calls."+ep, ratio(rpc1.calls[ep]-tr.rpc0.calls[ep], n))
		put("shard.rpc_ms."+ep, ratio((rpc1.nanos[ep]-tr.rpc0.nanos[ep])/1e6, n))
	}
	put("shard.rpc_bytes", ratio(rpc1.bytes-tr.rpc0.bytes, n))
	put("shard.rows_planned", ratio(rpc1.planned-tr.rpc0.planned, n))
	put("shard.rows_prefetched", ratio(rpc1.prefetched-tr.rpc0.prefetched, n))
	put("shard.rows_missed", ratio(rpc1.missed-tr.rpc0.missed, n))
	put("shard.rows_deduped", ratio(rpc1.deduped-tr.rpc0.deduped, n))
	put("shard.row_plan_ms", per("hub.row_plan"))
	put("shard.rpc_failures", ratio(rpc1.failures-tr.rpc0.failures, n))
	put("shard.rpc_retries", ratio(rpc1.retries-tr.rpc0.retries, n))
	put("trace_overhead", ratio(tr.hookMs, tr.applyMs))
	return out
}

// summarize prints a human-readable block before the result line.
func summarize(w *os.File, rec *recording) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s source=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.Source)
	keys := make([]string, 0, len(rec.Samples))
	for k := range rec.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, rec.Samples[k])
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(rec.Result.Metrics))
	for k := range rec.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := rec.Result.Metrics[k]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, v.Value, v.Unit)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "problem:", p)
	}
}

// writeOutputs stores the recording, and the span log of a traced run,
// under out.
func writeOutputs(out string, rec *recording, spans *spanLog) error {
	dir := filepath.Join(out, "recordings", rec.Workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("trace%d-seed%d.json", rec.Trace, rec.Seed)
	if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	tdir := filepath.Join(out, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	raw, err = json.Marshal(spans.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(tdir, fmt.Sprintf("%s-seed%d.json", rec.Workload, rec.Seed)), raw, 0o644)
}
