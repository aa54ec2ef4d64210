package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"uagpnm/internal/api"
	"uagpnm/internal/core"
	"uagpnm/internal/ehtree"
	"uagpnm/internal/elim"
	"uagpnm/internal/hub"
	"uagpnm/internal/obs"
	"uagpnm/internal/partition"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
)

// countingOracle is a shortest.DistanceEngine decorator that counts and
// times the ball queries the matcher, the elimination detectors and the
// amendment make. Every call is counted; only outermost calls are timed,
// because a caller's per-node visit callback may itself query a ball,
// and a ball's time includes its callbacks. It serves one goroutine.
type countingOracle struct {
	shortest.DistanceEngine
	calls, nodes int64
	nanos        time.Duration
	depth        int
}

func (c *countingOracle) ball(fwd bool, x uint32, k int, fn func(uint32, shortest.Dist) bool) {
	c.depth++
	start := time.Now()
	visit := func(v uint32, d shortest.Dist) bool { c.nodes++; return fn(v, d) }
	if fwd {
		c.DistanceEngine.ForwardBall(x, k, visit)
	} else {
		c.DistanceEngine.ReverseBall(x, k, visit)
	}
	if c.depth--; c.depth == 0 {
		c.nanos += time.Since(start)
	}
	c.calls++
}

func (c *countingOracle) ForwardBall(u uint32, k int, fn func(uint32, shortest.Dist) bool) {
	c.ball(true, u, k, fn)
}

func (c *countingOracle) ReverseBall(v uint32, k int, fn func(uint32, shortest.Dist) bool) {
	c.ball(false, v, k, fn)
}

func (c *countingOracle) ballTime() time.Duration { return c.nanos }

// matchDigest fingerprints a match's raw simulation sets.
func matchDigest(m *simulation.Match) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	m.Pattern().Nodes(func(u pattern.NodeID) {
		put := func(x uint32) {
			buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
			h.Write(buf[:])
		}
		put(uint32(u))
		for _, v := range m.SimulationSet(u) {
			put(v)
		}
		put(^uint32(0))
	})
	return h.Sum64()
}

// tracer collects the traced run: after every hub batch it reads the
// hub's own instruments (the batch trace, BatchStats, PatternStats and
// the telemetry registry); after the run it replays every batch
// through the layers' entry points with bench-side spans.
type tracer struct {
	in    *inputs
	k     int // batches seen, warm-up included
	sums  map[string]float64
	n     int // measured batches
	fails []string

	applyMs, hookMs float64
	prev            map[hub.PatternID]core.QueryStats
	woken           [][]int          // per batch: pattern indices the hub woke
	digests         []map[int]uint64 // per batch: hub match digest per woken pattern
	rpc0, rpc1      rpcCounters
}

func newTracer(in *inputs) *tracer {
	return &tracer{in: in, sums: map[string]float64{}, prev: map[hub.PatternID]core.QueryStats{}}
}

func (t *tracer) fail(format string, args ...interface{}) {
	if len(t.fails) < 5 {
		t.fails = append(t.fails, fmt.Sprintf(format, args...))
	}
}

// registered notes the stats of a freshly registered pattern, so that
// its first pass shows as a change.
func (t *tracer) registered(s *system, idx int) {
	st, _ := s.h.PatternStats(s.ids[idx])
	t.prev[s.ids[idx]] = st
}

// start notes the stats of every initial registration.
func (t *tracer) start(s *system) {
	for idx := range s.ids {
		t.registered(s, idx)
	}
}

// afterBatch reads the hub's instruments for the batch just applied.
func (t *tracer) afterBatch(s *system, b batch, deltas []hub.Delta, st hub.BatchStats, lat time.Duration) {
	start := time.Now()
	k := t.k
	t.k++
	measured := k >= warmupBatches

	// Which registrations the index woke: their per-pattern stats
	// change with every pass. Every non-empty delta must be among them.
	nonEmpty := map[hub.PatternID]bool{}
	for _, d := range deltas {
		if len(d.Nodes) > 0 {
			nonEmpty[d.Pattern] = true
		}
	}
	var woken []int
	digests := map[int]uint64{}
	for _, idx := range s.liveOrder() {
		id := s.ids[idx]
		ps, ok := s.h.PatternStats(id)
		if !ok {
			continue
		}
		if prev, seen := t.prev[id]; seen && prev == ps && !nonEmpty[id] {
			continue
		}
		t.prev[id] = ps
		woken = append(woken, idx)
		if m, ok := s.h.Match(id); ok {
			digests[idx] = matchDigest(m)
		}
	}
	t.woken = append(t.woken, woken)
	t.digests = append(t.digests, digests)
	if len(woken) != st.Woken {
		t.fail("batch %d: %d registrations changed stats, BatchStats.Woken = %d", k, len(woken), st.Woken)
	}

	tr, ok := s.reg.LastTrace()
	if !ok || tr.Seq != st.Seq {
		t.fail("batch %d: no hub trace for seq %d", k, st.Seq)
	}
	if measured {
		self, ok := hubAttribution(tr, st.Duration)
		if !ok {
			t.fail("batch %d: hub spans exceed the batch wall time: %v", k, self)
		}
		for name, v := range self {
			t.sums["hub."+name] += v
		}
		for _, sp := range tr.Spans {
			t.sums["span."+sp.Name] += sp.Seconds * 1000
		}
		t.sums["hub.wall"] += ms(st.Duration)
		t.sums["hub.woken"] += float64(st.Woken)
		t.sums["hub.skipped"] += float64(st.Skipped)
		t.sums["hub.useful"] += float64(len(nonEmpty))
		t.codec(b, s, deltas)
		t.n++
		t.applyMs += ms(lat)
	}
	if k == warmupBatches-1 {
		t.rpc0 = readRPC(s.reg)
	}
	if measured {
		t.hookMs += ms(time.Since(start))
	}
}

// codec times the wire codec on this batch's real request and response
// bodies, for every workload (serve sends them; the others show what
// the same traffic would cost on the wire).
func (t *tracer) codec(b batch, s *system, deltas []hub.Delta) {
	start := time.Now()
	req := api.ApplyRequest{Updates: api.EncodeUpdates(b.D)}
	if len(b.P) > 0 {
		req.Patterns = map[string][]api.Update{}
		for idx, ups := range b.P {
			req.Patterns[fmt.Sprint(uint64(s.ids[idx]))] = api.EncodeUpdates(ups)
		}
	}
	resp := api.ApplyResponse{Deltas: make([]api.DeltaBody, 0, len(deltas))}
	for _, d := range deltas {
		resp.Deltas = append(resp.Deltas, api.EncodeDelta(d))
	}
	reqRaw, err1 := json.Marshal(req)
	respRaw, err2 := json.Marshal(resp)
	enc := time.Since(start)
	start = time.Now()
	var req2 api.ApplyRequest
	var resp2 api.ApplyResponse
	err3 := json.Unmarshal(reqRaw, &req2)
	_, err4 := api.DecodeUpdates(req2.Updates)
	err5 := json.Unmarshal(respRaw, &resp2)
	for _, d := range resp2.Deltas {
		d.Decode()
	}
	dec := time.Since(start)
	for _, err := range []error{err1, err2, err3, err4, err5} {
		if err != nil {
			t.fail("codec: %v", err)
		}
	}
	t.sums["api.encode_us"] += float64(enc) / float64(time.Microsecond)
	t.sums["api.decode_us"] += float64(dec) / float64(time.Microsecond)
	t.sums["api.request_bytes"] += float64(len(reqRaw))
	t.sums["api.delta_bytes"] += float64(len(respRaw))
}

// rpcEndpoints are the coordinator→worker RPCs a batch can issue.
var rpcEndpoints = []string{"row", "rows", "ops", "affected"}

type rpcCounters struct {
	calls, nanos        map[string]float64
	bytes               float64
	planned, prefetched float64
	missed, deduped     float64
	failures, retries   float64
}

func readRPC(reg *obs.Registry) rpcCounters {
	c := rpcCounters{calls: map[string]float64{}, nanos: map[string]float64{}}
	counts := reg.HistogramCounts("gpnm_rpc_seconds")
	sums := reg.HistogramSums("gpnm_rpc_seconds")
	for _, ep := range rpcEndpoints {
		path := "/" + ep
		c.calls[ep] = float64(counts[path])
		c.nanos[ep] = sums[path] * 1e9
		for _, dir := range []string{"in", "out"} {
			c.bytes += float64(reg.Counter("gpnm_rpc_bytes_total", "endpoint", path, "direction", dir).Value())
		}
		c.failures += float64(reg.Counter("gpnm_rpc_failures_total", "endpoint", path).Value())
		c.retries += float64(reg.Counter("gpnm_rpc_retries_total", "endpoint", path).Value())
	}
	c.planned = float64(reg.Counter("gpnm_rows_planned_total").Value())
	c.prefetched = float64(reg.Counter("gpnm_rpc_rows_prefetched_total").Value())
	c.missed = float64(reg.Counter("gpnm_rpc_rows_missed_total").Value())
	c.deduped = float64(reg.Counter("gpnm_rpc_rows_deduped_total").Value())
	return c
}

// replay re-runs every batch the hub applied, in the hub's order,
// through the layers' entry points on a private copy of the initial
// state: partition.Engine.ApplyDataBatch, elim.CanSets (DER-I),
// elim.AffSetsFromApplication, ehtree.Build with elim.CrossEliminates
// (DER-III), simulation.AmendN and simulation.Delta, with the ball
// queries counted by countingOracle. Only the registrations the hub
// woke are replayed (a skipped registration's pass is the identity),
// and each replayed match must equal the hub's.
func (t *tracer) replay(batches []batch) *spanLog {
	in := t.in
	log := newSpanLog()
	g := in.g.Clone()
	eng := core.NewEngineFor(g, core.Config{Method: core.UAGPNM, Horizon: in.sp.horizon})
	eng.Build()
	pe := eng.(*partition.Engine)
	orc := &countingOracle{DistanceEngine: eng}

	pats := map[int]*pattern.Graph{}
	matches := map[int]*simulation.Match{}
	var runMs sample
	register := func(idx int) {
		p := in.patterns[idx].Clone()
		start := time.Now()
		matches[idx] = simulation.Run(p, g, eng)
		runMs.addDur(time.Since(start))
		pats[idx] = p
	}
	for i := 0; i < in.sp.patterns; i++ {
		register(i)
	}

	sums := map[string]float64{}
	var roots []int // measured batches' root spans
	for k, b := range batches {
		if k >= len(t.woken) {
			break // the hub never applied it
		}
		for _, idx := range b.unregister {
			delete(pats, idx)
			delete(matches, idx)
		}
		root := log.begin("replay.batch", -1, k)
		calls0, nodes0 := orc.calls, orc.nodes

		// DER-I against the pre-batch state, for patterns with ΔGP.
		canInfos := map[int][]elim.Info{}
		for _, idx := range t.woken[k] {
			if ups := b.P[idx]; len(ups) > 0 {
				id := log.begin("elim.can", root, k)
				b0 := orc.ballTime()
				canInfos[idx] = elim.CanSets(ups, matches[idx], pats[idx], g, orc)
				log.end(id)
				log.aggregate("shortest.ball", id, orc.ballTime()-b0)
			}
		}

		id := log.begin("partition.apply_data_batch", root, k)
		sink := &obs.Trace{}
		pe.SetTraceSink(sink)
		affSets, changeLog, err := pe.ApplyDataBatch(b.D, g)
		pe.SetTraceSink(nil)
		log.end(id)
		if err != nil {
			t.fail("replay batch %d: %v", k, err)
			break
		}
		// The substrate's own phases run back to back inside the call.
		at := log.spans[id].Start
		for _, sp := range sink.Spans {
			if _, nested := hubNesting[sp.Name]; nested && hubNesting[sp.Name] != "slen_sync" {
				continue
			}
			log.spans = append(log.spans, span{Name: "partition." + sp.Name, Start: at, End: at + sp.Seconds*1000, Parent: id, Batch: k})
			at += sp.Seconds * 1000
		}

		id = log.begin("elim.aff", root, k)
		affInfos := elim.AffSetsFromApplication(b.D, affSets)
		log.end(id)

		var treeSize, treeRoots, seeds, deltaNodes, crossCalls int
		for _, idx := range t.woken[k] {
			newP := pats[idx]
			if ups := b.P[idx]; len(ups) > 0 {
				newP = newP.Clone()
				updates.ApplyPatternBatch(ups, newP)
			}
			old := matches[idx]

			id := log.begin("ehtree.build", root, k)
			var crossTime, crossBall time.Duration
			tree := ehtree.Build(affInfos, canInfos[idx], func(up, ud elim.Info) bool {
				crossCalls++
				start, b0 := time.Now(), orc.ballTime()
				ok := elim.CrossEliminates(up, ud, old, orc)
				crossTime += time.Since(start)
				crossBall += orc.ballTime() - b0
				return ok
			})
			log.end(id)
			cross := log.aggregate("elim.cross", id, crossTime)
			log.aggregate("shortest.ball", cross, crossBall)

			seedSet := changeLog
			for _, r := range tree.RootInfos() {
				seedSet = seedSet.Union(r.Set)
			}
			id = log.begin("simulation.amend", root, k)
			b0 := orc.ballTime()
			m := simulation.AmendN(old, newP, g, orc, seedSet, 1)
			log.end(id)
			log.aggregate("shortest.ball", id, orc.ballTime()-b0)

			id = log.begin("simulation.delta", root, k)
			delta := simulation.Delta(old, m)
			log.end(id)

			for _, nd := range delta {
				deltaNodes += len(nd.Added) + len(nd.Removed)
			}
			treeSize += tree.Size()
			treeRoots += len(tree.Roots)
			seeds += seedSet.Len()
			pats[idx], matches[idx] = newP, m
			if want, ok := t.digests[k][idx]; ok && want != matchDigest(m) {
				t.fail("replay batch %d: pattern %d's match differs from the hub's", k, idx)
			}
		}
		log.end(root)

		for _, idx := range b.register {
			register(idx)
		}
		if k < warmupBatches {
			continue
		}
		roots = append(roots, root)
		sums["elim.cross_calls"] += float64(crossCalls)
		sums["ehtree.size"] += float64(treeSize)
		sums["ehtree.roots"] += float64(treeRoots)
		sums["simulation.seed_nodes"] += float64(seeds)
		sums["simulation.delta_nodes"] += float64(deltaNodes)
		sums["shortest.ball_calls"] += float64(orc.calls - calls0)
		sums["shortest.ball_nodes"] += float64(orc.nodes - nodes0)
		affected := 0
		for _, s := range affSets {
			affected += s.Len()
		}
		sums["partition.affected_nodes"] += float64(affected)
		sums["partition.changelog_nodes"] += float64(changeLog.Len())
		sums["replay.batches"]++
	}
	// Self times per layer; each measured batch's self times must sum to
	// its wall time, with none negative.
	self := selfTimes(log.spans)
	total := map[int]float64{}
	for i, sp := range log.spans {
		if sp.Batch < warmupBatches {
			continue
		}
		if self[i] < -1e-6 {
			t.fail("replay batch %d: span %s has negative self time", sp.Batch, sp.Name)
		}
		total[sp.Batch] += self[i]
		sums["self."+sp.Name] += self[i]
	}
	for _, r := range roots {
		sp := log.spans[r]
		wall := sp.End - sp.Start
		if d := total[sp.Batch] - wall; d > 1e-3 || d < -1e-3 {
			t.fail("replay batch %d: self times sum to %.4f ms of %.4f ms", sp.Batch, total[sp.Batch], wall)
		}
		sums["replay.wall"] += wall
	}
	for name, v := range sums {
		t.sums[name] = v
	}
	t.sums["simulation.run_ms"] = mean(runMs)
	return log
}
