package bench

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"uagpnm/internal/datasets"
	"uagpnm/internal/hub"
	"uagpnm/internal/patgen"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
	"uagpnm/internal/updates"
)

// FailoverConfig parameterises the shard-failover measurement: a hub
// whose partition substrate runs on two self-spawned HTTP shard
// workers, with one worker killed abruptly mid-run. Measured are the
// steady-state batch rate before the kill, the wall time of the one
// batch that absorbs the loss (detection + quarantine + retry of the
// faulted phase on the survivor), and the batch rate afterwards on the
// survivor alone.
type FailoverConfig struct {
	Nodes    int // data graph size (default 3000)
	Edges    int // data graph edges (default 12000)
	Labels   int // distinct role labels (default 16)
	Patterns int // standing queries (default 8)

	PatternNodes int // nodes per pattern (default 6)
	PatternEdges int // edges per pattern (default 6)

	BatchesBefore int // steady-state batches before the kill (default 4)
	BatchesAfter  int // survivor-only batches after the kill (default 4)
	Updates       int // data updates per batch (default 150)
	Horizon       int // SLen hop cap (default 3)
	Workers       int // worker bound (0 = all cores)
	Seed          int64

	// Verify differentially replays the whole run — kill included — on
	// an in-process hub and compares every pattern's final match
	// (enabled by default in the CLI).
	Verify bool
}

// FailoverResult is the measured failover profile.
type FailoverResult struct {
	Config FailoverConfig `json:"config"`
	Env    RunEnv         `json:"env"`

	BuildSeconds float64 `json:"build_seconds"` // sharded hub build + registrations

	// Steady state before the kill (2 workers serving).
	BeforeBatchSeconds  float64 `json:"before_batch_seconds"` // mean per batch
	BeforeBatchesPerSec float64 `json:"before_batches_per_sec"`

	// The kill batch: one worker is dead when the batch arrives; the
	// batch completes through failover. RecoverySeconds is its whole
	// wall time — detection (transport retries + probe), quarantine,
	// the retried phase on the survivor and the batch's own work; OverheadRatio normalises it by the pre-kill
	// mean so the figure transfers across hosts.
	RecoverySeconds       float64 `json:"recovery_seconds"`
	RecoveryOverheadRatio float64 `json:"recovery_overhead_ratio"`
	Recovered             int     `json:"recovered"` // losses absorbed by the kill batch

	// Steady state after the kill (survivor only).
	AfterBatchSeconds  float64 `json:"after_batch_seconds"` // mean per batch
	AfterBatchesPerSec float64 `json:"after_batches_per_sec"`

	Verified bool `json:"verified"`
}

// failoverWorker is one self-spawned shard worker whose listener and
// connections can be torn down abruptly (http.Server.Close — the
// in-process stand-in for kill -9).
type failoverWorker struct {
	addr string
	srv  *http.Server
}

func spawnFailoverWorker() (*failoverWorker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &failoverWorker{addr: ln.Addr().String(),
		srv: &http.Server{Handler: shard.NewServer().Handler()}}
	go func() { _ = w.srv.Serve(ln) }()
	return w, nil
}

func (w *failoverWorker) kill() { _ = w.srv.Close() }

// RunFailover executes the measurement.
func RunFailover(cfg FailoverConfig) FailoverResult {
	if cfg.Nodes == 0 {
		cfg.Nodes = 3000
	}
	if cfg.Edges == 0 {
		cfg.Edges = 12000
	}
	if cfg.Labels == 0 {
		cfg.Labels = 16
	}
	if cfg.Patterns == 0 {
		cfg.Patterns = 8
	}
	if cfg.PatternNodes == 0 {
		cfg.PatternNodes = 6
	}
	if cfg.PatternEdges == 0 {
		cfg.PatternEdges = 6
	}
	if cfg.BatchesBefore == 0 {
		cfg.BatchesBefore = 4
	}
	if cfg.BatchesAfter == 0 {
		cfg.BatchesAfter = 4
	}
	if cfg.Updates == 0 {
		cfg.Updates = 150
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 3
	}

	g := datasets.GenerateSocial(datasets.SocialConfig{
		Name: "failover", Nodes: cfg.Nodes, Edges: cfg.Edges,
		Labels: cfg.Labels, Homophily: 0.8, PrefAtt: 0.6, Seed: cfg.Seed,
	})
	patterns := make([]*pattern.Graph, cfg.Patterns)
	for i := range patterns {
		patterns[i] = patgen.Generate(patgen.Config{
			Nodes: cfg.PatternNodes, Edges: cfg.PatternEdges,
			BoundMin: 1, BoundMax: cfg.Horizon,
			Seed:   cfg.Seed + int64(100+i),
			Labels: patgen.LabelsOf(g),
		}, g.Labels())
	}

	// Pre-generate every batch (before + kill + after) against an
	// evolving clone so the sharded run and the verification replay see
	// identical updates.
	total := cfg.BatchesBefore + 1 + cfg.BatchesAfter
	batches := make([]updates.Batch, total)
	{
		gw := g.Clone()
		for i := range batches {
			batches[i] = updates.Generate(
				updates.Balanced(cfg.Seed+int64(10+i), 0, cfg.Updates), gw, patterns[0])
			updates.ApplyDataStructural(batches[i].D, gw)
		}
	}

	res := FailoverResult{Config: cfg, Env: CaptureEnv(cfg.Workers, 2), Verified: cfg.Verify}

	w1, err := spawnFailoverWorker()
	if err != nil {
		panic("bench: spawning shard worker: " + err.Error())
	}
	defer w1.kill()
	w2, err := spawnFailoverWorker()
	if err != nil {
		panic("bench: spawning shard worker: " + err.Error())
	}
	defer w2.kill()

	start := time.Now()
	h, err := hub.New(g.Clone(), hub.Config{Horizon: cfg.Horizon, Workers: cfg.Workers,
		Shards: []string{w1.addr, w2.addr}})
	if err != nil {
		panic("bench: sharded hub build failed: " + err.Error())
	}
	defer h.Close()
	ids := make([]hub.PatternID, cfg.Patterns)
	for i, ph := range patterns {
		id, rerr := h.Register(ph.Clone())
		if rerr != nil {
			panic("bench: hub register failed: " + rerr.Error())
		}
		ids[i] = id
	}
	res.BuildSeconds = time.Since(start).Seconds()

	apply := func(b updates.Batch) hub.BatchStats {
		_, st, aerr := h.ApplyBatch(hub.Batch{D: b.D})
		if aerr != nil {
			panic("bench: hub batch rejected: " + aerr.Error())
		}
		return st
	}

	// Steady state, both workers serving.
	start = time.Now()
	for _, b := range batches[:cfg.BatchesBefore] {
		apply(b)
	}
	res.BeforeBatchSeconds = time.Since(start).Seconds() / float64(cfg.BatchesBefore)
	res.BeforeBatchesPerSec = ratio(1, res.BeforeBatchSeconds)

	// kill -9 equivalent: listener and live connections torn down with
	// no drain, between batches — the next batch discovers the corpse.
	w2.kill()
	start = time.Now()
	st := apply(batches[cfg.BatchesBefore])
	res.RecoverySeconds = time.Since(start).Seconds()
	res.RecoveryOverheadRatio = ratio(res.RecoverySeconds, res.BeforeBatchSeconds)
	res.Recovered = st.Recovered
	if res.Recovered == 0 {
		panic("bench: the kill batch recorded no recovery — the scenario did not exercise failover")
	}

	// Steady state on the survivor alone.
	start = time.Now()
	for _, b := range batches[cfg.BatchesBefore+1:] {
		apply(b)
	}
	res.AfterBatchSeconds = time.Since(start).Seconds() / float64(cfg.BatchesAfter)
	res.AfterBatchesPerSec = ratio(1, res.AfterBatchSeconds)

	// Differential verification: the whole stream replayed in-process
	// must leave every pattern's match identical — recovery has to be
	// invisible in the data.
	if cfg.Verify {
		ref, rerr := hub.New(g.Clone(), hub.Config{Horizon: cfg.Horizon, Workers: cfg.Workers})
		if rerr != nil {
			panic("bench: reference hub build failed: " + rerr.Error())
		}
		defer ref.Close()
		refIDs := make([]hub.PatternID, cfg.Patterns)
		for i, ph := range patterns {
			refIDs[i], _ = ref.Register(ph.Clone())
		}
		for _, b := range batches {
			if _, _, aerr := ref.ApplyBatch(hub.Batch{D: b.D}); aerr != nil {
				panic("bench: reference batch rejected: " + aerr.Error())
			}
		}
		for i := range ids {
			ms, ok := h.Match(ids[i])
			mr, _ := ref.Match(refIDs[i])
			if !ok || !ms.Equal(mr) {
				panic(fmt.Sprintf("bench: pattern %d diverged across the failover", i))
			}
		}
	}
	return res
}

// String renders the profile as a table.
func (r FailoverResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "shard failover — %d patterns, %d nodes, %d edges, %d+1+%d batches × %d updates (workers=%d, 2 shard workers, one killed)\n",
		r.Config.Patterns, r.Config.Nodes, r.Config.Edges,
		r.Config.BatchesBefore, r.Config.BatchesAfter, r.Config.Updates, r.Config.Workers)
	fmt.Fprintf(&sb, "%-34s  %12s  %14s\n", "", "s/batch", "batches/sec")
	fmt.Fprintf(&sb, "%-34s  %12.4f  %14.2f\n", "before kill (2 workers)", r.BeforeBatchSeconds, r.BeforeBatchesPerSec)
	fmt.Fprintf(&sb, "%-34s  %12.4f  %14s\n", "kill batch (detect+retry)", r.RecoverySeconds, "-")
	fmt.Fprintf(&sb, "%-34s  %12.4f  %14.2f\n", "after kill (survivor only)", r.AfterBatchSeconds, r.AfterBatchesPerSec)
	fmt.Fprintf(&sb, "recovery overhead: %.1f× a steady-state batch; losses absorbed: %d",
		r.RecoveryOverheadRatio, r.Recovered)
	if r.Verified {
		sb.WriteString("  [results verified equal across the kill]")
	}
	sb.WriteString("\n")
	return sb.String()
}

// JSON renders the profile for machine consumption (BENCH files).
func (r FailoverResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
