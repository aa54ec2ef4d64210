package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"uagpnm/internal/core"
	"uagpnm/internal/datasets"
	"uagpnm/internal/partition"
	"uagpnm/internal/patgen"
	"uagpnm/internal/updates"
)

// ScalingConfig parameterises the worker-scaling measurement: one
// multi-partition workload run through UA-GPNM at several worker-pool
// bounds, so the partition engine's parallel speedup is visible as a
// single table.
type ScalingConfig struct {
	Nodes   int   // data graph size (default 4000)
	Edges   int   // data graph edges (default 16000)
	Labels  int   // distinct role labels = partitions (default 24)
	Batches int   // update batches per measurement (default 4)
	Updates int   // data updates per batch (default 200)
	Horizon int   // SLen hop cap (default 3)
	Workers []int // pool bounds to compare (default 1, 2, 4, all cores)
	Seed    int64
}

// ScalingPoint is one measured worker count.
type ScalingPoint struct {
	Workers      int
	BuildSeconds float64 // NewSession: partition construction + IQuery
	QuerySeconds float64 // all SQuery batches
}

// ScalingResult is the full worker sweep over one workload.
type ScalingResult struct {
	Config ScalingConfig
	Parts  int // partitions in the workload's label partition
	Points []ScalingPoint
}

// RunScaling measures UA-GPNM wall-clock at each worker bound on the
// same generated workload. Every run replays identical batches from an
// identical initial state, so the only variable is the pool size.
func RunScaling(cfg ScalingConfig) ScalingResult {
	if cfg.Nodes == 0 {
		cfg.Nodes = 4000
	}
	if cfg.Edges == 0 {
		cfg.Edges = 16000
	}
	if cfg.Labels == 0 {
		cfg.Labels = 24
	}
	if cfg.Batches == 0 {
		cfg.Batches = 4
	}
	if cfg.Updates == 0 {
		cfg.Updates = 200
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 3
	}
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4, 0}
	}

	g := datasets.GenerateSocial(datasets.SocialConfig{
		Name: "scaling", Nodes: cfg.Nodes, Edges: cfg.Edges,
		Labels: cfg.Labels, Homophily: 0.8, PrefAtt: 0.6, Seed: cfg.Seed,
	})
	p := patgen.Generate(patgen.Config{
		Nodes: 8, Edges: 8, BoundMin: 1, BoundMax: cfg.Horizon,
		Seed: cfg.Seed + 1, Labels: patgen.LabelsOf(g),
	}, g.Labels())

	// Pre-generate the batch stream against an evolving clone so every
	// worker configuration replays the same updates.
	batches := make([]updates.Batch, cfg.Batches)
	{
		gw, pw := g.Clone(), p.Clone()
		for i := range batches {
			batches[i] = updates.Generate(updates.Balanced(cfg.Seed+int64(10+i), 0, cfg.Updates), gw, pw)
			updates.ApplyDataStructural(batches[i].D, gw)
		}
	}

	res := ScalingResult{Config: cfg}
	for _, w := range cfg.Workers {
		start := time.Now()
		s := core.NewSession(g.Clone(), p.Clone(),
			core.Config{Method: core.UAGPNM, Horizon: cfg.Horizon, Workers: w})
		build := time.Since(start)
		start = time.Now()
		for _, b := range batches {
			s.SQuery(b)
		}
		query := time.Since(start)
		if pe, ok := s.Engine.(*partition.Engine); ok {
			res.Parts = pe.Partitioning().ComputeStats().Parts
		}
		res.Points = append(res.Points, ScalingPoint{
			Workers:      w,
			BuildSeconds: build.Seconds(),
			QuerySeconds: query.Seconds(),
		})
	}
	return res
}

// String renders the sweep as a table with speedups relative to the
// first (serial) point.
func (r ScalingResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "UA-GPNM worker scaling — %d nodes, %d edges, %d partitions, %d batches × %d updates\n",
		r.Config.Nodes, r.Config.Edges, r.Parts, r.Config.Batches, r.Config.Updates)
	fmt.Fprintf(&sb, "%-8s  %12s  %12s  %8s  %8s\n", "workers", "build (s)", "query (s)", "build×", "query×")
	var b0, q0 float64
	for i, pt := range r.Points {
		if i == 0 {
			b0, q0 = pt.BuildSeconds, pt.QuerySeconds
		}
		name := fmt.Sprint(pt.Workers)
		if pt.Workers == 0 {
			name = "auto"
		}
		fmt.Fprintf(&sb, "%-8s  %12.4f  %12.4f  %7.2fx  %7.2fx\n",
			name, pt.BuildSeconds, pt.QuerySeconds,
			safeDiv(b0, pt.BuildSeconds), safeDiv(q0, pt.QuerySeconds))
	}
	return sb.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// JSON renders the sweep for machine consumption (BENCH files).
func (r ScalingResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
