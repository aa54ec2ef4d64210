package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the comparator: it diffs two sets of recordings (a base
// commit's and a change's) per workload × metric and judges each pair
// by the rule this benchmark's README states: the change is better only
// when it wins at least nine tenths of the paired runs (same seed on
// both sides, ties counting for neither) and the medians differ by more
// than the base's own quartile spread.
//
//	perfbench -compare .bench_build/base,.bench_build/head [-root .]

// loadRecordings reads every recording under dir.
func loadRecordings(dir string) ([]recording, error) {
	var out []recording
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec recording
		if err := json.Unmarshal(raw, &rec); err != nil || rec.Workload == "" {
			return nil // not a recording (a span log, say)
		}
		out = append(out, rec)
		return nil
	})
	return out, err
}

// verdict is the comparator's judgement of one workload × metric.
type verdict struct {
	Workload, Metric    string
	Pairs, Wins, Losses int
	Base, Head          [3]float64 // quartiles
	Call                string
	BoundExceeded       bool
}

// judge applies the rule to values paired by index (base[i] and
// head[i] share a seed). better is "lower" or "higher"; bound is the
// share of the base median by which the metric may worsen (0 = none
// declared).
func judge(base, head []float64, better string, bound float64) verdict {
	var v verdict
	n := len(base)
	if len(head) < n {
		n = len(head)
	}
	v.Pairs = n
	sign := 1.0 // positive diff = head is better
	if better == "lower" {
		sign = -1
	}
	for i := 0; i < n; i++ {
		switch d := sign * (head[i] - base[i]); {
		case d > 0:
			v.Wins++
		case d < 0:
			v.Losses++
		}
	}
	bq1, bq2, bq3, okB := quartiles(base[:n])
	hq1, hq2, hq3, okH := quartiles(head[:n])
	v.Base, v.Head = [3]float64{bq1, bq2, bq3}, [3]float64{hq1, hq2, hq3}
	if !okB || !okH {
		v.Call = "unresolved (too few runs)"
		return v
	}
	diff := sign * (hq2 - bq2)
	spread := bq3 - bq1
	if bound > 0 && -diff > bound*math.Abs(bq2) {
		v.BoundExceeded = true
	}
	allBetter, allWorse := true, true
	for _, b := range base[:n] {
		for _, h := range head[:n] {
			if sign*(h-b) <= 0 {
				allBetter = false
			}
			if sign*(h-b) >= 0 {
				allWorse = false
			}
		}
	}
	switch {
	case n < 10:
		v.Call = "unresolved (fewer than 10 pairs)"
	case 10*v.Wins >= 9*n && math.Abs(diff) > spread:
		v.Call = "better"
	case 10*v.Losses >= 9*n && math.Abs(diff) > spread:
		v.Call = "worse"
	case bound > 0 && spread > bound*math.Abs(bq2):
		// The base's own spread is wider than the bound: "unchanged"
		// cannot be claimed unless one side dominates every run.
		switch {
		case allBetter:
			v.Call = "better"
		case allWorse:
			v.Call = "worse"
		default:
			v.Call = "unresolved"
		}
	case math.Abs(diff) <= spread:
		v.Call = "within noise"
	default:
		v.Call = "unresolved"
	}
	return v
}

// benchmarkFile is the part of BENCHMARK.json the comparator reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func runCompare(w io.Writer, dirs string) error {
	parts := strings.Split(dirs, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-compare wants BASE,HEAD, got %q", dirs)
	}
	base, err := loadRecordings(parts[0])
	if err != nil {
		return err
	}
	head, err := loadRecordings(parts[1])
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if json.Unmarshal(raw, &bf) == nil {
			for _, m := range bf.EndToEnd {
				bounds[m.Name] = m.Bound
			}
		}
	}
	for _, v := range compareRecordings(w, base, head, bounds) {
		flag := ""
		if v.BoundExceeded {
			flag = "  REGRESSION beyond bound"
		}
		fmt.Fprintf(w, "%-8s %-28s base %12.4f [%.4f, %.4f]  head %12.4f [%.4f, %.4f]  wins %d/%d losses %d  %s%s\n",
			v.Workload, v.Metric, v.Base[1], v.Base[0], v.Base[2], v.Head[1], v.Head[0], v.Head[2],
			v.Wins, v.Pairs, v.Losses, v.Call, flag)
	}
	return nil
}

// compareRecordings pairs runs of the same workload, trace mode and seed
// and judges every metric both sides report. Environment differences
// and failed runs are reported to w before the verdicts.
func compareRecordings(w io.Writer, base, head []recording, bounds map[string]float64) []verdict {
	type key struct {
		workload string
		trace    int
	}
	group := func(recs []recording) map[key]map[int64]recording {
		out := map[key]map[int64]recording{}
		for _, r := range recs {
			k := key{r.Workload, r.Trace}
			if out[k] == nil {
				out[k] = map[int64]recording{}
			}
			out[k][r.Seed] = r
		}
		return out
	}
	gb, gh := group(base), group(head)
	keys := make([]key, 0, len(gb))
	for k := range gb {
		if _, ok := gh[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	var out []verdict
	for _, k := range keys {
		var seeds []int64
		for seed, rb := range gb[k] {
			rh, ok := gh[k][seed]
			if !ok {
				continue
			}
			if !rb.Env.comparable(rh.Env) {
				fmt.Fprintf(w, "warning: %s seed %d: environments differ (base %+v, head %+v)\n", k.workload, seed, rb.Env, rh.Env)
			}
			for _, r := range []recording{rb, rh} {
				if !r.Result.Correct {
					fmt.Fprintf(w, "warning: %s seed %d (source %s) failed its correctness checks\n", k.workload, seed, r.Env.Source)
				}
			}
			seeds = append(seeds, seed)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		defs := endToEnd
		if k.trace == 1 {
			defs = perLayer
		}
		for _, d := range defs {
			var bv, hv []float64
			for _, seed := range seeds {
				b, okB := gb[k][seed].Result.Metrics[d.Name]
				h, okH := gh[k][seed].Result.Metrics[d.Name]
				if okB && okH {
					bv, hv = append(bv, b.Value), append(hv, h.Value)
				}
			}
			if len(bv) == 0 {
				continue
			}
			v := judge(bv, hv, d.Better, bounds[d.Name])
			v.Workload, v.Metric = k.workload, d.Name
			out = append(out, v)
		}
	}
	return out
}
