package main

import (
	"fmt"
	"math/rand"

	"uagpnm/internal/datasets"
	"uagpnm/internal/graph"
	"uagpnm/internal/hub"
	"uagpnm/internal/patgen"
	"uagpnm/internal/pattern"
	"uagpnm/internal/updates"
)

// spec fixes one workload's shape. Everything random in it is drawn
// from the run's seed; the system under test receives only the
// generated graph, patterns, batches and churn registrations.
type spec struct {
	name string
	// open selects the open loop (one writer sending at rate batches
	// per second over the HTTP API); otherwise one in-process caller
	// runs a closed loop.
	open bool
	rate float64
	// shards > 0 serves the hub's substrate from that many loopback
	// shard workers.
	shards int

	// social graph shape (stream, serve, sharded) or clustered graph
	// shape (fanout, clusters > 0).
	nodes, edges, labels       int
	clusters, clusterNodes     int
	clusterEdges, clusterRoles int

	patterns, patternNodes, patternEdges int
	horizon                              int

	dataUpdates int // data updates per batch
	patUpdated  int // patterns receiving a ΔGP edge toggle per batch
}

var specs = map[string]spec{
	// stream: substrate sync, DER-I/III and amendment carry the batch;
	// the index wakes nearly every pattern.
	"stream": {
		name: "stream", nodes: 3000, edges: 12000, labels: 16,
		patterns: 16, patternNodes: 6, patternEdges: 6, horizon: 3,
		dataUpdates: 150, patUpdated: 2,
	},
	// fanout: thousands of low-selectivity patterns over label-disjoint
	// clusters; index wake, the per-pattern fan, delta logging and
	// registration carry the batch. Data-only, so DER-I never runs.
	"fanout": {
		name: "fanout", clusters: 32, clusterNodes: 100, clusterEdges: 300, clusterRoles: 6,
		patterns: 2000, patternNodes: 5, patternEdges: 5, horizon: 3,
		dataUpdates: 20,
	},
	// serve: the stream graph behind the HTTP API, fewer patterns and
	// smaller batches so that the wire is a visible share.
	"serve": {
		name: "serve", open: true, rate: 5, nodes: 3000, edges: 12000, labels: 16,
		patterns: 8, patternNodes: 6, patternEdges: 6, horizon: 3,
		dataUpdates: 40, patUpdated: 1,
	},
	// sharded: stream's inputs with the substrate on two shard workers.
	"sharded": {
		name: "sharded", shards: 2, nodes: 3000, edges: 12000, labels: 16,
		patterns: 16, patternNodes: 6, patternEdges: 6, horizon: 3,
		dataUpdates: 150, patUpdated: 2,
	},
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"stream", "fanout", "serve", "sharded"}

// batch is one generated epoch: data updates plus ΔGP keyed by the
// index of the pattern in registration order (churned patterns take the
// indices after the initial ones).
type batch struct {
	D []updates.Update
	P map[int][]updates.Update
	// unregister/register are the registration churn of this batch:
	// the pattern indices dropped before the batch and the indices of
	// the fresh patterns registered after it.
	unregister, register []int
}

func (b batch) size() int {
	n := len(b.D)
	for _, ups := range b.P {
		n += len(ups)
	}
	return n
}

// hubBatch translates pattern indices into hub ids.
func (b batch) hubBatch(ids map[int]hub.PatternID) hub.Batch {
	hb := hub.Batch{D: b.D}
	if len(b.P) > 0 {
		hb.P = make(map[hub.PatternID][]updates.Update, len(b.P))
		for i, ups := range b.P {
			hb.P[ids[i]] = ups
		}
	}
	return hb
}

// inputs is everything a run feeds the system. The generator keeps its
// own mirrors of the graph and patterns so that every batch is valid
// against the state the previous batches leave behind, and draws every
// update so that the graph and the patterns stay statistically the same
// however many batches a run gets through: a faster system must not
// earn an easier workload.
type inputs struct {
	sp       spec
	g        *graph.Graph     // initial data graph (never mutated)
	patterns []*pattern.Graph // initial patterns, then churned ones
	// cluster is each pattern's cluster (fanout; 0 for every pattern
	// of a social graph): the subscriber watches a cluster-0 pattern.
	cluster []int

	rng  *rand.Rand
	gw   *graph.Graph // the generator's mirror of the system's graph
	pool *edgePool
	pw   map[int]*pattern.Graph // live pattern mirrors by index
	// dropped is the edge each pattern's last ΔGP removed, which its
	// next ΔGP puts back: patterns toggle one constraint at a time
	// instead of drifting away from their generated shape.
	dropped map[int]*pattern.Edge
	live    []int // live pattern indices, registration order
	seed    int64
	made    int
}

// generate builds a workload's initial graph and patterns from seed.
func generate(sp spec, seed int64) *inputs {
	in := &inputs{sp: sp, seed: seed, rng: rand.New(rand.NewSource(seed*7919 + 17)),
		pw: map[int]*pattern.Graph{}, dropped: map[int]*pattern.Edge{}}
	if sp.clusters > 0 {
		in.g, in.pool = clusteredGraph(sp, rand.New(rand.NewSource(seed)))
		for i := 0; i < sp.patterns; i++ {
			in.addClusterPattern(i % sp.clusters)
		}
	} else {
		// The pool holds twice the graph's edges; the graph starts with a
		// random half of them and every batch swaps present for absent
		// pool edges, so it stays a random half of one social graph. The
		// social graph itself does not depend on the seed: its structure
		// alone moved batch cost by about 8% between seeds, so runs with
		// different seeds measure one graph under different update
		// streams, patterns and churn.
		full := datasets.GenerateSocial(datasets.SocialConfig{
			Name: sp.name, Nodes: sp.nodes, Edges: 2 * sp.edges, Labels: sp.labels,
			Homophily: 0.8, PrefAtt: 0.6, Seed: socialGraphSeed,
		})
		in.g, in.pool = halfOf(full, rand.New(rand.NewSource(socialGraphSeed+1)))
		// Pattern 0 is the one the subscriber watches: a directory of
		// every role (one isolated node per label), whose result changes
		// in every batch because every batch replaces nodes.
		labels := patgen.LabelsOf(in.g)
		directory := pattern.New(in.g.Labels())
		for _, l := range labels {
			directory.AddNamedNode(l, l)
		}
		in.addPattern(directory, 0)
		for i := 1; i < sp.patterns; i++ {
			in.addPattern(patgen.Generate(patgen.Config{
				Nodes: sp.patternNodes, Edges: sp.patternEdges, BoundMin: 1, BoundMax: sp.horizon,
				Seed: seed*1000 + int64(100+i), Labels: labels,
			}, in.g.Labels()), 0)
		}
	}
	in.gw = in.g.Clone()
	return in
}

func (in *inputs) addPattern(p *pattern.Graph, cluster int) int {
	i := len(in.patterns)
	in.patterns = append(in.patterns, p)
	in.cluster = append(in.cluster, cluster)
	in.pw[i] = p.Clone()
	in.live = append(in.live, i)
	return i
}

func (in *inputs) addClusterPattern(c int) int {
	sp := in.sp
	labels := make([]string, sp.clusterRoles)
	for r := range labels {
		labels[r] = fmt.Sprintf("c%d_r%d", c, r)
	}
	return in.addPattern(patgen.Generate(patgen.Config{
		Nodes: sp.patternNodes, Edges: sp.patternEdges, BoundMin: 1, BoundMax: sp.horizon,
		Seed: in.seed*100000 + int64(len(in.patterns)), Labels: labels,
	}, in.g.Labels()), c)
}

// halfOf copies full's nodes and a random half of its edges into a new
// graph sharing full's label table; the pool remembers all of them.
func halfOf(full *graph.Graph, rng *rand.Rand) (*graph.Graph, *edgePool) {
	g := graph.New(full.Labels())
	full.Nodes(func(v uint32) {
		if id := g.AddNodeLabelIDs(full.NodeLabels(v)...); id != v {
			panic("perfbench: generated graph has id gaps")
		}
	})
	pool := newEdgePool(1)
	full.Edges(func(e graph.Edge) { pool.add(e.From, e.To, 0, g, rng.Intn(2) == 0) })
	return g, pool
}

// clusteredGraph builds label-disjoint communities: no edge crosses a
// cluster and each cluster has its own label namespace, so a batch
// inside one cluster can only affect that cluster's patterns. Each
// cluster's pool holds twice its edges, half of them present.
func clusteredGraph(sp spec, rng *rand.Rand) (*graph.Graph, *edgePool) {
	g := graph.New(nil)
	pool := newEdgePool(sp.clusters)
	for c := 0; c < sp.clusters; c++ {
		for i := 0; i < sp.clusterNodes; i++ {
			g.AddNode(fmt.Sprintf("c%d_r%d", c, rng.Intn(sp.clusterRoles)))
		}
		lo := uint32(c * sp.clusterNodes)
		seen := map[[2]uint32]bool{}
		for len(seen) < 2*sp.clusterEdges {
			u, v := lo+uint32(rng.Intn(sp.clusterNodes)), lo+uint32(rng.Intn(sp.clusterNodes))
			if u == v || seen[[2]uint32{u, v}] {
				continue
			}
			seen[[2]uint32{u, v}] = true
			pool.add(u, v, c, g, len(seen)%2 == 0)
		}
	}
	return g, pool
}

// next generates the following batch against the generator's mirrors
// and advances them. Every batch also churns churnPerBatch
// registrations: the oldest live patterns other than pattern 0 and
// watched (-1 for none yet) are dropped before the batch and fresh ones
// are registered after it, so the standing set keeps its size and its
// distribution.
func (in *inputs) next(watched int) batch {
	sp := in.sp
	k := in.made
	in.made++
	var b batch
	for n := 0; n < churnPerBatch; n++ {
		for j, idx := range in.live {
			if idx != watched && idx != 0 {
				b.unregister = append(b.unregister, idx)
				in.live = append(in.live[:j], in.live[j+1:]...)
				delete(in.pw, idx)
				delete(in.dropped, idx)
				break
			}
		}
	}
	if sp.clusters > 0 {
		// Every other batch hits the hot cluster the subscriber watches;
		// the rest spread uniformly over the others. Each swaps present
		// edges for absent pool edges of that one cluster.
		c := 0
		if k%2 == 1 {
			c = 1 + in.rng.Intn(sp.clusters-1)
		}
		b.D = in.pool.swap(c, sp.dataUpdates/2, sp.dataUpdates/2, in.gw, in.rng)
		for n := 0; n < churnPerBatch; n++ {
			b.register = append(b.register, in.addClusterPattern(in.rng.Intn(sp.clusters)))
		}
		return b
	}
	// Node churn first: each deleted node is replaced by a fresh node
	// with the same labels that inherits its pool edges (absent for
	// now), then edge swaps restore the edge count.
	lost := 0
	for i := 0; i < nodeChurn; i++ {
		v := in.pool.randomNode(in.gw, in.rng)
		lost += in.gw.OutDegree(v) + in.gw.InDegree(v)
		labels := make([]string, 0, 1)
		for _, l := range in.gw.NodeLabels(v) {
			labels = append(labels, in.gw.Labels().Name(l))
		}
		del := updates.Update{Kind: updates.DataNodeDelete, Node: v}
		updates.ApplyDataStructural([]updates.Update{del}, in.gw)
		id := uint32(in.gw.NumIDs())
		ins := updates.Update{Kind: updates.DataNodeInsert, Node: id, Labels: labels}
		updates.ApplyDataStructural([]updates.Update{ins}, in.gw)
		in.pool.replaceNode(v, id)
		b.D = append(b.D, del, ins)
	}
	swaps := (sp.dataUpdates - 2*nodeChurn - lost) / 2
	if swaps < 1 {
		swaps = 1
	}
	b.D = append(b.D, in.pool.swap(0, swaps, swaps+lost, in.gw, in.rng)...)

	for j := 0; j < sp.patUpdated; j++ {
		idx := in.live[(k*sp.patUpdated+j)%len(in.live)]
		if ups := in.togglePatternEdge(idx); len(ups) > 0 {
			if b.P == nil {
				b.P = map[int][]updates.Update{}
			}
			b.P[idx] = ups
		}
	}
	for n := 0; n < churnPerBatch; n++ {
		b.register = append(b.register, in.addPattern(patgen.Generate(patgen.Config{
			Nodes: sp.patternNodes, Edges: sp.patternEdges, BoundMin: 1, BoundMax: sp.horizon,
			Seed: in.seed*1000 + int64(100+len(in.patterns)), Labels: patgen.LabelsOf(in.g),
		}, in.g.Labels()), 0))
	}
	return b
}

// churnPerBatch is how many registrations each batch replaces; two
// give register_p50_ms about twice a batch count of samples.
const churnPerBatch = 2

// socialGraphSeed generates the social graph of stream, serve and
// sharded.
const socialGraphSeed = 1

// nodeChurn is how many nodes a stream-shaped batch deletes and
// replaces.
const nodeChurn = 4

// togglePatternEdge puts back the edge pattern idx's previous ΔGP
// dropped and drops another one, as one ΔGP sequence.
func (in *inputs) togglePatternEdge(idx int) []updates.Update {
	p := in.pw[idx]
	var edges []pattern.Edge
	p.Edges(func(e pattern.Edge) { edges = append(edges, e) })
	if len(edges) == 0 {
		return nil
	}
	e := edges[in.rng.Intn(len(edges))]
	ups := []updates.Update{{Kind: updates.PatternEdgeDelete, From: uint32(e.From), To: uint32(e.To)}}
	if r := in.dropped[idx]; r != nil {
		ups = append(ups, updates.Update{Kind: updates.PatternEdgeInsert, From: uint32(r.From), To: uint32(r.To), Bound: r.B})
	}
	updates.ApplyPatternBatch(ups, p)
	in.dropped[idx] = &e
	return ups
}

// edgePool is a fixed population of candidate edges split into groups
// (one per cluster, or one for a social graph), each edge present in
// the graph or absent. Swapping present for absent edges keeps the
// graph a random subset of the pool.
type edgePool struct {
	ends      [][2]uint32
	group     []int
	isPresent []bool
	pos       []int   // index of the edge in its present or absent list
	present   [][]int // per group
	absent    [][]int // per group
	byNode    map[uint32][]int
}

func newEdgePool(groups int) *edgePool {
	return &edgePool{present: make([][]int, groups), absent: make([][]int, groups), byNode: map[uint32][]int{}}
}

// add records a pool edge, adding it to g when present.
func (p *edgePool) add(u, v uint32, group int, g *graph.Graph, present bool) {
	i := len(p.ends)
	p.ends = append(p.ends, [2]uint32{u, v})
	p.group = append(p.group, group)
	p.isPresent = append(p.isPresent, false)
	p.pos = append(p.pos, 0)
	p.byNode[u] = append(p.byNode[u], i)
	p.byNode[v] = append(p.byNode[v], i)
	p.push(i, false)
	if present {
		p.move(i, true)
		g.AddEdge(u, v)
	}
}

func (p *edgePool) list(i int, present bool) *[]int {
	if present {
		return &p.present[p.group[i]]
	}
	return &p.absent[p.group[i]]
}

func (p *edgePool) push(i int, present bool) {
	l := p.list(i, present)
	p.pos[i] = len(*l)
	p.isPresent[i] = present
	*l = append(*l, i)
}

// move transfers edge i to the present (or absent) list.
func (p *edgePool) move(i int, present bool) {
	if p.isPresent[i] == present {
		return
	}
	l := p.list(i, p.isPresent[i])
	last := (*l)[len(*l)-1]
	(*l)[p.pos[i]] = last
	p.pos[last] = p.pos[i]
	*l = (*l)[:len(*l)-1]
	p.push(i, present)
}

// swap deletes del random present edges and inserts ins random absent
// ones of group, applying them to g, and returns the updates shuffled.
func (p *edgePool) swap(group, del, ins int, g *graph.Graph, rng *rand.Rand) []updates.Update {
	var ups []updates.Update
	for n := 0; n < del && len(p.present[group]) > 0; n++ {
		i := p.present[group][rng.Intn(len(p.present[group]))]
		ups = append(ups, updates.Update{Kind: updates.DataEdgeDelete, From: p.ends[i][0], To: p.ends[i][1]})
		p.move(i, false)
	}
	for n := 0; n < ins && len(p.absent[group]) > 0; n++ {
		i := p.absent[group][rng.Intn(len(p.absent[group]))]
		ups = append(ups, updates.Update{Kind: updates.DataEdgeInsert, From: p.ends[i][0], To: p.ends[i][1]})
		p.move(i, true)
	}
	rng.Shuffle(len(ups), func(a, b int) { ups[a], ups[b] = ups[b], ups[a] })
	updates.ApplyDataStructural(ups, g)
	return ups
}

// randomNode picks a live node that has pool edges.
func (p *edgePool) randomNode(g *graph.Graph, rng *rand.Rand) uint32 {
	for {
		v := uint32(rng.Intn(g.NumIDs()))
		if g.Alive(v) && len(p.byNode[v]) > 0 {
			return v
		}
	}
}

// replaceNode hands v's pool edges to its replacement w, all absent
// (deleting v removed the present ones from the graph).
func (p *edgePool) replaceNode(v, w uint32) {
	for _, i := range p.byNode[v] {
		for e := range p.ends[i] {
			if p.ends[i][e] == v {
				p.ends[i][e] = w
			}
		}
		p.move(i, false)
	}
	p.byNode[w] = p.byNode[v]
	delete(p.byNode, v)
}
