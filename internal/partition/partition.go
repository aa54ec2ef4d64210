// Package partition implements §V of the paper: the label-based graph
// partition and the bridge nodes where partitions meet.
//
// Nodes sharing a (primary) label form one partition — the paper's
// observation, after Brandes et al., is that same-role nodes connect
// densely, so most edges are intra-partition. The partitions meet at
// the bridge nodes:
//
//   - inner bridge node of Pi (Def. 1): a node of Pi with an out-edge
//     leaving Pi ("exit");
//   - outer bridge node of Pi (Def. 2): a node outside Pi targeted by an
//     edge from Pi — equivalently, a node with an in-edge from another
//     partition ("entry" of its own partition).
//
// The matcher asks the substrate only for bounded balls, and the Engine
// answers every ball — cross-partition ones included — by bounded BFS
// over the data graph (see engine.go). The paper's Algorithms 4–5
// stitch cross-partition distances out of per-partition SLen matrices
// and bridge hops instead; the engine keeps no per-partition matrices,
// because measured, stitched rows never beat BFS rows (see
// EXPERIMENTS.md). What remains of the partition is its bookkeeping:
// label membership, the cross-edge counters and the bridge lists.
package partition

import (
	"fmt"
	"sort"

	"uagpnm/internal/graph"
)

// none marks "no partition" for dead or unseen node ids.
const none = int32(-1)

// part is one label-based partition: its live-member count and its
// bridge nodes.
type part struct {
	label graph.LabelID
	live  int // live members

	// exits and entries hold the partition's bridge nodes by global id,
	// sorted (exits = inner bridge nodes, entries = targets of inbound
	// cross edges).
	exits   []uint32
	entries []uint32
}

// Partitioning maintains the label partition of a data graph and the
// bridge-node bookkeeping.
type Partitioning struct {
	g *graph.Graph

	partOf  []int32 // node id → part index (none when dead)
	parts   []*part
	byLabel map[graph.LabelID]int32

	// crossOut/crossIn count cross-partition out-/in-edges per node id;
	// a node is an exit iff crossOut > 0 and an entry iff crossIn > 0.
	crossOut []int32
	crossIn  []int32
}

// newPartitioning builds the partition structure for g.
func newPartitioning(g *graph.Graph) *Partitioning {
	p := &Partitioning{g: g, byLabel: make(map[graph.LabelID]int32)}
	n := g.NumIDs()
	p.partOf = make([]int32, n)
	p.crossOut = make([]int32, n)
	p.crossIn = make([]int32, n)
	for i := range p.partOf {
		p.partOf[i] = none
	}
	g.Nodes(func(id uint32) { p.addToPart(id) })
	g.Edges(func(e graph.Edge) { p.noteEdge(e.From, e.To, +1) })
	return p
}

// primaryLabel picks the partition label of a node: its smallest label id
// (data-graph nodes in the paper carry a single job-title label, so this
// is simply that label).
func (p *Partitioning) primaryLabel(id uint32) graph.LabelID {
	labs := p.g.NodeLabels(id)
	if len(labs) == 0 {
		return 0
	}
	return labs[0]
}

// addToPart registers node id in its label's partition, creating the
// partition if needed.
func (p *Partitioning) addToPart(id uint32) {
	lab := p.primaryLabel(id)
	pi, ok := p.byLabel[lab]
	if !ok {
		pi = int32(len(p.parts))
		p.byLabel[lab] = pi
		p.parts = append(p.parts, &part{label: lab})
	}
	p.parts[pi].live++
	for len(p.partOf) <= int(id) {
		p.partOf = append(p.partOf, none)
		p.crossOut = append(p.crossOut, 0)
		p.crossIn = append(p.crossIn, 0)
	}
	p.partOf[id] = pi
}

// noteEdge records the insertion (delta +1) or deletion (delta -1) of
// edge (u,v). Only a cross-partition edge changes the bookkeeping: it
// adjusts the cross-edge counters and keeps the exit/entry lists in
// sync.
func (p *Partitioning) noteEdge(u, v uint32, delta int32) {
	if p.partOf[u] == p.partOf[v] {
		return
	}
	wasExit, wasEntry := p.crossOut[u] > 0, p.crossIn[v] > 0
	p.crossOut[u] += delta
	p.crossIn[v] += delta
	if isExit := p.crossOut[u] > 0; isExit != wasExit {
		pt := p.parts[p.partOf[u]]
		if isExit {
			pt.exits = insertSortedU32(pt.exits, u)
		} else {
			pt.exits = removeSortedU32(pt.exits, u)
		}
	}
	if isEntry := p.crossIn[v] > 0; isEntry != wasEntry {
		pt := p.parts[p.partOf[v]]
		if isEntry {
			pt.entries = insertSortedU32(pt.entries, v)
		} else {
			pt.entries = removeSortedU32(pt.entries, v)
		}
	}
}

// removeNode drops node id from its partition; removed are its incident
// edges, already gone from the graph (as graph.RemoveNode returns them).
func (p *Partitioning) removeNode(id uint32, removed []graph.Edge) {
	for _, ed := range removed {
		p.noteEdge(ed.From, ed.To, -1)
	}
	p.parts[p.partOf[id]].live--
	p.partOf[id] = none
}

// clone copies the bookkeeping for an engine clone over g2, a clone of
// p's graph.
func (p *Partitioning) clone(g2 *graph.Graph) *Partitioning {
	c := &Partitioning{
		g:        g2,
		partOf:   append([]int32(nil), p.partOf...),
		byLabel:  make(map[graph.LabelID]int32, len(p.byLabel)),
		crossOut: append([]int32(nil), p.crossOut...),
		crossIn:  append([]int32(nil), p.crossIn...),
	}
	for k, v := range p.byLabel {
		c.byLabel[k] = v
	}
	for _, pt := range p.parts {
		c.parts = append(c.parts, &part{
			label:   pt.label,
			live:    pt.live,
			exits:   append([]uint32(nil), pt.exits...),
			entries: append([]uint32(nil), pt.entries...),
		})
	}
	return c
}

// partIndex returns the part index of a global id (none when dead).
func (p *Partitioning) partIndex(id uint32) int32 {
	if int(id) >= len(p.partOf) {
		return none
	}
	return p.partOf[id]
}

// InnerBridgeNodes returns IB(P) for the partition labelled lab, by
// global id (paper Def. 1). It returns nil for unknown labels.
func (p *Partitioning) InnerBridgeNodes(lab graph.LabelID) []uint32 {
	pi, ok := p.byLabel[lab]
	if !ok {
		return nil
	}
	return append([]uint32(nil), p.parts[pi].exits...)
}

// OuterBridgeNodes returns OB(P) for the partition labelled lab (paper
// Def. 2): the out-neighbours of P's exits that lie outside P, by
// global id.
func (p *Partitioning) OuterBridgeNodes(lab graph.LabelID) []uint32 {
	pi, ok := p.byLabel[lab]
	if !ok {
		return nil
	}
	var out []uint32
	seen := map[uint32]bool{}
	for _, u := range p.parts[pi].exits {
		for _, v := range p.g.Out(u) {
			if p.partOf[v] != pi && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarises the partitioning for reports.
type Stats struct {
	Parts        int
	CrossEdges   int
	IntraEdges   int
	ExitNodes    int
	EntryNodes   int
	LargestPart  int
	SmallestPart int
}

// ComputeStats walks the structure once. Every edge the cross counters
// do not hold is intra-partition.
func (p *Partitioning) ComputeStats() Stats {
	s := Stats{Parts: len(p.parts), SmallestPart: int(^uint(0) >> 1)}
	for _, pt := range p.parts {
		if pt.live > s.LargestPart {
			s.LargestPart = pt.live
		}
		if pt.live < s.SmallestPart {
			s.SmallestPart = pt.live
		}
		s.ExitNodes += len(pt.exits)
		s.EntryNodes += len(pt.entries)
	}
	for _, c := range p.crossOut {
		s.CrossEdges += int(c)
	}
	s.IntraEdges = p.g.NumEdges() - s.CrossEdges
	if s.Parts == 0 {
		s.SmallestPart = 0
	}
	return s
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("parts=%d intra=%d cross=%d exits=%d entries=%d largest=%d smallest=%d",
		s.Parts, s.IntraEdges, s.CrossEdges, s.ExitNodes, s.EntryNodes, s.LargestPart, s.SmallestPart)
}

func insertSortedU32(s []uint32, v uint32) []uint32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSortedU32(s []uint32, v uint32) []uint32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
