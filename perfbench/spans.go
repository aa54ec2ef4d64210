package main

import (
	"sort"
	"time"

	"uagpnm/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's entry point. Spans live in memory and are written out when
// the run ends.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the span log's origin
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"` // index of the causing span, -1 for a batch root
	Batch  int     `json:"batch"`
	// Aggregate marks a span standing for many short calls (ball
	// queries, cross-elimination checks): its length is their summed
	// time and it is laid at its parent's start.
	Aggregate bool `json:"aggregate,omitempty"`
}

type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) at(t time.Time) float64 { return ms(t.Sub(l.origin)) }

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, parent, batch int) int {
	l.spans = append(l.spans, span{Name: name, Start: l.at(time.Now()), Parent: parent, Batch: batch})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) { l.spans[id].End = l.at(time.Now()) }

// aggregate records d of summed call time as one child of parent.
func (l *spanLog) aggregate(name string, parent int, d time.Duration) int {
	p := l.spans[parent]
	l.spans = append(l.spans, span{Name: name, Start: p.Start, End: p.Start + ms(d), Parent: parent, Batch: p.Batch, Aggregate: true})
	return len(l.spans) - 1
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children clipped to the parent, overlapping
// children counted once).
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b float64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, curA, curB := 0.0, 0.0, -1.0
		for _, v := range ivs {
			if curB < curA || v.a > curB {
				if curB >= curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB >= curA {
			covered += curB - curA
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// hubNesting is the parent of each hub batch phase that runs inside
// another: the substrate's phases run inside slen_sync, and the op-log
// join inside the op-log flush. Phases not listed are top-level spans of
// ApplyBatch.
var hubNesting = map[string]string{
	"pre_balls":    "slen_sync",
	"oplog_flush":  "slen_sync",
	"overlay_sync": "slen_sync",
	"post_balls":   "slen_sync",
	"row_prefetch": "slen_sync",
	"oplog_join":   "oplog_flush",
}

// hubAttribution splits one hub batch trace into self times (ms) per
// phase, using hubNesting, plus "unattributed": the batch's wall time
// minus its top-level phases. The self times and unattributed sum to
// wall by construction; ok is false when a self time or unattributed is
// negative, i.e. the spans claim more time than they contain.
func hubAttribution(tr obs.Trace, wall time.Duration) (self map[string]float64, ok bool) {
	self = map[string]float64{}
	for _, s := range tr.Spans {
		self[s.Name] += s.Seconds * 1000
	}
	for _, s := range tr.Spans {
		if parent, nested := hubNesting[s.Name]; nested {
			self[parent] -= s.Seconds * 1000
		}
	}
	top := 0.0
	for _, s := range tr.Spans {
		if _, nested := hubNesting[s.Name]; !nested {
			top += s.Seconds * 1000
		}
	}
	self["unattributed"] = ms(wall) - top
	ok = true
	for _, v := range self {
		if v < -1e-6 { // float rounding of nanosecond spans
			ok = false
		}
	}
	return self, ok
}
