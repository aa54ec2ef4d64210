package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"uagpnm/internal/hub"
	"uagpnm/internal/pattern"
	"uagpnm/internal/simulation"
)

// warmupBatches are applied before measuring so that lazily built
// caches are filled; they are excluded from every metric but replayed
// in a traced run like any other batch.
const warmupBatches = 4

// readsPerBatch is how many snapshot reads the closed loop times after
// each measured batch.
const readsPerBatch = 16

// runStats is what one measured run observed.
type runStats struct {
	attempted, failed int
	problems          []string // first few failure reasons, for the log

	applyMs, lagMs, readMs sample
	genLateMs              sample // serve: how late each send was
	overheadMs             sample // serve: SDK round trip minus hub Duration
	deliveryMs             sample // serve: writer's return to subscriber receipt
	emptyPolls, polls      int
	updates                int
	wall                   time.Duration // measured loop time, generation excluded
	batches                []batch       // every applied batch, warm-up included
	watched                int
}

func (r *runStats) fail(format string, args ...interface{}) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// churn registers the pattern indices add (the previous batch's new
// patterns), then unregisters the indices drop (the next batch's
// victims, which may be among them), reporting false after a failure.
func (r *runStats) churn(s *system, in *inputs, add, drop []int, tr *tracer) bool {
	for _, idx := range add {
		r.attempted++
		if err := s.register(idx, in.patterns[idx]); err != nil {
			r.fail("%v", err)
			return false
		}
		if tr != nil {
			tr.registered(s, idx)
		}
	}
	for _, idx := range drop {
		r.attempted++
		if err := s.unregister(idx); err != nil {
			r.fail("%v", err)
			return false
		}
	}
	return true
}

// pickWatched returns the pattern the subscriber watches: pattern 0 on a
// social graph, built to change in every batch; on clusters, the live cluster-0
// pattern whose result changed in the most warm-up batches (ties go to
// the lowest index).
func pickWatched(in *inputs, s *system, changes map[int]int) int {
	if in.sp.clusters == 0 {
		return 0
	}
	best, bestN := -1, -1
	for i := range in.patterns {
		if _, live := s.ids[i]; live && in.cluster[i] == 0 && changes[i] > bestN {
			best, bestN = i, changes[i]
		}
	}
	return best
}

// countChanges adds one for every pattern whose delta is non-empty.
func countChanges(s *system, deltas []hub.Delta, changes map[int]int) {
	idx := s.indexOf()
	for _, d := range deltas {
		if len(d.Nodes) > 0 {
			changes[idx[d.Pattern]]++
		}
	}
}

// projection is a subscriber's view of one pattern: the BGS-projected
// result per pattern node, which is what deltas describe.
type projection map[pattern.NodeID]map[uint32]bool

func project(p *pattern.Graph, m *simulation.Match) projection {
	out := projection{}
	p.Nodes(func(u pattern.NodeID) {
		set := map[uint32]bool{}
		for _, v := range m.Nodes(u) {
			set[v] = true
		}
		out[u] = set
	})
	return out
}

func (v projection) apply(d hub.Delta) {
	for _, nd := range d.Nodes {
		set := v[nd.Node]
		if set == nil {
			set = map[uint32]bool{}
			v[nd.Node] = set
		}
		for _, x := range nd.Removed {
			delete(set, x)
		}
		for _, x := range nd.Added {
			set[x] = true
		}
	}
}

func (v projection) equal(o projection) bool {
	for u, set := range v {
		if len(set) != len(o[u]) {
			return false
		}
		for x := range set {
			if !o[u][x] {
				return false
			}
		}
	}
	for u, set := range o {
		if _, ok := v[u]; !ok && len(set) > 0 {
			return false
		}
	}
	return true
}

// closedLoop drives stream, fanout and sharded: one in-process caller
// applies a batch, reads the watched pattern's snapshot, does the
// batch's registration churn, and only then sends the next batch. The
// caller is the subscriber: it receives every delta with ApplyBatch's
// return, applies the watched pattern's delta to its projection, and
// checks the projection against the snapshot it reads next.
func closedLoop(in *inputs, s *system, seconds float64, tr *tracer) *runStats {
	r := &runStats{watched: -1}
	changes := map[int]int{}
	var view projection
	var watchedID hub.PatternID
	var deadline time.Time
	var reads []time.Duration
	for k := 0; ; k++ {
		if k == warmupBatches {
			if r.watched = pickWatched(in, s, changes); r.watched < 0 {
				r.fail("no pattern left to watch after warm-up")
				return r
			}
			watchedID = s.ids[r.watched]
			p, m, _, err := s.h.Snapshot(watchedID)
			if err != nil {
				r.fail("initial snapshot: %v", err)
				return r
			}
			view = project(p, m)
			deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
		}
		measured := k >= warmupBatches
		if measured && !time.Now().Before(deadline) {
			break
		}
		b := in.next(r.watched)
		r.batches = append(r.batches, b)
		iterStart := time.Now()
		if !r.churn(s, in, nil, b.unregister, tr) {
			break
		}
		hb := b.hubBatch(s.ids)
		r.attempted++
		start := time.Now()
		deltas, st, err := s.h.ApplyBatch(hb)
		lat := time.Since(start)
		if err != nil {
			r.fail("batch %d rejected: %v", k, err)
			break
		}
		var hookTime time.Duration
		if tr != nil {
			hookStart := time.Now()
			tr.afterBatch(s, b, deltas, st, lat)
			hookTime = time.Since(hookStart)
		}
		changed := false
		if measured {
			for _, d := range deltas {
				if d.Pattern == watchedID && len(d.Nodes) > 0 {
					view.apply(d)
					changed = true
				}
			}
			r.attempted++
			p, m, _, err := s.h.Snapshot(watchedID)
			if err != nil {
				r.fail("snapshot: %v", err)
			} else if !view.equal(project(p, m)) {
				r.fail("batch %d: watched deltas do not reproduce the snapshot", k)
			}
			// The timed reads rotate over the standing patterns, so that
			// read_* describe reads of the workload's patterns rather than
			// of the one pattern this seed happened to watch, and there
			// are enough of them for steady percentiles however few
			// batches a run gets through.
			ids := s.h.Patterns()
			reads = reads[:0]
			for i := 0; i < readsPerBatch && i < len(ids); i++ {
				r.attempted++
				readStart := time.Now()
				_, _, _, err = s.h.Snapshot(ids[(k*readsPerBatch+i)%len(ids)])
				reads = append(reads, time.Since(readStart))
				if err != nil {
					r.fail("snapshot: %v", err)
				}
			}
		} else {
			countChanges(s, deltas, changes)
		}
		if !r.churn(s, in, b.register, nil, tr) {
			break
		}
		if measured {
			r.applyMs.addDur(lat)
			for _, d := range reads {
				r.readMs.addDur(d)
			}
			if changed {
				r.lagMs.addDur(lat)
			}
			r.updates += b.size()
			r.wall += time.Since(iterStart) - hookTime
		}
	}
	return r
}

// openLoop drives serve: one SDK writer sends batches on a fixed
// schedule of rate per second regardless of completions, and one SDK
// subscriber long-polls the watched pattern on its own connection,
// taking a snapshot after every delivery. The warm-up batches are sent
// back to back; all scheduled batches are generated before the clock
// starts.
func openLoop(in *inputs, s *system, seconds float64, tr *tracer) *runStats {
	r := &runStats{watched: -1}
	ctx := context.Background()
	changes := map[int]int{}
	for k := 0; k < warmupBatches; k++ {
		b := in.next(-1)
		r.batches = append(r.batches, b)
		if !r.churn(s, in, nil, b.unregister, tr) {
			return r
		}
		r.attempted++
		start := time.Now()
		deltas, st, err := s.writer.ApplyBatch(ctx, b.hubBatch(s.ids))
		if err != nil {
			r.fail("warm-up batch %d: %v", k, err)
			return r
		}
		if tr != nil {
			tr.afterBatch(s, b, deltas, st, time.Since(start))
		}
		countChanges(s, deltas, changes)
		if !r.churn(s, in, b.register, nil, tr) {
			return r
		}
	}
	if r.watched = pickWatched(in, s, changes); r.watched < 0 {
		r.fail("no pattern left to watch after warm-up")
		return r
	}
	watchedID := s.ids[r.watched]
	scheduled := make([]batch, int(seconds*in.sp.rate))
	for k := range scheduled {
		scheduled[k] = in.next(r.watched)
	}
	p0, m0, seq0, err := s.subscriber.Snapshot(ctx, watchedID)
	if err != nil {
		r.fail("initial snapshot: %v", err)
		return r
	}

	stop := make(chan struct{})
	subDone := make(chan *subscriberLog, 1)
	go func() { subDone <- subscribe(s, watchedID, project(p0, m0), seq0, stop) }()

	type sent struct{ due, returned time.Time }
	expect := map[uint64]sent{} // seqs whose watched delta is non-empty
	period := time.Duration(float64(time.Second) / in.sp.rate)
	start := time.Now()
	for k, b := range scheduled {
		// The registration churn has its own slot, four fifths into the
		// previous period: after the previous batch and the subscriber's
		// read of it, before this batch is due.
		due := start.Add(time.Duration(k) * period)
		if k > 0 {
			time.Sleep(time.Until(due.Add(-period / 5)))
			if !r.churn(s, in, scheduled[k-1].register, b.unregister, tr) {
				break
			}
		} else if !r.churn(s, in, nil, b.unregister, tr) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sendAt := time.Now()
		r.batches = append(r.batches, b)
		r.attempted++
		deltas, st, err := s.writer.ApplyBatch(ctx, b.hubBatch(s.ids))
		done := time.Now()
		if err != nil {
			r.fail("batch %d: %v", k, err)
			break
		}
		if tr != nil {
			tr.afterBatch(s, b, deltas, st, done.Sub(sendAt))
		}
		for _, d := range deltas {
			if d.Pattern == watchedID && len(d.Nodes) > 0 {
				expect[d.Seq] = sent{due: due, returned: done}
			}
		}
		r.applyMs.addDur(done.Sub(due))
		r.genLateMs.addDur(sendAt.Sub(due))
		r.overheadMs.add(ms(done.Sub(sendAt) - st.Duration))
		r.updates += b.size()
		r.wall = done.Sub(start)
	}
	close(stop)
	log := <-subDone

	r.attempted += log.reads + log.polls
	r.failed += log.failed
	r.problems = append(r.problems, log.problems...)
	r.readMs = log.readMs
	r.polls, r.emptyPolls = log.polls, log.emptyPolls
	seqs := make([]uint64, 0, len(expect))
	for seq := range expect {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		e := expect[seq]
		r.attempted++
		got, ok := log.received[seq]
		if !ok {
			r.fail("delta of batch seq %d never reached the subscriber", seq)
			continue
		}
		r.lagMs.addDur(got.Sub(e.due))
		r.deliveryMs.addDur(got.Sub(e.returned))
	}
	return r
}

// subscriberLog is what the serve subscriber saw.
type subscriberLog struct {
	received     map[uint64]time.Time
	readMs       sample
	reads, polls int
	emptyPolls   int
	failed       int
	problems     []string
}

func (l *subscriberLog) fail(format string, args ...interface{}) {
	l.failed++
	if len(l.problems) < 5 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// pollWindow bounds one subscriber long-poll; a poll that ends empty is
// counted as wasted, not failed (a missing delivery is caught by
// comparing the writer's deltas with what arrived).
const pollWindow = 500 * time.Millisecond

// maxPollFailures stops a subscriber whose polls keep failing.
const maxPollFailures = 20

// subscribe long-polls id from seq onwards until stop closes. After
// every delivery it reads a snapshot; each snapshot is checked once
// every delta up to its sequence number has been applied to the view.
func subscribe(s *system, id hub.PatternID, view projection, seq uint64, stop <-chan struct{}) *subscriberLog {
	log := &subscriberLog{received: map[uint64]time.Time{}}
	type snap struct {
		seq  uint64
		view projection
	}
	var pending []snap
	cursor := seq
	check := func(upTo uint64) {
		for len(pending) > 0 && pending[0].seq < upTo {
			if !view.equal(pending[0].view) {
				log.fail("deltas up to seq %d do not reproduce the snapshot", pending[0].seq)
			}
			pending = pending[1:]
		}
	}
	ctx := context.Background()
	draining := false
	for {
		if !draining {
			select {
			case <-stop:
				// The writer is done: drain what is left, then verify
				// every snapshot still pending.
				draining = true
			default:
			}
		}
		pctx, cancel := context.WithTimeout(ctx, pollWindow)
		ds, resync, err := s.subscriber.WaitDeltas(pctx, id, cursor)
		got := time.Now()
		cancel()
		log.polls++
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			log.emptyPolls++
			if draining {
				check(^uint64(0))
				return log
			}
			continue
		case err != nil:
			log.fail("poll: %v", err)
			if draining || log.failed > maxPollFailures {
				return log
			}
			continue
		case resync:
			log.fail("subscriber fell behind the delta history at seq %d", cursor)
			return log
		}
		for _, d := range ds {
			check(d.Seq)
			view.apply(d)
			log.received[d.Seq] = got
			cursor = d.Seq
		}
		log.reads++
		readStart := time.Now()
		p, m, sseq, err := s.subscriber.Snapshot(ctx, id)
		log.readMs.addDur(time.Since(readStart))
		if err != nil {
			log.fail("snapshot: %v", err)
			continue
		}
		pending = append(pending, snap{seq: sseq, view: project(p, m)})
	}
}
