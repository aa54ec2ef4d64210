package partition

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/shard"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
)

// Engine is the label-partitioned SLen substrate (§V) as the matcher
// uses it: UA-GPNM asks its substrate only for bounded balls, and the
// engine answers every ball by a bounded BFS over its own data graph,
// materialised as a full-horizon row and cached until the next
// mutation. Affected sets are conservative BFS balls too.
//
// Layering: the engine is the *coordinator* of the substrate. It owns
// the data graph, the partition bookkeeping (membership, bridge-node
// counters) and the row caches. An engine built without shards is
// complete in itself. WithShards adds remote shard workers
// (cmd/gpnm-shard over HTTP/JSON): each holds a replica of the data
// graph, fed by the epoch-fenced op stream, and computes its slice of
// the batch's affected balls on it. No read touches a shard: ball rows
// always come from the coordinator's graph, so a lost worker surfaces
// on the next mutation path (or health sweep), where failover repairs
// it.
//
// Concurrency contract: mutations are single-goroutine like every other
// DistanceEngine — callers never invoke two mutating methods (Build,
// Insert*/Delete*, ApplyDataBatch, EnsureHorizon) concurrently, nor a
// mutation concurrently with anything else. The engine itself fans
// embarrassingly parallel phases (per-update affected balls, row
// prefetch) across a bounded worker pool
// sized by WithWorkers (and across shard processes when remote); every
// parallel phase only reads shared structures and keeps its mutable
// state in pooled per-worker scratch, with results installed from a
// single goroutine.
//
// Read epochs: between mutations the query side (Forward/ReverseBall,
// Preview*) is safe for any number of concurrent goroutines — queries
// read structures that are immutable until the next mutation, per-query
// scratch is pooled, and the lazy row-cache fill is serialised
// internally (cacheMu). The standing-query hub (internal/hub) leans on
// exactly this: one writer advances the engine per batch, then many
// per-pattern readers amend against the frozen post-batch state.
//
// Engine implements shortest.DistanceEngine; affected sets are the
// conservative ball supersets documented on each method.
type Engine struct {
	part    *Partitioning
	horizon int

	workers int // worker pool bound (1 = serial)
	opChunk int // ops per streamed /ops chunk (≤ 0 = single end-of-phase flush)

	// shards are the remote workers (none in process). Every op is
	// streamed to every alive worker for replica maintenance, and
	// conservative affected balls are computed worker-side.
	//
	// shardAlive quarantines lost slots: the failover controller
	// (recovery.go) either promotes a spare into a dead slot or leaves
	// it dead. spares are the standby workers -spare-shards configured,
	// promoted in order.
	shards     []shard.Shard
	shardAlive []bool
	spares     []shard.Shard

	// Failover state. failoverRetries is the per-mutation recovery
	// budget (how many distinct losses one batch may absorb before the
	// terminal poison); recoveryBudget is what remains of it inside the
	// current mutation boundary. opEpoch fences the op stream: every
	// remote flush carries a strictly increasing epoch, so a failover
	// retry of the same flush is idempotent on survivors. recoverable
	// is set while a failover-protected phase runs — shard faults then
	// unwind as repairable *shardFault panics instead of poisoning.
	failoverRetries int
	recoveryBudget  int
	opEpoch         uint64
	recoverable     atomic.Bool
	recoveringFlag  atomic.Bool
	recoveredN      atomic.Uint64

	gballPool sync.Pool // *shortest.GraphBall, per-worker adjacency BFS

	// Materialised ball rows, keyed by source node, built lazily by
	// bounded BFS at the full horizon on first query and dropped on any
	// mutation. The matching fixpoint queries the same sources many
	// times per amendment; caching makes repeat queries a plain row
	// scan, as they would be on a materialised global SLen.
	// ApplyDataBatch pre-warms the rows the next amendment is known to
	// query (in parallel).
	//
	// cacheMu makes the lazy cache fill safe under the read-epoch
	// discipline (see the concurrency contract above): row *building* is
	// a pure read of shared structures, so concurrent misses may build
	// the same row twice, but the map itself is only touched under the
	// lock. Every other query path reads immutable-between-mutations
	// state and needs no guard.
	cacheMu  sync.Mutex
	fwdCache map[uint32][]ballEntry
	revCache map[uint32][]ballEntry

	// lost poisons the engine after an unrecoverable shard failure —
	// failover found no surviving or spare worker, or the per-mutation
	// budget was spent: the substrate may be half-synchronised relative
	// to the data graph, so every further answer could be silently
	// wrong. Guarded by lostMu (shard calls happen on pool workers);
	// once set it never clears.
	lostMu sync.Mutex
	lost   error

	// metrics receives the engine's telemetry (batch phase latencies,
	// recovery counters); never nil — obs.Default unless WithMetrics.
	// trace, when non-nil, additionally collects each completed phase
	// span into the current batch's trace. It is set by the single
	// mutation writer (SetTraceSink) and only ever read from the
	// mutation goroutine, so it needs no lock.
	metrics *obs.Registry
	trace   *obs.Trace
}

// SetTraceSink directs the engine's per-phase spans (batch phases,
// recovery spans) into t in addition to the metrics registry — the hub
// sets one per batch so GET /v1/trace can show a batch's full phase
// breakdown. Pass nil to detach. Caller contract: only the single
// mutation writer may set or clear the sink, and the sink must stay
// attached for the whole mutation (spans are appended from the
// mutation goroutine only).
func (e *Engine) SetTraceSink(t *obs.Trace) { e.trace = t }

// span records one completed phase: a latency observation in the
// shared gpnm_batch_phase_seconds histogram family and, when a trace
// sink is attached, a span in the current batch's trace.
func (e *Engine) span(name string, start time.Time) {
	d := time.Since(start)
	e.metrics.Histogram("gpnm_batch_phase_seconds", "phase", name).Observe(d)
	if e.trace != nil {
		e.trace.AddSpan(name, d)
	}
}

// Err reports the sticky substrate-loss error (nil while healthy). Once
// non-nil the engine refuses further work: reads and mutations raise
// the same error, which boundary methods convert via
// RecoverSubstrateLoss.
func (e *Engine) Err() error {
	e.lostMu.Lock()
	defer e.lostMu.Unlock()
	return e.lost
}

// shardFault is the repairable form of a shard loss: it identifies the
// failing slot so the failover controller can quarantine it, and wraps
// the transport error so a terminal poison still surfaces it.
type shardFault struct {
	idx int
	err error
}

func (f *shardFault) Error() string { return fmt.Sprintf("shard %d: %v", f.idx, f.err) }
func (f *shardFault) Unwrap() error { return f.err }

// shardFail raises a failure of shard slot idx. Inside a
// failover-protected phase (withFailover) it panics with a repairable
// *shardFault — workpool.ForEach re-raises worker panics on the phase's
// caller, where the failover controller quarantines the slot, promotes
// a spare if one is left, and retries the phase. Outside such a phase (the
// error-less DistanceEngine query surface, read between mutations) the
// old discipline holds: record the sticky loss and panic with it until
// a boundary method (ApplyDataBatch here, ApplyBatch/Register in
// internal/hub) converts it back into a return value with
// RecoverSubstrateLoss. The raw shard error stays wrapped either way,
// so errors.As still surfaces the *shard.TransportError.
func (e *Engine) shardFail(idx int, err error) {
	if e.recoverable.Load() {
		//lint:allow panic this panic IS the failover seam: withFailover recovers the *shardFault and repairs the fleet
		panic(&shardFault{idx: idx, err: err})
	}
	e.poison(err)
}

// poison records err as the engine's terminal substrate loss (first
// failure wins) and panics with the sticky error.
func (e *Engine) poison(err error) {
	e.lostMu.Lock()
	if e.lost == nil {
		e.lost = fmt.Errorf("partition: %w: %w", shard.ErrSubstrateLost, err)
	}
	err = e.lost
	e.lostMu.Unlock()
	//lint:allow panic sticky-loss unwind; boundary methods convert it back to an error via RecoverSubstrateLoss
	panic(err)
}

// ensureUsable panics with the sticky loss so a poisoned engine can
// never advance (or answer from) a diverged substrate.
func (e *Engine) ensureUsable() {
	if err := e.Err(); err != nil {
		//lint:allow panic sticky-loss unwind; boundary methods convert it back to an error via RecoverSubstrateLoss
		panic(err)
	}
}

// RecoverSubstrateLoss converts a substrate-loss panic into *err; any
// other panic is re-raised. Boundary methods defer it to turn the
// engine's internal unwinding into an ordinary error return:
//
//	func (e *Engine) ApplyDataBatch(...) (..., err error) {
//		defer RecoverSubstrateLoss(&err)
//		...
//	}
//
// Callers detect the condition with errors.Is(err, shard.ErrSubstrateLost).
func RecoverSubstrateLoss(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if e, ok := r.(error); ok && errors.Is(e, shard.ErrSubstrateLost) {
		*err = e
		return
	}
	//lint:allow panic re-raise of a foreign panic; only substrate-loss panics belong to this recovery seam
	panic(r)
}

// invalidate drops the materialised row caches after any mutation.
func (e *Engine) invalidate() {
	e.cacheMu.Lock()
	e.fwdCache = nil
	e.revCache = nil
	e.cacheMu.Unlock()
}

// Option configures the partition engine.
type Option func(*Engine)

// WithWorkers bounds the engine's internal worker pool: batch
// affected-set balls and row prefetch fan across up to n goroutines. n ≤ 0 selects GOMAXPROCS; 1 runs every phase
// serially (the UA-GPNM-NoPar-comparable baseline).
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithShards streams the op log to the given shard workers and fans
// the batch's affected balls across them. Each worker receives every
// op and holds the whole data graph.
func WithShards(shs ...shard.Shard) Option {
	return func(e *Engine) { e.shards = append([]shard.Shard(nil), shs...) }
}

// WithSpares holds the given remote shards in standby: when a serving
// shard is lost, the failover controller promotes the next live spare
// into the dead slot (a full build from the coordinator's graph).
// Without a spare the survivors carry on alone. Only meaningful with
// remote shards.
func WithSpares(shs ...shard.Shard) Option {
	return func(e *Engine) { e.spares = append(e.spares, shs...) }
}

// WithMetrics directs the engine's telemetry (phase latency
// histograms, recovery counters, trace spans) into reg instead of the
// process-global obs.Default — the bench harness isolates the hub
// side's phases this way.
func WithMetrics(reg *obs.Registry) Option {
	return func(e *Engine) {
		if reg != nil {
			e.metrics = reg
		}
	}
}

// WithOpChunk sets how many staged ops the batch's phase 2 accumulates
// before streaming them to the remote shards as one fenced /ops chunk,
// overlapping shard-side application with the coordinator's continued
// staging (see stream.go). n ≤ 0 disables streaming: the whole ordered
// op list flushes in a single end-of-phase RPC per shard, the pre-stream
// shape. The default is DefaultOpChunk. In-process engines ignore it
// (they have no one to stream to).
func WithOpChunk(n int) Option { return func(e *Engine) { e.opChunk = n } }

// WithFailoverRetries bounds how many distinct shard losses one
// failover boundary — a data batch's phases, a single-update mutation,
// a build, a health-sweep repair — may absorb before the engine gives
// up and poisons itself with shard.ErrSubstrateLost. The budget re-arms
// per boundary, so it bounds losses per operation, not per process.
// The default is 1 — each faulted phase is retried exactly once against
// the repaired assignment; n ≤ 0 disables failover entirely (every loss
// poisons, the pre-failover behaviour).
func WithFailoverRetries(n int) Option {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.failoverRetries = n
	}
}

// NewEngine creates a partition-based SLen engine over g with the given
// hop horizon (0 = exact). Call Build before querying.
func NewEngine(g *graph.Graph, horizon int, opts ...Option) *Engine {
	e := &Engine{horizon: horizon, failoverRetries: 1, opChunk: DefaultOpChunk, metrics: obs.Default}
	for _, o := range opts {
		o(e)
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.initPools()
	e.part = newPartitioning(g)
	if len(e.spares) > 0 && !e.Remote() {
		//lint:allow panic constructor misuse invariant; spare promotion only makes sense for remote fleets
		panic("partition: spare shards require a remote shard fleet")
	}
	e.shardAlive = make([]bool, len(e.shards))
	for i := range e.shardAlive {
		e.shardAlive[i] = true
	}
	return e
}

func (e *Engine) initPools() {
	e.gballPool.New = func() interface{} { return shortest.NewGraphBall() }
}

// Workers reports the engine's worker pool bound.
func (e *Engine) Workers() int { return e.workers }

// AliveShards reports how many shard slots are currently serving.
func (e *Engine) AliveShards() int { return len(e.aliveIndices()) }

// Remote reports whether the engine has shard workers.
func (e *Engine) Remote() bool { return len(e.shards) > 0 }

// Recovered reports how many shard losses the engine has absorbed
// through failover over its lifetime. The hub folds the per-batch delta
// into BatchStats.Recovered.
func (e *Engine) Recovered() uint64 { return e.recoveredN.Load() }

// Recovering reports whether a failover is in flight right now — the
// degraded-not-dead state health endpoints surface without blocking on
// the mutation in progress.
func (e *Engine) Recovering() bool { return e.recoveringFlag.Load() }

// shardConfig snapshots the parameters every shard builds with,
// including the current op-stream fence (coordinator staging always
// precedes the flush, so a snapshot taken now reflects every op of the
// current epoch).
func (e *Engine) shardConfig() shard.Config {
	return shard.Config{Workers: e.workers, Epoch: e.opEpoch}
}

// aliveIndices lists the shard slots currently serving.
func (e *Engine) aliveIndices() []int {
	out := make([]int, 0, len(e.shards))
	for i, ok := range e.shardAlive {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// nextOpEpoch issues the fence for one remote op flush (single-writer).
func (e *Engine) nextOpEpoch() uint64 {
	e.opEpoch++
	return e.opEpoch
}

// resetFailoverBudget re-arms the recovery budget at each mutation
// boundary: one batch (or single update, or build) may absorb up to
// failoverRetries distinct shard losses before poisoning.
func (e *Engine) resetFailoverBudget() { e.recoveryBudget = e.failoverRetries }

// Build ships the data graph to every remote shard, overlapping the
// builds; an in-process engine has nothing to ship. A worker lost
// during the build is failed over like any other loss and the build
// retries on the repaired fleet.
func (e *Engine) Build() {
	e.ensureUsable()
	e.resetFailoverBudget()
	if e.Remote() {
		snap := shard.Snap(e.part.g)
		e.withFailover(func() {
			cfg := e.shardConfig()
			alive := e.aliveIndices()
			parallelFor(len(alive), len(alive), func(k int) {
				i := alive[k]
				if err := e.shards[i].Build(cfg, snap); err != nil {
					e.shardFail(i, err)
				}
			})
		})
	}
	e.invalidate()
}

// Close releases the shards and any unpromoted spares (remote: closes
// idle connections). The engine is unusable afterwards.
func (e *Engine) Close() error {
	var first error
	for _, sh := range e.shards {
		//lint:allow faultseam teardown path: failover is already dismantled, the first close error goes to the caller
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, sh := range e.spares {
		//lint:allow faultseam teardown path: failover is already dismantled, the first close error goes to the caller
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Graph returns the engine's data graph.
func (e *Engine) Graph() *graph.Graph { return e.part.g }

// Partitioning exposes the partition structure (stats, bridge nodes).
func (e *Engine) Partitioning() *Partitioning { return e.part }

// Horizon reports the hop cap (0 = exact).
func (e *Engine) Horizon() int { return e.horizon }

// Exact reports whether the engine represents unbounded distances.
func (e *Engine) Exact() bool { return e.horizon == 0 }

// oracleAlive reports whether id is represented in the partition
// structure (it may briefly diverge from graph liveness mid-update;
// the oracle's own state is authoritative for distance queries).
func (e *Engine) oracleAlive(id uint32) bool { return e.part.partIndex(id) != none }

// ForwardBall visits {v : d(x,v) ≤ k} in ascending id order.
func (e *Engine) ForwardBall(x uint32, k int, fn func(v uint32, d shortest.Dist) bool) {
	e.cachedBall(x, k, false, fn)
}

// ReverseBall visits {s : d(s,y) ≤ k} in ascending id order.
func (e *Engine) ReverseBall(y uint32, k int, fn func(s uint32, d shortest.Dist) bool) {
	e.cachedBall(y, k, true, fn)
}

// cachedBall serves a ball query from the materialised row cache,
// building the full-horizon row on a miss. Map lookups and
// installs happen under cacheMu so concurrent readers of one frozen
// engine state stay safe; the row build itself is a pure read and runs
// unlocked (two goroutines missing on the same source build identical
// rows, and the second install is a no-op overwrite).
func (e *Engine) cachedBall(x uint32, k int, reverse bool, fn func(v uint32, d shortest.Dist) bool) {
	if k < 0 || !e.oracleAlive(x) {
		return
	}
	cache := &e.fwdCache
	if reverse {
		cache = &e.revCache
	}
	e.cacheMu.Lock()
	row, ok := (*cache)[x]
	e.cacheMu.Unlock()
	if !ok {
		row = e.buildRow(x, reverse)
		e.cacheMu.Lock()
		if *cache == nil {
			*cache = make(map[uint32][]ballEntry)
		}
		(*cache)[x] = row
		e.cacheMu.Unlock()
	}
	for _, en := range row {
		if int(en.d) <= k {
			if !fn(en.id, en.d) {
				return
			}
		}
	}
}

// buildRow materialises the full-horizon row of x for the cache: a
// bounded BFS over the data graph — exact, and the cheapest way to
// materialise one row of the capped SLen. buildRow only reads shared
// state (scratch is pooled), so rows for distinct sources build
// concurrently.
func (e *Engine) buildRow(x uint32, reverse bool) []ballEntry {
	gb := e.gballPool.Get().(*shortest.GraphBall)
	cols, dists := gb.Row(e.part.g, x, e.horizon, reverse) // horizon 0 = unbounded
	row := make([]ballEntry, len(cols))
	for i, c := range cols {
		row[i] = ballEntry{c, dists[i]}
	}
	e.gballPool.Put(gb)
	return row
}

// prefetchRows materialises the reverse rows of every live id into the
// cache, assembling cache-miss rows across the worker pool. The
// amendment pass that follows a batch queries exactly these rows — its
// cascade closure starts from the change log and asks ReverseBall for
// every member — so pre-warming converts its serial on-demand row
// builds into one parallel sweep. Forward rows stay lazy: only the
// change-log nodes that are also label candidates get forward queries,
// so warming them would be speculative work.
func (e *Engine) prefetchRows(ids nodeset.Set) {
	if len(ids) == 0 {
		return
	}
	if e.workers <= 1 || len(ids) < 2 {
		return // lazy path: serial engines build rows on demand
	}
	live := make([]uint32, 0, len(ids))
	for _, x := range ids {
		if e.oracleAlive(x) {
			live = append(live, x)
		}
	}
	n := len(live)
	if n == 0 {
		return
	}
	rows := make([][]ballEntry, n)
	parallelFor(e.workers, n, func(i int) {
		rows[i] = e.buildRow(live[i], true)
	})
	e.cacheMu.Lock()
	if e.revCache == nil {
		e.revCache = make(map[uint32][]ballEntry, n)
	}
	for i, x := range live {
		e.revCache[x] = rows[i]
	}
	e.cacheMu.Unlock()
}

type ballEntry struct {
	id uint32
	d  shortest.Dist
}

// conservativeEdgeAffected is the ball superset used as the affected set
// of an edge update (shard.EdgeAffected with pooled scratch), read off
// the data graph by BFS. Read-only: safe to evaluate for many updates
// concurrently.
func (e *Engine) conservativeEdgeAffected(u, v uint32) nodeset.Set {
	gb := e.gballPool.Get().(*shortest.GraphBall)
	s := shard.EdgeAffected(gb, e.part.g, u, v, e.horizon)
	e.gballPool.Put(gb)
	return s
}

// PreviewInsertEdge returns the affected superset for inserting (u,v)
// without mutating anything.
func (e *Engine) PreviewInsertEdge(u, v uint32) nodeset.Set {
	return e.conservativeEdgeAffected(u, v)
}

// InsertEdge synchronises the substrate after edge (u,v) was added to
// the graph and returns the affected superset.
func (e *Engine) InsertEdge(u, v uint32) nodeset.Set {
	e.ensureUsable()
	e.resetFailoverBudget()
	e.applyOp(e.stageInsertEdge(u, v))
	e.invalidate()
	return e.conservativeEdgeAffected(u, v)
}

// stageInsertEdge records edge (u,v) in the coordinator's partition
// bookkeeping (the graph must already contain it) and returns the op
// the shards must apply.
func (e *Engine) stageInsertEdge(u, v uint32) shard.Op {
	e.part.noteEdge(u, v, +1)
	return shard.Op{Kind: shard.OpEdgeInsert, From: u, To: v}
}

// applyOp streams one staged op to the remote shards in its own
// epoch-fenced flush, overlapped across shards (an in-process engine
// has nothing to send). The flush is failover-protected: a worker lost
// mid-flush is quarantined and the same epoch re-flushed — survivors
// that already applied it acknowledge without re-applying.
func (e *Engine) applyOp(op shard.Op) {
	if !e.Remote() {
		return
	}
	ops := []shard.Op{op}
	epoch := e.nextOpEpoch()
	e.withFailover(func() { e.flushOps(epoch, ops) })
}

// flushOps sends one epoch's ops to every alive remote shard. A
// failover retry of the same epoch is safe: the worker-side fence
// acknowledges an epoch it already reflects without re-applying.
func (e *Engine) flushOps(epoch uint64, ops []shard.Op) {
	alive := e.aliveIndices()
	parallelFor(len(alive), len(alive), func(k int) {
		s := alive[k]
		if err := e.shards[s].ApplyOps(epoch, ops); err != nil {
			e.shardFail(s, err)
		}
	})
}

// PreviewDeleteEdge returns the affected superset for deleting (u,v)
// without mutating anything (the graph must still contain the edge).
func (e *Engine) PreviewDeleteEdge(u, v uint32) nodeset.Set {
	return e.conservativeEdgeAffected(u, v)
}

// DeleteEdge synchronises the substrate after edge (u,v) was removed
// from the graph and returns the affected superset (evaluated in the
// pre-delete state).
func (e *Engine) DeleteEdge(u, v uint32) nodeset.Set {
	e.ensureUsable()
	e.resetFailoverBudget()
	aff := e.conservativeEdgeAffected(u, v)
	e.applyOp(e.stageDeleteEdge(u, v))
	e.invalidate()
	return aff
}

// stageDeleteEdge removes edge (u,v) from the coordinator's partition
// bookkeeping (the graph must already have dropped it) and returns the
// op for the shards.
func (e *Engine) stageDeleteEdge(u, v uint32) shard.Op {
	e.part.noteEdge(u, v, -1)
	return shard.Op{Kind: shard.OpEdgeDelete, From: u, To: v}
}

// InsertNode registers a freshly added (isolated) node.
func (e *Engine) InsertNode(id uint32) nodeset.Set {
	e.ensureUsable()
	e.resetFailoverBudget()
	e.applyOp(e.stageInsertNode(id))
	e.invalidate()
	return nodeset.New(id)
}

// stageInsertNode registers id in its label's partition (creating the
// partition if needed) and returns the op for the shards.
func (e *Engine) stageInsertNode(id uint32) shard.Op {
	e.part.addToPart(id)
	return shard.Op{Kind: shard.OpNodeInsert, Node: id}
}

// PreviewDeleteNode returns the affected superset for deleting node id
// (the graph must still contain it).
func (e *Engine) PreviewDeleteNode(id uint32) nodeset.Set {
	return e.nodeAffected(id, e.part.g.Out(id), e.part.g.In(id))
}

// nodeAffected is read-only with pooled scratch, like
// conservativeEdgeAffected (shard.NodeAffected).
func (e *Engine) nodeAffected(id uint32, outs, ins []uint32) nodeset.Set {
	gb := e.gballPool.Get().(*shortest.GraphBall)
	s := shard.NodeAffected(gb, e.part.g, id, outs, ins, e.horizon)
	e.gballPool.Put(gb)
	return s
}

// DeleteNode synchronises the substrate after node id (with incident
// edges removed, as returned by graph.RemoveNode) was deleted.
func (e *Engine) DeleteNode(id uint32, removed []graph.Edge) nodeset.Set {
	e.ensureUsable()
	e.resetFailoverBudget()
	var outs, ins []uint32
	for _, ed := range removed {
		if ed.From == id {
			outs = append(outs, ed.To)
		} else {
			ins = append(ins, ed.From)
		}
	}
	aff := e.nodeAffected(id, outs, ins)
	e.applyOp(e.stageDeleteNode(id, removed))
	e.invalidate()
	return aff
}

// stageDeleteNode removes node id from the coordinator's partition
// bookkeeping (the graph must already have dropped it and its incident
// edges, passed as removed) and returns the op for the shards.
func (e *Engine) stageDeleteNode(id uint32, removed []graph.Edge) shard.Op {
	e.part.removeNode(id, removed)
	return shard.Op{Kind: shard.OpNodeDelete, Node: id}
}

// EnsureHorizon widens a capped engine to cover bound k. Rows are BFS
// balls and every /affected request carries the horizon, so widening
// only drops the row cache.
func (e *Engine) EnsureHorizon(k int) {
	if e.horizon == 0 || k <= e.horizon {
		return
	}
	e.ensureUsable()
	e.horizon = k
	e.invalidate()
}

// CloneFor returns an independent copy of the engine operating on g2,
// a clone of the engine's graph: a plain in-process engine with no
// shards, whatever the original's fleet.
func (e *Engine) CloneFor(g2 *graph.Graph) shortest.DistanceEngine {
	c := &Engine{
		part:    e.part.clone(g2),
		horizon: e.horizon,
		workers: e.workers,
		// The clone shares the parent's registry but not its trace sink:
		// a forked engine's batches are their own, not the parent batch's.
		metrics: e.metrics,
	}
	c.initPools()
	return c
}

// remoteAffected computes the batch's conservative affected balls on
// the remote shards' data-graph replicas. The whole phase issues
// exactly ONE /affected RPC per alive shard (requests sliced
// round-robin across the fleet), the per-shard calls run concurrently
// on the coordinator, and each worker fans its slice across its own
// pool — so phase latency is one round trip plus the slowest slice,
// never a per-update loop. post selects the insertion (post-state)
// pass; otherwise the deletion (pre-state) pass runs.
func (e *Engine) remoteAffected(ds []updates.Update, g *graph.Graph, post bool, applied []bool, perUpdate []nodeset.Set) {
	var reqs []shard.Op
	var idx []int
	for i, u := range ds {
		if !post {
			switch u.Kind {
			case updates.DataEdgeDelete:
				if g.HasEdge(u.From, u.To) {
					reqs = append(reqs, shard.Op{Kind: shard.OpEdgeDelete, From: u.From, To: u.To})
					idx = append(idx, i)
				}
			case updates.DataNodeDelete:
				if g.Alive(u.Node) {
					reqs = append(reqs, shard.Op{Kind: shard.OpNodeDelete, Node: u.Node})
					idx = append(idx, i)
				}
			}
			continue
		}
		if !applied[i] {
			continue
		}
		switch u.Kind {
		case updates.DataEdgeInsert:
			reqs = append(reqs, shard.Op{Kind: shard.OpEdgeInsert, From: u.From, To: u.To})
			idx = append(idx, i)
		case updates.DataNodeInsert:
			perUpdate[i] = nodeset.New(u.Node)
		}
	}
	if len(reqs) == 0 {
		return
	}
	// Slice round-robin over the alive slots only: after a failover the
	// retried phase re-slices against the repaired fleet.
	alive := e.aliveIndices()
	ns := len(alive)
	slices := make([][]shard.Op, ns)
	sliceIdx := make([][]int, ns)
	for j := range reqs {
		s := j % ns
		slices[s] = append(slices[s], reqs[j])
		sliceIdx[s] = append(sliceIdx[s], idx[j])
	}
	parallelFor(ns, ns, func(s int) {
		if len(slices[s]) == 0 {
			return
		}
		sets, err := e.shards[alive[s]].Affected(e.horizon, slices[s])
		if err != nil {
			e.shardFail(alive[s], err)
		}
		for k, set := range sets {
			perUpdate[sliceIdx[s][k]] = set
		}
	})
}
