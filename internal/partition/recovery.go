package partition

import (
	"errors"
	"fmt"
	"time"

	"uagpnm/internal/shard"
)

// This file is the failover controller of the sharded §V substrate:
// the piece that turns "a gpnm-shard worker died" from a session-ending
// poison into a quarantined slot and a retried phase.
//
// Why the coordinator can always recover: it never delegates state it
// cannot reproduce. The data graph and the partition bookkeeping live
// coordinator-side; a worker only holds a replica of the graph, and
// every worker holds all of it. Coordinator staging also strictly
// precedes every shard flush, so at any fault the coordinator's graph
// reflects the full in-flight batch and a build from it is exactly the
// state the dead worker would have reached.
//
// The recovery sequence, run from the single-writer mutation context
// (no concurrent readers exist during a mutation, so the shard table
// may be edited freely):
//
//  1. Quarantine. The observed-faulty slot is dead by decree (even a
//     worker that answers pings is untrustworthy after a failed call —
//     it may have diverged); every other alive slot is probed with a
//     short Ping and joins the dead set on failure.
//  2. Promote. Each dead slot takes the next live spare, keeping its
//     slot index. A promoted spare gets a /build of the coordinator's
//     graph, fenced at the current op epoch so a subsequent retry of
//     the in-flight flush cannot double-apply.
//  3. Retry. The caller retries the faulted phase, which re-slices
//     /affected over the alive slots. Survivors need no repair: they
//     already serve every ball, and the epoch fence reconciles whether
//     or not they had applied the in-flight flush before the loss.
//
// Terminal poison (shard.ErrSubstrateLost) remains the fallback when
// nothing survives or the per-mutation budget is spent.

// ShardProbe is a snapshot of one alive shard slot, taken for an
// off-path health probe: the slot index plus the exact client serving
// it at snapshot time, so a later repair can tell whether the probe
// still describes the fleet.
type ShardProbe struct {
	Idx   int
	Shard shard.Shard
}

// ShardProbes snapshots the alive shard slots of a remote fleet. The
// caller must hold exclusive access to the engine for the call itself
// (the shard table is edited during recovery), but the returned probes
// are safe to Ping WITHOUT it — shard clients are concurrency-safe, and
// the worst a racing recovery can do is Close one, which just makes the
// ping fail against a slot SweepRepair will then recognise as already
// handled. Returns nil for engines without shards and poisoned
// engines: neither has anything to sweep.
func (e *Engine) ShardProbes() []ShardProbe {
	if !e.Remote() || e.Err() != nil {
		return nil
	}
	alive := e.aliveIndices()
	ps := make([]ShardProbe, 0, len(alive))
	for _, i := range alive {
		ps = append(ps, ShardProbe{Idx: i, Shard: e.shards[i]})
	}
	return ps
}

// SweepRepair repairs the fleet after an off-path probe of p failed
// with pingErr, using the same quarantine/promote sequence a mid-batch
// fault triggers — just discovered between batches instead of by the
// next batch's first RPC. The caller must hold
// exclusive access to the engine. A probe overtaken by an interleaved
// recovery — the slot already quarantined, or serving a different
// client than the one probed — is skipped (reported false): the fleet
// the probe described no longer exists. On unrecoverable loss the
// engine poisons exactly as a mid-batch fault would; convert with
// RecoverSubstrateLoss at the caller's boundary.
func (e *Engine) SweepRepair(p ShardProbe, pingErr error) bool {
	e.ensureUsable()
	if p.Idx < 0 || p.Idx >= len(e.shards) || !e.shardAlive[p.Idx] || e.shards[p.Idx] != p.Shard {
		return false
	}
	e.resetFailoverBudget()
	e.recoverFault(&shardFault{idx: p.Idx, err: pingErr})
	return true
}

// runRecoverable executes one failover-protected phase, converting a
// repairable *shardFault panic into a return value. Any other panic —
// including the sticky poison — is re-raised.
func (e *Engine) runRecoverable(phase func()) (f *shardFault) {
	e.recoverable.Store(true)
	defer e.recoverable.Store(false)
	defer func() {
		if r := recover(); r != nil {
			if sf, ok := r.(*shardFault); ok {
				f = sf
				return
			}
			//lint:allow panic re-raise of a foreign panic; only *shardFault unwinds belong to this seam
			panic(r)
		}
	}()
	phase()
	return nil
}

// withFailover runs phase, repairing the shard assignment and retrying
// on loss until the phase completes or the recovery budget is spent.
// Phases must be idempotent against the coordinator's own state (every
// protected phase is: ball phases overwrite their outputs, the op flush
// is epoch-fenced). Only engines with shards run protected phases.
func (e *Engine) withFailover(phase func()) {
	for {
		f := e.runRecoverable(phase)
		if f == nil {
			return
		}
		e.recoverFault(f)
	}
}

// recoverFault spends one unit of the mutation's failover budget
// repairing the fleet after fault f, poisoning the engine when the
// budget is exhausted or the repair itself fails. It is the budgeted
// core of withFailover, also entered directly by the op-log streamer
// (whose faults are recorded off the critical path and repaired at the
// phase join) and the proactive health sweep (which discovers losses
// between batches instead of by the next batch's first RPC).
func (e *Engine) recoverFault(f *shardFault) {
	if e.recoveryBudget <= 0 {
		e.poison(f.err)
	}
	e.recoveryBudget--
	e.recoveringFlag.Store(true)
	e.metrics.Counter("gpnm_recovery_retries_total").Inc()
	recoveryStart := time.Now()
	err := e.recoverShards(f)
	e.span("recovery", recoveryStart)
	e.recoveringFlag.Store(false)
	if err != nil {
		// Keep the original transport error in the chain: callers
		// assert errors.As(*shard.TransportError) on terminal losses.
		e.poison(fmt.Errorf("failover failed (%v): %w", err, f.err))
	}
	e.recoveredN.Add(1)
}

// recoverShards repairs the shard fleet after slot f.idx faulted. It
// loops until a pass completes with every spare build succeeding —
// workers that die during recovery simply join the dead set of the
// next pass — or until no serving capacity remains.
func (e *Engine) recoverShards(f *shardFault) error {
	suspect := map[int]bool{f.idx: true}
	var snap *shard.Snapshot // the graph, captured once if a spare needs it
	for pass := 0; ; pass++ {
		if pass > len(e.shards)+len(e.spares)+1 {
			return errors.New("recovery did not converge")
		}
		// 1. Quarantine suspects and probe the remaining alive slots —
		// probes fan in parallel so detection costs one Ping timeout,
		// not one per worker.
		probeStart := time.Now()
		probe := e.aliveIndices()
		probeDead := make([]bool, len(probe))
		parallelFor(len(probe), len(probe), func(k int) {
			i := probe[k]
			probeDead[k] = suspect[i] || e.shards[i].Ping() != nil
		})
		for k, i := range probe {
			if !probeDead[k] {
				continue
			}
			e.shardAlive[i] = false
			//lint:allow faultseam best-effort close of a quarantined slot; the controller already treats it as dead
			_ = e.shards[i].Close()
			e.metrics.Counter("gpnm_recovery_quarantined_total").Inc()
		}
		suspect = map[int]bool{}
		e.span("recovery_probe", probeStart)

		// 2. Promote spares into dead slots (slot index preserved) and
		// build each from the coordinator's graph. The fence in
		// cfg.Epoch marks the snapshot as already containing the
		// in-flight flush.
		rebuildStart := time.Now()
		cfg := e.shardConfig()
		ok := true
		for i := range e.shards {
			if e.shardAlive[i] {
				continue
			}
			for len(e.spares) > 0 {
				sp := e.spares[0]
				e.spares = e.spares[1:]
				if sp.Ping() != nil {
					//lint:allow faultseam best-effort close of a dead spare before trying the next one
					_ = sp.Close()
					continue
				}
				e.shards[i] = sp
				e.shardAlive[i] = true
				e.metrics.Counter("gpnm_recovery_promoted_total").Inc()
				if snap == nil {
					s := shard.Snap(e.part.g)
					snap = &s
				}
				e.metrics.Counter("gpnm_recovery_rebuilds_total").Inc()
				//lint:allow faultseam the recovery controller IS the seam here: a failed spare build re-marks the slot suspect for the next round
				if err := sp.Build(cfg, *snap); err != nil {
					suspect[i] = true
					ok = false
				}
				break
			}
		}
		e.span("recovery_rebuild", rebuildStart)
		if len(e.aliveIndices()) == 0 {
			return errors.New("no surviving or spare shard")
		}
		if ok {
			return nil
		}
	}
}
