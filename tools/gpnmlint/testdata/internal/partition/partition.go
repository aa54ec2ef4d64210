// Package partition is the faultseam fixture: every way a shard.Shard
// error may legally flow into the failover seam, and every way it may
// illegally escape it.
package partition

import "fix/internal/shard"

type shardFault struct {
	idx int
	err error
}

func (f *shardFault) Error() string { return f.err.Error() }

type Engine struct {
	shards []shard.Shard
}

func (e *Engine) shardFail(i int, err error) { panic(&shardFault{i, err}) }

func (e *Engine) poison(err error) {}

// Routed through shardFail: silent.
func (e *Engine) buildAll() {
	for i, sh := range e.shards {
		if err := sh.Build(i); err != nil {
			e.shardFail(i, err)
		}
	}
}

// Direct nil probe (the recovery controller's liveness idiom): silent.
func (e *Engine) alive(i int) bool { return e.shards[i].Ping() == nil }

// Routed through a shardFault literal: silent.
func (e *Engine) direct(i int) {
	if err := e.shards[i].Build(i); err != nil {
		panic(&shardFault{i, err})
	}
}

// Routed through poison: silent.
func (e *Engine) boundary(i int) {
	if err := e.shards[i].Ping(); err != nil {
		e.poison(err)
	}
}

// Multi-value call with the error routed: silent.
func (e *Engine) rows(i int) int {
	n, err := e.shards[i].Rows(4)
	if err != nil {
		e.shardFail(i, err)
	}
	return n
}

// Discards: diagnostics.
func (e *Engine) leak(i int) {
	_ = e.shards[i].Close() // want `shard error discarded`
	e.shards[i].Close()     // want `shard call result discarded`
}

// Raw returns bypass recovery: diagnostics.
func (e *Engine) rawReturn(i int) error {
	if err := e.shards[i].Build(i); err != nil { // want `returned raw`
		return err
	}
	return nil
}

func (e *Engine) rawReturnDirect(i int) error {
	return e.shards[i].Close() // want `returned raw`
}

// Bound but neither routed nor returned: diagnostic.
func (e *Engine) swallow(i int) {
	if err := e.shards[i].Ping(); err != nil { // want `not routed into the failover seam`
		println("shard down")
	}
}

// Annotated best-effort discard: silent.
func (e *Engine) quarantine(i int) {
	//lint:allow faultseam best-effort close of a quarantined slot
	_ = e.shards[i].Close()
}

// Concrete *shard.RPC receiver: exempt (the seam is the interface the
// engine's fleet table holds).
func buildConcrete(r *shard.RPC) {
	_ = r.Build(0)
}
