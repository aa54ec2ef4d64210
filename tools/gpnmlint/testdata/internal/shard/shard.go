// Package shard stubs the real shard package's surface: the Shard
// interface faultseam guards, and the RPC client and interface methods
// lockguard treats as blocking. Calls on the concrete RPC type are
// exempt from faultseam.
package shard

type Shard interface {
	Ping() error
	Build(index int) error
	Rows(n int) (int, error)
	Close() error
}

type RPC struct{}

func (r *RPC) Call(path string) error { return nil }
func (r *RPC) Build(index int) error  { return nil }
