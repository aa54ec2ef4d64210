package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"uagpnm/internal/api"
	"uagpnm/internal/hub"
	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
)

// system is one set-up instance of the program under test: the hub at
// its defaults (index on, pipeline off, Workers 0), plus the HTTP front
// end and SDK clients for serve, or the loopback shard workers for
// sharded.
type system struct {
	h   *hub.Hub
	reg *obs.Registry
	ids map[int]hub.PatternID // pattern index → hub id

	srv        *loopback   // serve: the API server
	writer     *api.Client // serve: the writer's connection
	subscriber *api.Client // serve: the subscriber's connection
	workers    []*loopback // sharded: shard workers

	registerMs sample // latency of every Register call
	setup      time.Duration
}

// loopback is one HTTP server on 127.0.0.1 that the benchmark owns.
type loopback struct {
	srv  *http.Server
	addr string
	done chan error
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// stop closes the server and waits for its serve loop to return.
func (l *loopback) stop() {
	_ = l.srv.Close() // Close drops in-flight requests; nothing is left to drain at teardown
	if err := <-l.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("perfbench: loopback server:", err)
	}
}

// setUp builds one system over a clone of the workload's initial graph
// and registers every initial pattern. Cloning is not timed; everything
// else is.
func setUp(in *inputs) (*system, error) {
	g := in.g.Clone()
	s := &system{reg: obs.NewRegistry(), ids: map[int]hub.PatternID{}}
	start := time.Now()
	cfg := hub.Config{Horizon: in.sp.horizon, Metrics: s.reg}
	for i := 0; i < in.sp.shards; i++ {
		w, err := serveLoopback(shard.NewServer().Handler())
		if err != nil {
			s.tearDown()
			return nil, err
		}
		s.workers = append(s.workers, w)
		cfg.Shards = append(cfg.Shards, w.addr)
	}
	h, err := hub.New(g, cfg)
	if err != nil {
		s.tearDown()
		return nil, fmt.Errorf("hub build: %w", err)
	}
	s.h = h
	if in.sp.open {
		if s.srv, err = serveLoopback(api.NewServer(h, api.ServerConfig{}).Routes()); err != nil {
			s.tearDown()
			return nil, err
		}
		ctx := context.Background()
		if s.writer, err = api.Dial(ctx, s.srv.addr); err != nil {
			s.tearDown()
			return nil, err
		}
		if s.subscriber, err = api.Dial(ctx, s.srv.addr); err != nil {
			s.tearDown()
			return nil, err
		}
	}
	for i := 0; i < in.sp.patterns; i++ {
		if err := s.register(i, in.patterns[i]); err != nil {
			s.tearDown()
			return nil, err
		}
	}
	s.setup = time.Since(start)
	return s, nil
}

// register adds pattern index i as a standing query — through the SDK
// when the system serves HTTP, else in-process (with a clone: the hub
// owns what it gets) — and times the call.
func (s *system) register(i int, p *pattern.Graph) error {
	var id hub.PatternID
	var err error
	p = p.Clone()
	start := time.Now()
	if s.writer != nil {
		id, err = s.writer.Register(context.Background(), p)
	} else {
		id, err = s.h.Register(p)
	}
	s.registerMs.addDur(time.Since(start))
	if err != nil {
		return fmt.Errorf("register pattern %d: %w", i, err)
	}
	s.ids[i] = id
	return nil
}

// unregister drops pattern index i.
func (s *system) unregister(i int) error {
	var err error
	if s.writer != nil {
		err = s.writer.Unregister(context.Background(), s.ids[i])
	} else {
		err = s.h.UnregisterErr(s.ids[i])
	}
	if err != nil {
		return fmt.Errorf("unregister pattern %d: %w", i, err)
	}
	delete(s.ids, i)
	return nil
}

// indexOf maps each live hub id back to its pattern index.
func (s *system) indexOf() map[hub.PatternID]int {
	out := make(map[hub.PatternID]int, len(s.ids))
	for idx, id := range s.ids {
		out[id] = idx
	}
	return out
}

// liveOrder lists live pattern indices in registration order.
func (s *system) liveOrder() []int {
	idx := s.indexOf()
	out := make([]int, 0, len(s.ids))
	for _, id := range s.h.Patterns() {
		out = append(out, idx[id])
	}
	return out
}

// tearDown stops everything setUp started, in reverse order, and waits
// for every server goroutine to end.
func (s *system) tearDown() {
	for _, c := range []*api.Client{s.writer, s.subscriber} {
		if c != nil {
			_ = c.Close() // only drops idle connections
		}
	}
	if s.srv != nil {
		s.srv.stop()
	}
	if s.h != nil {
		_ = s.h.Close() // releases shard clients; the workers stop below
	}
	for _, w := range s.workers {
		w.stop()
	}
}

// liveHeapMB reads the live heap after two full collections (the
// second empties sync.Pool victim caches the first only demotes).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
