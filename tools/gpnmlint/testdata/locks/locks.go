// Package locks is the lockguard fixture: blocking operations with a
// mutex held (diagnostics) against the release-first, branch-exit,
// non-blocking-select and closure patterns the engine actually uses
// (silent).
package locks

import (
	"sync"
	"time"

	"fix/internal/shard"
	"fix/internal/workpool"
)

type Server struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	rpc *shard.RPC
	sh  shard.Shard
	ch  chan int
}

func (s *Server) bad1() {
	s.mu.Lock()
	<-s.ch // want `channel receive while holding s\.mu`
	s.mu.Unlock()
}

func (s *Server) bad2() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	workpool.ForEach(4, 2, func(i int) {}) // want `worker-pool fan ForEach while holding s\.rw`
}

func (s *Server) bad3() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rpc.Call("/ops") // want `shard RPC Call while holding s\.mu`
}

func (s *Server) bad4() {
	s.mu.Lock()
	if err := s.sh.Ping(); err != nil { // want `shard\.Shard\.Ping .* while holding s\.mu`
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

func (s *Server) bad5(v int) {
	s.mu.Lock()
	s.ch <- v // want `channel send while holding s\.mu`
	s.mu.Unlock()
}

func (s *Server) badSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select without default while holding s\.mu`
	case v := <-s.ch:
		_ = v
	}
}

func (s *Server) badSleep() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding s\.mu`
	s.mu.Unlock()
}

// Release before blocking: silent.
func (s *Server) good1() {
	s.mu.Lock()
	ch := s.ch
	s.mu.Unlock()
	<-ch
}

// Early-exit branch releases then blocks; the fallthrough keeps the
// lock but never blocks: silent.
func (s *Server) good2(fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		<-s.ch
		return
	}
	s.mu.Unlock()
}

// Non-blocking poll: silent.
func (s *Server) good3() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		_ = v
	default:
	}
}

// The closure blocks on the pool goroutine, not under this function's
// lock; its body is scanned separately with an empty held set: silent.
func (s *Server) good4() {
	s.mu.Lock()
	f := func() { <-s.ch }
	s.mu.Unlock()
	f()
}

// The op-streamer's bounded exchange: a send-or-receive select loop
// trading work over a backlogged channel. Run unlocked (as the staging
// loop does), the peer can always make progress: silent.
func (s *Server) goodExchange(v int) {
	for {
		select {
		case s.ch <- v:
			return
		case got := <-s.ch:
			_ = got
		}
	}
}

// The same exchange under a held mutex can deadlock against a consumer
// that needs the lock to drain: diagnostic.
func (s *Server) badExchange(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select without default while holding s\.mu`
	case s.ch <- v:
	case got := <-s.ch:
		_ = got
	}
}

// Annotated intentional hold: silent.
func (s *Server) allowed() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	//lint:allow lockguard read-locked CPU-only fan, ordered against rebuilds
	workpool.ForEach(2, 2, func(i int) {})
}
