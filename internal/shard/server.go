package shard

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/shortest"
	"uagpnm/internal/srvutil"
	"uagpnm/internal/workpool"
)

// Server is the worker side of the shard protocol: the state one
// cmd/gpnm-shard process holds for one coordinator, behind an HTTP/JSON
// handler the RPC client speaks to.
//
// The worker holds a replica of the full data-graph adjacency (linear,
// label-less), kept in sync from the coordinator's op stream, which
// lets the coordinator fan the batch's conservative affected-ball
// computation (ApplyDataBatch phases 1 and 3) across the shard fleet
// instead of running every ball itself.
//
// One worker serves one coordinator at a time: /build resets all state
// unconditionally, so a fresh coordinator simply claims the worker.
type Server struct {
	mu sync.RWMutex // build/ops exclusive; affected shared

	cfg     Config
	replica *graph.Graph // full data-graph adjacency replica

	// Op-stream fence: the highest epoch this worker's state reflects.
	// A /build adopts the coordinator's fence (the snapshot already
	// contains those ops); a re-sent /ops at or below the fenced epoch is
	// acknowledged without re-applying. That idempotence is what makes
	// the coordinator's failover retry of an in-flight batch (and the
	// chunked op stream's post-repair re-flush) safe.
	lastEpoch uint64

	gballPool sync.Pool

	// Worker-side telemetry: per-endpoint request counts and service
	// latency, plus the applied-op counter. Each gpnm-shard process owns
	// its own registry (the process-global default), served at /metrics,
	// so the coordinator's client-side RPC histograms can be compared
	// against the worker's server-side view to isolate transport cost.
	obs *obs.Registry
}

// NewServer returns an empty worker; /build initialises it.
func NewServer() *Server {
	s := &Server{obs: obs.Default}
	s.gballPool.New = func() interface{} { return shortest.NewGraphBall() }
	return s
}

// Metrics reports the worker's telemetry registry (also served at
// GET /metrics on the worker's own port).
func (s *Server) Metrics() *obs.Registry { return s.obs }

// instrument wraps one endpoint handler with the worker-side request
// counter and service-latency histogram for that endpoint.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.obs.Counter("gpnm_worker_requests_total", "endpoint", endpoint).Inc()
		s.obs.Histogram("gpnm_worker_request_seconds", "endpoint", endpoint).Observe(time.Since(start))
	}
}

// Handler returns the worker's endpoint table:
//
//	GET  /healthz   liveness + whether a replica is built + op-stream epoch
//	POST /build     reset + materialise the replica from a graph snapshot
//	POST /ops       apply one ordered, epoch-fenced op batch
//	POST /affected  conservative balls against the data-graph replica
//	GET  /metrics   worker-side telemetry, Prometheus text exposition
//
// There is no row or distance endpoint: the coordinator answers every
// ball by BFS over its own data graph.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealth))
	mux.HandleFunc("POST /build", s.instrument("/build", s.handleBuild))
	mux.HandleFunc("POST /ops", s.instrument("/ops", s.handleOps))
	mux.HandleFunc("POST /affected", s.instrument("/affected", s.handleAffected))
	mux.Handle("GET /metrics", s.obs)
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	built := s.replica != nil
	epoch := s.lastEpoch
	s.mu.RUnlock()
	srvutil.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"ok": true, "built": built, "epoch": epoch,
	})
}

// buildRequest carries the coordinator state a worker replicates.
type buildRequest struct {
	Config Config   `json:"config"`
	Graph  Snapshot `json:"graph"`
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	var req buildRequest
	if !srvutil.Decode(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg = req.Config
	s.replica = req.Graph.Materialise()
	// The snapshot reflects every flush up to the coordinator's fence:
	// a replayed /ops at that epoch must be acknowledged, not applied.
	s.lastEpoch = req.Config.Epoch
	srvutil.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Epoch uint64 `json:"epoch"`
		Ops   []Op   `json:"ops"`
	}
	if !srvutil.Decode(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replica == nil {
		srvutil.WriteError(w, http.StatusConflict, "worker not built")
		return
	}
	// Epoch fence (0 = unfenced legacy stream). A flush at or below the
	// fenced epoch was already absorbed — through an earlier delivery
	// whose response was lost, or through a fenced build whose
	// snapshot contained it — so acknowledge it without re-applying.
	if req.Epoch != 0 && req.Epoch <= s.lastEpoch {
		srvutil.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
		return
	}
	for i, op := range req.Ops {
		if err := s.applyOp(op); err != nil {
			srvutil.WriteError(w, http.StatusConflict, "op %d (%v): %v", i, op.Kind, err)
			return
		}
	}
	if req.Epoch != 0 {
		s.lastEpoch = req.Epoch
	}
	s.obs.Counter("gpnm_worker_ops_total").Add(uint64(len(req.Ops)))
	srvutil.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// applyOp advances the data-graph replica by one op, in the order the
// coordinator applied it to its own graph.
func (s *Server) applyOp(op Op) error {
	switch op.Kind {
	case OpEdgeInsert:
		if !s.replica.AddEdge(op.From, op.To) {
			return fmt.Errorf("replica rejected edge insert %d->%d", op.From, op.To)
		}
	case OpEdgeDelete:
		if !s.replica.RemoveEdge(op.From, op.To) {
			return fmt.Errorf("replica rejected edge delete %d->%d", op.From, op.To)
		}
	case OpNodeInsert:
		if id := s.replica.AddNodeLabelIDs(); id != op.Node {
			return fmt.Errorf("replica assigned node id %d, coordinator expected %d", id, op.Node)
		}
	case OpNodeDelete:
		if _, ok := s.replica.RemoveNode(op.Node); !ok {
			return fmt.Errorf("replica rejected node delete %d", op.Node)
		}
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return nil
}

// affectedRequest asks for one conservative ball per op at the given
// hop horizon (0 = exact). The coordinator sends its current horizon
// with every request, so widening it needs no call of its own.
type affectedRequest struct {
	Horizon int  `json:"horizon"`
	Reqs    []Op `json:"reqs"`
}

// affectedResponse carries one conservative ball per request.
type affectedResponse struct {
	Sets [][]uint32 `json:"sets"`
}

func (s *Server) handleAffected(w http.ResponseWriter, r *http.Request) {
	var req affectedRequest
	if !srvutil.Decode(w, r, &req) {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.replica == nil {
		srvutil.WriteError(w, http.StatusConflict, "worker not built")
		return
	}
	resp := affectedResponse{Sets: make([][]uint32, len(req.Reqs))}
	//lint:allow lockguard read-locked CPU-only fan: no RPC or channel wait under the RLock; it orders /affected against /build swapping the replica
	workpool.ForEach(s.cfg.Workers, len(req.Reqs), func(i int) {
		gb := s.gballPool.Get().(*shortest.GraphBall)
		resp.Sets[i] = s.affected(gb, req.Horizon, req.Reqs[i])
		s.gballPool.Put(gb)
	})
	srvutil.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) affected(gb *shortest.GraphBall, horizon int, req Op) nodeset.Set {
	switch req.Kind {
	case OpEdgeInsert, OpEdgeDelete:
		return EdgeAffected(gb, s.replica, req.From, req.To, horizon)
	case OpNodeDelete:
		return NodeAffected(gb, s.replica, req.Node,
			s.replica.Out(req.Node), s.replica.In(req.Node), horizon)
	}
	return nil
}
