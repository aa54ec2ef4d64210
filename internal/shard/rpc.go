package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
)

// TransportError is the error an RPC shard returns when the worker
// cannot be reached or answers with an error after retries. The
// coordinator treats it as a shard loss and runs failover (quarantine
// the slot, promote a spare if one is left, retry on the survivors);
// only when no worker survives does it poison the substrate with
// ErrSubstrateLost.
// errors.Is(err, ErrSubstrateLost) and errors.As(err, &te) both work
// on what callers observe from a terminal loss.
type TransportError struct {
	Addr string
	Op   string
	Err  error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("shard %s: %s: %v", e.Addr, e.Op, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// RPC fronts one shard worker process (cmd/gpnm-shard) over HTTP/JSON:
// builds, the epoch-fenced op stream and the batch's affected balls.
// It holds no state beyond its connection pool and is safe for
// concurrent use.
type RPC struct {
	base string
	hc   *http.Client
	obs  *obs.Registry // per-endpoint latency/bytes/retry/failure telemetry
}

// ParseAddrs splits a comma-separated -shards flag value into worker
// addresses, trimming whitespace and dropping empties — the one parser
// every binary taking the flag shares.
func ParseAddrs(spec string) []string {
	var addrs []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// Dial returns a client for the worker at addr ("host:port" or a full
// http:// URL). It performs no I/O; the first call does. Telemetry
// goes to obs.Default; use DialWith to isolate it.
func Dial(addr string) *RPC { return DialWith(addr, obs.Default) }

// DialWith is Dial with the telemetry registry chosen by the caller:
// every remote call records a per-endpoint latency histogram
// (gpnm_rpc_seconds), bytes in/out (gpnm_rpc_bytes_total) and
// retry/failure counters into reg.
func DialWith(addr string, reg *obs.Registry) *RPC {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	if reg == nil {
		reg = obs.Default
	}
	return &RPC{
		base: base,
		// Per-request deadlines are set in post(); the transport is tuned
		// for the engine's fan-out. The zero-value transport keeps only 2
		// idle connections per host, so a parallel phase would re-dial
		// TCP for every call beyond the pair; sizing the idle pool past
		// the worker-pool widths in use keeps the fan on warm connections.
		hc: &http.Client{Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   10 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			MaxIdleConns:          256,
			MaxIdleConnsPerHost:   64,
			IdleConnTimeout:       90 * time.Second,
			TLSHandshakeTimeout:   10 * time.Second,
			ExpectContinueTimeout: time.Second,
		}},
		obs: reg,
	}
}

// reqTimeout picks the deadline for one request. Ball requests and op
// streams are bounded snugly; /build ships and materialises the whole
// data graph, so it gets room to finish on large graphs instead of
// being declared dead (and pointlessly restarted) by a blanket client
// timeout.
func reqTimeout(path string) time.Duration {
	if path == "/build" {
		return time.Hour
	}
	return 5 * time.Minute
}

// Addr returns the worker's base URL.
func (r *RPC) Addr() string { return r.base }

// post sends one JSON request, retrying transient transport failures,
// and decodes the response into out. Worker-side errors (non-2xx) are
// not retried — they signal state divergence, not a flaky network.
// Retrying an /ops whose response was lost is safe: the stream is
// epoch-fenced, so a worker that already applied the epoch acknowledges
// it without re-applying.
func (r *RPC) post(op, path string, in, out interface{}) (err error) {
	// Per-endpoint telemetry: one latency observation per call (retries
	// included — the coordinator waits for the whole thing), bytes as
	// they cross the wire, failure counted once per failed call.
	start := time.Now()
	defer func() {
		r.obs.Histogram("gpnm_rpc_seconds", "endpoint", path).Observe(time.Since(start))
		if err != nil {
			r.obs.Counter("gpnm_rpc_failures_total", "endpoint", path).Inc()
		}
	}()
	body, err := json.Marshal(in)
	if err != nil {
		return &TransportError{Addr: r.base, Op: op, Err: err}
	}
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			r.obs.Counter("gpnm_rpc_retries_total", "endpoint", path).Inc()
			time.Sleep(time.Duration(attempt) * 100 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), reqTimeout(path))
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(body))
		if err != nil {
			cancel()
			return &TransportError{Addr: r.base, Op: op, Err: err}
		}
		req.Header.Set("Content-Type", "application/json")
		r.obs.Counter("gpnm_rpc_bytes_total", "endpoint", path, "direction", "out").Add(uint64(len(body)))
		resp, err := r.hc.Do(req)
		if err != nil {
			cancel()
			last = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		r.obs.Counter("gpnm_rpc_bytes_total", "endpoint", path, "direction", "in").Add(uint64(len(data)))
		if err != nil {
			last = err
			continue
		}
		if resp.StatusCode/100 != 2 {
			return &TransportError{Addr: r.base, Op: op,
				Err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))}
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return &TransportError{Addr: r.base, Op: op, Err: err}
			}
		}
		return nil
	}
	return &TransportError{Addr: r.base, Op: op, Err: last}
}

// Ping probes the worker's /healthz with a short bounded GET and no
// retries — the failover controller calls it to separate dead workers
// from transient faults, so it must answer fast either way.
func (r *RPC) Ping() (err error) {
	start := time.Now()
	defer func() {
		r.obs.Histogram("gpnm_rpc_seconds", "endpoint", "/healthz").Observe(time.Since(start))
		if err != nil {
			r.obs.Counter("gpnm_rpc_failures_total", "endpoint", "/healthz").Inc()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/healthz", nil)
	if err != nil {
		return &TransportError{Addr: r.base, Op: "ping", Err: err}
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return &TransportError{Addr: r.base, Op: "ping", Err: err}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return &TransportError{Addr: r.base, Op: "ping",
			Err: fmt.Errorf("HTTP %d", resp.StatusCode)}
	}
	return nil
}

// Build ships the coordinator's graph snapshot and blocks until the
// worker has materialised its replica.
func (r *RPC) Build(cfg Config, snap Snapshot) error {
	return r.post("build", "/build", buildRequest{Config: cfg, Graph: snap}, nil)
}

// ApplyOps streams one ordered, epoch-fenced op batch to the worker. A
// worker whose state already reflects this epoch (the response was
// lost, or a failover retry re-sent the flush) acknowledges without
// re-applying.
func (r *RPC) ApplyOps(epoch uint64, ops []Op) error {
	return r.post("ops", "/ops", map[string]interface{}{"epoch": epoch, "ops": ops}, nil)
}

// Affected computes conservative balls at the given horizon against the
// worker's data-graph replica.
func (r *RPC) Affected(horizon int, reqs []Op) ([]nodeset.Set, error) {
	var resp affectedResponse
	if err := r.post("affected", "/affected", affectedRequest{Horizon: horizon, Reqs: reqs}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Sets) != len(reqs) {
		return nil, &TransportError{Addr: r.base, Op: "affected",
			Err: fmt.Errorf("worker answered %d sets for %d requests", len(resp.Sets), len(reqs))}
	}
	out := make([]nodeset.Set, len(resp.Sets))
	for i, s := range resp.Sets {
		out[i] = nodeset.Set(s)
	}
	return out, nil
}

// Close drops idle connections; the worker process stays up for the
// next coordinator.
func (r *RPC) Close() error {
	r.hc.CloseIdleConnections()
	return nil
}

var _ Shard = (*RPC)(nil)
