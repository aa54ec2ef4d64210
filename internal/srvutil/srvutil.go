// Package srvutil holds the HTTP serving plumbing the repository's
// server binaries (gpnm-serve, gpnm-shard) share: an http.Server with
// signal-driven graceful shutdown, so in-flight requests — long-polls
// and ApplyBatch in particular — drain instead of being severed.
package srvutil

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the DefaultServeMux StartPprof serves
	"os"
	"os/signal"
	"syscall"
	"time"
)

// StartPprof serves net/http/pprof on its own listener when addr is
// non-empty — the opt-in -pprof flag of gpnm-serve and gpnm-shard. It
// is deliberately a separate listener: the profiling surface never
// mounts on the public API port, so exposing one is an explicit
// operator decision per address. Returns immediately; serving errors
// (bad addr, port taken) are logged, not fatal — a broken profiler
// must not take the serving process down with it.
func StartPprof(addr, name string, logw io.Writer) {
	if addr == "" {
		return
	}
	if logw != nil {
		fmt.Fprintf(logw, "%s: pprof listening on %s (http://%s/debug/pprof/)\n", name, addr, addr)
	}
	go func() {
		// nil handler = http.DefaultServeMux, where the pprof import
		// registered its handlers.
		if err := http.ListenAndServe(addr, nil); err != nil && logw != nil {
			fmt.Fprintf(logw, "%s: pprof server: %v\n", name, err)
		}
	}()
}

// WriteJSON renders v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError renders the repository's uniform JSON error shape.
func WriteError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Decode parses the request body as JSON into v, answering a 400 and
// reporting false on malformed input.
func Decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad JSON body: %v", err)
		return false
	}
	return true
}

// The server-side timeouts both binaries share. Neither bounds a whole
// request: long-polls park for up to their poll window and a shard
// /build streams the whole graph, so only the header read and idle
// keep-alive connections are bounded.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// ListenAndServe serves h on addr until the process receives SIGINT or
// SIGTERM, then shuts down gracefully: the listener closes immediately
// (health checks start failing, so load balancers drain), and in-flight
// requests get up to grace to finish before the server is torn down.
// name prefixes the log lines written to logw (nil silences them).
//
// It returns nil on a clean signal-driven shutdown and the serve/
// shutdown error otherwise.
func ListenAndServe(addr string, h http.Handler, name string, grace time.Duration, logw io.Writer) error {
	return ListenAndServeUntil(addr, h, name, grace, logw, nil)
}

// ListenAndServeUntil is ListenAndServe with an additional programmatic
// shutdown trigger: closing stop starts the same graceful drain a
// SIGTERM would — the listener closes, request contexts are cancelled
// so parked long-polls answer immediately, and in-flight requests get
// the grace window. gpnm-serve uses it to drain cleanly when the hub
// loses a substrate shard mid-batch, instead of the old recover-and-
// os.Exit path that severed every open connection. A nil stop behaves
// exactly like ListenAndServe.
func ListenAndServeUntil(addr string, h http.Handler, name string, grace time.Duration, logw io.Writer, stop <-chan struct{}) error {
	if grace <= 0 {
		grace = 30 * time.Second
	}
	logf := func(format string, args ...interface{}) {
		if logw != nil {
			fmt.Fprintf(logw, name+": "+format+"\n", args...)
		}
	}
	// Request contexts derive from baseCtx; cancelling it at shutdown
	// unblocks in-flight long-polls immediately (http.Server.Shutdown
	// alone never cancels request contexts, so a poller sitting in a
	// 30s wait would otherwise out-wait any shorter grace window and
	// turn a clean SIGTERM into a forced-shutdown error).
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	why := "signal"
	select {
	case err := <-errc:
		return err // bind failure or serve error before any signal
	case <-ctx.Done():
	case <-stop:
		why = "stop requested"
	}
	stopSignals() // restore default signal behaviour: a second ^C kills hard
	logf("shutting down (%s), draining for up to %s", why, grace)
	cancelBase() // wake long-polls so the drain takes ms, not a poll window

	sdCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(sdCtx); err != nil {
		logf("forced shutdown: %v", err)
		_ = srv.Close()
		return err
	}
	logf("drained cleanly")
	return <-errc
}
