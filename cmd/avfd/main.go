// Command avfd is the long-running AVF campaign service: an HTTP/JSON
// job API over the same versioned campaign spec the CLIs run, backed by
// a bounded in-process worker pool and a durable per-point result store.
//
// Usage:
//
//	avfd -addr :8080 -dir campaigns/ -workers 2 -obs-ledger campaigns/runs.jsonl
//
//	curl -s localhost:8080/v1/campaigns -d '{"name":"demo","base":{"v":1,"mix":"2ctx-CPU-A","instructions":200000},"policies":["ICOUNT","FLUSH"]}'
//	curl -s localhost:8080/v1/campaigns/<id>
//	curl -N localhost:8080/v1/campaigns/<id>/stream
//	curl -s -X POST localhost:8080/v1/campaigns/<id>/cancel
//
// Endpoints (docs/campaign-service.md):
//
//	POST /v1/campaigns          submit a campaign matrix; 202 {"id","points"}
//	GET  /v1/campaigns          list campaigns
//	GET  /v1/campaigns/{id}     status + per-point results
//	GET  /v1/campaigns/{id}/stream  chunked JSONL: every result exactly once
//	POST /v1/campaigns/{id}/cancel  skip this campaign's queued points
//	GET  /healthz               liveness
//	GET  /readyz                readiness (503 while draining)
//
// Every accepted point is persisted to -dir before it is enqueued and
// its result is persisted before it is streamed, so a killed avfd loses
// at most the points that were mid-execution. On SIGTERM/SIGINT the
// service drains: it stops claiming queued points, appends an
// "interrupted" manifest per unfinished campaign to the -obs-ledger,
// closes the listener, and exits 130. On restart with the same -dir,
// unfinished campaigns resume — only the missing points re-run, and a
// re-attached stream replays the completed results first.
//
// The actual listen address (useful with -addr 127.0.0.1:0) is written
// to <dir>/avfd.addr once the listener is up.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"smtavf/internal/campaign"
	"smtavf/internal/cliopts"
	"smtavf/internal/experiments"
	"smtavf/internal/obs"
)

// shut coordinates graceful exit: drain, listener close, and the final
// log line run exactly once whether avfd exits or catches a signal.
var shut cliopts.Shutdown

// Server timeouts. A client gets readHeaderTimeout to send its request
// headers, so one that never finishes them cannot hold a connection
// forever, and an idle keep-alive connection closes after idleTimeout.
// There is no write timeout: a /stream response lasts a whole campaign.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newServer builds the HTTP server for h with the timeouts above.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		base = flag.Uint64("base", 50_000, "default instruction budget of a 2-context point (4/8 contexts use 2x/4x); a spec's own instructions override it")
		seed = flag.Uint64("seed", 1, "default simulation seed for specs that leave theirs unset")

		svcFlags cliopts.Service
		logFlags cliopts.Log
		prof     cliopts.Profile
		obsFlags cliopts.Obs
	)
	svcFlags.Register(flag.CommandLine)
	logFlags.Register(flag.CommandLine)
	prof.Register(flag.CommandLine)
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	if err := svcFlags.Validate(); err != nil {
		fatal(err)
	}
	if err := obsFlags.Validate(); err != nil {
		fatal(err)
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "avfd:", err)
		}
	}()

	ledger, err := obsFlags.OpenLedger()
	if err != nil {
		fatal(err)
	}

	// One experiments runner backs every point: its Campaign executor
	// resolves specs exactly as avfreport does.
	runner := experiments.NewRunner(experiments.Options{Base: *base, Seed: *seed})
	svc, err := campaign.NewService(campaign.ServiceOptions{
		Dir:      svcFlags.Dir,
		Workers:  svcFlags.Workers,
		Executor: runner.Campaign,
		Ledger:   ledger,
		Logger:   logger,
		Program:  "avfd",
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", svcFlags.Addr)
	if err != nil {
		fatal(err)
	}
	srv := newServer(campaign.NewMux(svc))

	// LIFO drain on exit or signal: mark the service draining and record
	// "interrupted" manifests first, then close the listener (Close, not
	// Shutdown — stream handlers hold connections open for the campaign's
	// lifetime, so a graceful Shutdown would never return).
	shut.Defer("listener", srv.Close)
	shut.Defer("drain", func() error { svc.Interrupt(); return nil })
	shut.Final(func(status string) {
		logger.Info("avfd exiting", "status", status)
	})
	shut.Install(logger)

	// Publish the bound address for clients started against -addr :0.
	addrPath := filepath.Join(svcFlags.Dir, "avfd.addr")
	if err := os.WriteFile(addrPath, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
		fatal(err)
	}
	logger.Info("avfd listening",
		"addr", ln.Addr().String(),
		"dir", svcFlags.Dir,
		"workers", svcFlags.Workers,
		"campaigns", len(svc.List()),
	)

	err = srv.Serve(ln)
	if shut.Done() {
		// The signal handler closed the listener and owns the exit code
		// (130); returning from main here would race it to exit 0.
		select {}
	}
	if err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	shut.Finish(obs.StatusOK, logger)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "avfd:", err)
	shut.Finish(obs.StatusError, nil)
	os.Exit(1)
}
