package telemetry

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"

	"smtavf/internal/obs"
)

// DebugServer is the optional live-inspection HTTP server for long
// unattended runs (-debug-addr). It serves:
//
//	/debug/pprof/    the standard Go profiler endpoints
//	/debug/metrics   the obs registry as OpenMetrics/Prometheus text
//	/debug/progress  the progress tracker as JSON
//	/telemetry       the collector's window Snapshot as JSON
//	/telemetry/ring  the collector's retained window series as a JSON array
//
// The server outlives individual runs: a sweep driver starts it once with
// the registry and progress tracker every point shares, and retargets the
// two /telemetry routes at each point's fresh collector with SetCollector.
type DebugServer struct {
	srv  *http.Server
	lis  net.Listener
	reg  *obs.Registry
	prog *obs.Progress
	col  atomic.Pointer[Collector]
}

// SetCollector points /telemetry and /telemetry/ring at a new collector:
// one point of a campaign matrix ended and the next began.
func (d *DebugServer) SetCollector(c *Collector) { d.col.Store(c) }

// ServeDebug starts the debug server on addr (e.g. ":6060") serving reg,
// prog and, when non-nil, the windows of c, and returns once the listener
// is bound. Any of the three may be nil: its routes then serve an empty
// state. The server runs until Close; serve errors after Close are
// swallowed.
func ServeDebug(addr string, reg *obs.Registry, prog *obs.Progress, c *Collector, logger *slog.Logger) (*DebugServer, error) {
	d := &DebugServer{reg: reg, prog: prog}
	d.SetCollector(c)

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.col.Load().Snapshot())
	})
	mux.HandleFunc("/telemetry/ring", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.col.Load().Ring())
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
		if err := d.reg.WriteOpenMetrics(w); err != nil && logger != nil {
			logger.Error("metrics scrape", "err", err)
		}
	})
	mux.HandleFunc("/debug/progress", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.prog.Snapshot())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "smtavf debug server\n\n"+
			"/telemetry       live snapshot (last window, cumulative AVF)\n"+
			"/telemetry/ring  retained window series\n"+
			"/debug/metrics   OpenMetrics exposition of the metrics registry\n"+
			"/debug/progress  live campaign progress (phase, fraction, ETA)\n"+
			"/debug/pprof/    profiler\n")
	})

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug server: %w", err)
	}
	d.srv = &http.Server{Handler: mux}
	d.lis = lis
	go func() {
		err := d.srv.Serve(lis)
		if err != nil && err != http.ErrServerClosed && logger != nil {
			logger.Error("debug server", "err", err)
		}
	}()
	if logger != nil {
		logger.Info("debug server listening", "addr", d.Addr())
	}
	return d, nil
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.lis.Addr().String() }

// Close stops the server immediately.
func (d *DebugServer) Close() error { return d.srv.Close() }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
