package cliopts

import (
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Shutdown coordinates graceful exit for the commands: exporters and
// other closers registered with Defer run exactly once — LIFO, like
// defer — whether the process finishes normally (Finish) or catches
// SIGINT/SIGTERM (Install's handler). The interrupt path exists so a ^C
// during a long campaign flushes the telemetry/pipetrace/propagation
// streams (instead of truncating a gzip member mid-block) and writes the
// run ledger's manifest with status "interrupted" before exiting.
type Shutdown struct {
	mu      sync.Mutex
	closers []namedCloser
	final   func(status string)
	done    bool
}

type namedCloser struct {
	name string
	fn   func() error
}

// Defer registers a named closer to run at shutdown, after every closer
// registered later (LIFO). Errors are logged, not fatal: shutdown keeps
// draining the remaining closers.
func (s *Shutdown) Defer(name string, fn func() error) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.closers = append(s.closers, namedCloser{name, fn})
	s.mu.Unlock()
}

// Final registers the last rites: a function receiving the exit status
// ("ok" or "interrupted") after every closer has run — the run-manifest
// append, which must see the artifact files already flushed.
func (s *Shutdown) Final(fn func(status string)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.final = fn
	s.mu.Unlock()
}

// run drains the closers (LIFO) and the final hook registered so far.
// With last set it also disarms s, so later calls are no-ops.
func (s *Shutdown) run(status string, logger *slog.Logger, last bool) {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = last
	closers, final := s.closers, s.final
	s.closers, s.final = nil, nil
	s.mu.Unlock()

	for i := len(closers) - 1; i >= 0; i-- {
		if err := closers[i].fn(); err != nil && logger != nil {
			logger.Error("shutdown close", "what", closers[i].name, "err", err)
		}
	}
	if final != nil {
		final(status)
	}
}

// Done reports whether shutdown has already run — via Finish or the
// signal handler. A server's main goroutine checks it when its listener
// closes: if the signal path is mid-exit, returning from main would race
// it to the process exit code.
func (s *Shutdown) Done() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Install starts the signal handler: on SIGINT or SIGTERM the registered
// closers are flushed, the final hook runs with status "interrupted", and
// the process exits 130 (the shell convention for death-by-SIGINT). Call
// once, before the long-running work begins.
func (s *Shutdown) Install(logger *slog.Logger) {
	if s == nil {
		return
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-ch
		if logger != nil {
			logger.Warn("interrupted, flushing exporters", "signal", sig.String())
		}
		s.run("interrupted", logger, true)
		os.Exit(130)
	}()
}

// Finish runs the closers and the final hook with the given status
// ("ok", or "error" when the run failed) on the normal exit path. Calling
// it after the signal handler already ran is a no-op, and vice versa.
func (s *Shutdown) Finish(status string, logger *slog.Logger) {
	if s == nil {
		return
	}
	s.run(status, logger, true)
}

// Flush ends one run of a command that executes several: it runs the
// closers and final hook registered so far with the given status, then
// leaves s armed for the next run's registrations. An interrupt between
// runs therefore flushes only the run in flight.
func (s *Shutdown) Flush(status string, logger *slog.Logger) {
	if s == nil {
		return
	}
	s.run(status, logger, false)
}
