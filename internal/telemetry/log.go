package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"strings"

	"smtavf/internal/obs"
)

// NewLogger builds the structured run logger the CLIs share: text or JSON
// handler on w at the given level, with the source location omitted (the
// interesting coordinates are simulation cycles, not file:line).
func NewLogger(w io.Writer, level slog.Level, jsonFormat bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if jsonFormat {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h)
}

// ParseLevel maps a CLI flag value to a slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn, error)", s)
}

// RunManifest logs the one-line run manifest every CLI emits before
// simulating: what is about to run, under which configuration, with
// which seed — enough to reproduce the run from the log alone.
func RunManifest(logger *slog.Logger, program string, cfg any, seed uint64, workloads []string, attrs ...any) {
	if logger == nil {
		return
	}
	args := []any{
		"program", program,
		"config_hash", obs.ConfigDigest(cfg),
		"seed", seed,
		"workloads", strings.Join(workloads, ","),
	}
	args = append(args, attrs...)
	logger.Info("run manifest", args...)
}
