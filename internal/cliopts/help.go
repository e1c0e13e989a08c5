package cliopts

// helpText is the single source of truth for every flag's help string.
// Each Register method looks its strings up here rather than inlining
// them, so two commands registering the same group render identical
// usage text — TestFlagHelpGolden pins the rendered output and fails
// when a flag is added without a table entry or renamed in only one
// place (the drift this package exists to prevent).
var helpText = map[string]string{
	// Log
	"log-level": "structured log level on stderr: debug, info, warn, error",
	"log-json":  "emit structured logs as JSON instead of text",

	// Telemetry
	"telemetry":        "write a cycle-windowed telemetry series to this file (JSONL; .csv for CSV, .gz compresses)",
	"telemetry-window": "telemetry sampling window in cycles",
	"telemetry-dir":    "record one cycle-windowed JSONL series per run into this directory",
	"debug-addr":       "serve /telemetry, /debug/metrics and /debug/pprof on this address during the run (e.g. :6060)",

	// Inject
	"inject":         "attach a statistical fault-injection campaign and cross-validate the AVF report against it",
	"inject-every":   "campaign sample-grid pitch in cycles (1 = every cycle)",
	"inject-seed":    "campaign seed (0 = use -seed)",
	"inject-ci":      "target 99% confidence-interval half-width per structure; striking stops early once every structure is this tight",
	"inject-strikes": "strike cap per structure (0 = CI-only stopping)",
	"inject-report":  "write the cross-validation report as JSONL to this file (.gz compresses)",

	// Propagation
	"propagation":         "taint-track sampled strikes through the recorded dataflow and print the fault-propagation atlas (requires -inject)",
	"propagation-out":     "write the per-strike propagation traces as JSONL to this file (.gz compresses; enables -propagation)",
	"propagation-strikes": "strikes sampled into each structure for taint tracking",
	"propagation-top":     "root-cause instructions shown in the atlas tables",

	// CPIStack
	"cpistack": "attribute every thread-cycle to a CPI-stack component and decompose structure occupancy by ACE fate; prints the stack and occupancy tables",

	// PipeTrace
	"pipetrace":        "record per-uop pipeline lifecycles to this file (.kanata/.kan Kanata, .json Chrome trace_event, else JSONL; .gz compresses)",
	"pipetrace-format": "force the -pipetrace format: kanata, chrome, or jsonl (default: by extension)",
	"pipetrace-window": "record only uops fetched in this cycle window, as START:END (END 0 or absent = unbounded)",
	"pipetrace-top":    "print the top-N per-PC AVF provenance hotspots per pipeline structure (enables recording)",

	// Profile
	"cpuprofile": "write a CPU profile to this file (inspect with go tool pprof)",
	"memprofile": "write an allocation profile to this file at exit (inspect with go tool pprof)",

	// Obs
	"obs-ledger":    "append one run-manifest record per run to this JSONL ledger (list with avfreport -runs)",
	"obs-heartbeat": "minimum wall-clock gap between progress heartbeat log lines (0 disables them)",

	// Service (avfd)
	"addr":    "HTTP listen address for the campaign-service API (e.g. :8080 or 127.0.0.1:0)",
	"dir":     "campaign state directory: submitted specs, per-point result checkpoints, cancel markers; interrupted campaigns found here resume on start",
	"workers": "campaign points executed concurrently",
}

// help returns the canonical help string for a flag, panicking on a
// missing entry so a new flag cannot ship without one (the panic fires
// in every command's TestMain-adjacent flag registration, and in this
// package's golden test).
func help(name string) string {
	s, ok := helpText[name]
	if !ok {
		panic("cliopts: no help text registered for flag -" + name)
	}
	return s
}
