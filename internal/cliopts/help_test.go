package cliopts

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// registerAll binds every flag group this package exports into one
// FlagSet — the superset a command could expose. The golden test renders
// it, so a help-string edit, rename, or new flag shows up as a reviewed
// diff in testdata/flags.golden instead of silently drifting between
// smtsim, avfreport, and avfd.
func registerAll(fs *flag.FlagSet) {
	var (
		l   Log
		tel Telemetry
		inj Inject
		pr  Propagation
		cs  CPIStack
		pt  PipeTrace
		pf  Profile
		o   Obs
		sh  Shards
		svc Service
	)
	l.Register(fs)
	tel.Register(fs)
	tel.RegisterDir(fs)
	inj.Register(fs)
	pr.Register(fs)
	cs.Register(fs)
	pt.Register(fs)
	pf.Register(fs)
	o.Register(fs)
	sh.Register(fs)
	svc.Register(fs)
}

func TestFlagHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("smtavf", flag.ContinueOnError)
	registerAll(fs)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.PrintDefaults()

	golden := filepath.Join("testdata", "flags.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("rendered flag help drifted from %s (re-bless with go test -run TestFlagHelpGolden -update):\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestHelpTableComplete fails when a help-table entry goes stale: every
// key in helpText must correspond to a registered flag, so renaming a
// flag cannot leave its old string behind.
func TestHelpTableComplete(t *testing.T) {
	fs := flag.NewFlagSet("smtavf", flag.ContinueOnError)
	registerAll(fs)
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		registered[f.Name] = true
		if f.Usage != helpText[f.Name] {
			t.Errorf("flag -%s bypasses the help table", f.Name)
		}
	})
	for name := range helpText {
		if !registered[name] {
			t.Errorf("helpText[%q] matches no registered flag", name)
		}
	}
}

// TestHelpPanicsOnUnknownFlag pins the fail-fast contract for new flags.
func TestHelpPanicsOnUnknownFlag(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("help() returned for an unregistered flag name")
		}
	}()
	help("no-such-flag")
}

func TestService(t *testing.T) {
	var svc Service
	parse(t, svc.Register, "-addr", "127.0.0.1:0", "-dir", "state", "-workers", "2")
	if svc.Addr != "127.0.0.1:0" || svc.Dir != "state" || svc.Workers != 2 {
		t.Fatalf("parsed %+v", svc)
	}
	if err := svc.Validate(); err != nil {
		t.Fatal(err)
	}
	var def Service
	parse(t, def.Register)
	if err := def.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	for _, bad := range []Service{
		{Addr: "", Dir: "d", Workers: 1},
		{Addr: ":0", Dir: "", Workers: 1},
		{Addr: ":0", Dir: "d", Workers: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
}
