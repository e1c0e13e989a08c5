package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// launcherEnv, set, makes this binary the launcher: it runs the program
// named by its arguments and reports on file descriptor 3 when the program
// started and, once it exited, its wall time, peak RSS and exit code.
//
// Every measured program starts through the launcher because Linux
// carries the parent's high-water RSS into a vforked child's ru_maxrss:
// started by the driver directly, a program would report the driver's
// peak whenever that is the larger. The launcher stays a few MB.
const launcherEnv = "SMTBENCH_LAUNCHER"

// launch is the launcher's main.
func launch(argv []string) int {
	report := os.NewFile(3, "report")
	if report == nil || len(argv) == 0 {
		fmt.Fprintln(os.Stderr, "launcher: needs a program and report descriptor 3")
		return 2
	}
	runtime.LockOSThread() // Pdeathsig follows the thread that started the child
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "launcher:", err)
		return 127
	}
	fmt.Fprintf(report, "start %d\n", start.UnixNano())
	done := make(chan struct{})
	go func() {
		for {
			select {
			case s := <-sigs:
				_ = cmd.Process.Signal(s) // forwarded: the driver's SIGTERM is for the program
			case <-done:
				return
			}
		}
	}()
	_ = cmd.Wait() // the exit code and usage go to the report
	wall := time.Since(start)
	close(done)
	fmt.Fprintf(report, "end %d %d %d\n", wall.Nanoseconds(), maxRSSKB(cmd.ProcessState), cmd.ProcessState.ExitCode())
	return 0
}

// launched is a program running under the launcher.
type launched struct {
	cmd    *exec.Cmd // the launcher
	report *bufio.Reader
	file   *os.File
	start  time.Time // when the program itself started
}

// start launches one of the built binaries in dir, with its output going
// to stdout and stderr, and returns once it is running.
func (e *env) start(dir string, stdout, stderr io.Writer, name string, args ...string) (*launched, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(e.ctx, self, append([]string{filepath.Join(e.bin, name)}, args...)...)
	cmd.Env = append(os.Environ(), launcherEnv+"=1")
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.ExtraFiles = []*os.File{w}
	// Should the driver die without cleaning up, the launcher dies too,
	// and the program with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		return nil, err
	}
	l := &launched{cmd: cmd, report: bufio.NewReader(r), file: r}
	var ns int64
	if _, err := fmt.Fscanf(l.report, "start %d\n", &ns); err != nil {
		_, _ = l.wait()
		return nil, fmt.Errorf("%s did not start", name)
	}
	l.start = time.Unix(0, ns)
	return l, nil
}

// exit is how a launched program ended.
type exit struct {
	wall  float64 // s
	rssMB float64 // peak resident set (ru_maxrss)
	code  int     // exit code; -1 when a signal ended it
}

// wait waits for the launcher and returns the program's exit report.
func (l *launched) wait() (exit, error) {
	defer l.file.Close()
	var ns, kb int64
	var x exit
	_, scanErr := fmt.Fscanf(l.report, "end %d %d %d\n", &ns, &kb, &x.code)
	if err := l.cmd.Wait(); err != nil {
		return x, err
	}
	if scanErr != nil {
		return x, fmt.Errorf("launcher report: %w", scanErr)
	}
	x.wall, x.rssMB = float64(ns)/1e9, float64(kb)/1024
	return x, nil
}

// child is one finished program invocation.
type child struct {
	exit
	stdout []byte
}

// exec runs one of the built binaries to completion in a fresh working
// directory, so no invocation can reuse files another one left.
func (e *env) exec(name string, args ...string) (child, error) {
	dir, err := os.MkdirTemp(e.work, name+"-")
	if err != nil {
		return child{}, err
	}
	defer os.RemoveAll(dir)
	var stdout, stderr bytes.Buffer
	l, err := e.start(dir, &stdout, &stderr, name, args...)
	if err == nil {
		var x exit
		x, err = l.wait()
		if err == nil && x.code != 0 {
			err = fmt.Errorf("exit status %d", x.code)
		}
		if err == nil {
			return child{exit: x, stdout: stdout.Bytes()}, nil
		}
	}
	return child{}, fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, lastLine(stderr.String()))
}

// maxRSSKB reads a finished process's peak resident set size (Linux
// reports ru_maxrss in KiB).
func maxRSSKB(ps *os.ProcessState) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// calibBuf is hashed by calibrate. It stays small, so the driver's heap
// does too, and set-up samples reuse memory the cache holds.
var calibBuf = make([]byte, 1<<20)

// calibrate times a fixed single-goroutine CPU loop, SHA-256 over 64 MiB
// (one MiB, 64 times), in milliseconds. It is recorded before every rep so
// host drift shows next to the numbers it would distort; no verdict
// depends on it.
func calibrate() float64 {
	start := time.Now()
	h := sha256.New()
	for i := 0; i < 64; i++ {
		h.Write(calibBuf)
	}
	h.Sum(nil)
	return float64(time.Since(start).Microseconds()) / 1e3
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestsJSON pins each op's output digest for seed 1 at defaultSizes.
//
//go:embed digests.json
var digestsJSON []byte

type pinFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// pinnedDigest returns the pinned digest of "workload/op" when the run's
// seed and sizes are the pinned ones.
func pinnedDigest(e *env, key string) (string, bool) {
	var p pinFile
	if err := json.Unmarshal(digestsJSON, &p); err != nil || e.seed != p.Seed || e.sz != defaultSizes {
		return "", false
	}
	d, ok := p.Digests[key]
	return d, ok
}
