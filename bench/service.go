package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"smtavf/internal/avf"
	"smtavf/internal/campaign"
	"smtavf/internal/core"
	"smtavf/internal/obs"
)

// The service workload is one avfd session per rep: a fresh store holding
// the pre-seeded completed campaigns, avfd started on it (set-up ends at
// the first 200 from /readyz, after the store resumed), a fixed sequence
// of one-point campaigns driven by closed-loop clients, then SIGTERM.

const (
	serviceWorkers = 2 // avfd -workers
	serviceClients = 2 // closed-loop HTTP clients, one connection each
)

var (
	serviceMixes    = []string{"2ctx-CPU-A", "2ctx-MIX-A", "2ctx-MEM-A", "4ctx-MIX-A"}
	servicePolicies = []string{"ICOUNT", "FLUSH", "STALL", "DG"}
)

type serviceWorkload struct {
	e        *env
	rec      *record
	points   []campaign.Spec
	seeded   campaign.Spec
	template *campaign.Result // the seeded campaigns' stored result

	// Pooled over sessions, for the campaign layer metrics.
	costs    []pointCost
	execS    float64 // summed point execution time
	wallS    float64 // summed session walls
	resultB  []float64
	pointsPS []float64
}

func newServiceWorkload(e *env) *serviceWorkload {
	w := &serviceWorkload{e: e, rec: newRecord("service"), points: servicePoints(e.seed, e.sz)}
	w.seeded = campaign.Spec{V: campaign.SpecVersion, Mix: serviceMixes[0], Policy: servicePolicies[0], Seed: 1,
		Instructions: e.sz.PointInstr, Warmup: e.sz.PointWarmup}
	w.template = seededResult(w.seeded)
	return w
}

// seededResult is the stored result of every pre-seeded campaign. Resume
// only parses it, so it needs a real result's shape, not its numbers.
func seededResult(spec campaign.Spec) *campaign.Result {
	res := &campaign.Result{
		V: campaign.ResultVersion, Kind: campaign.KindRun, Title: spec.Mix, Workload: spec.Mix,
		Policy: spec.Policy, Seed: spec.Seed, Status: obs.StatusOK,
		Cycles: spec.Instructions / 2, Instructions: spec.Instructions, IPC: 2, ProcessorAVF: 0.125,
		AVF: map[string]float64{},
	}
	for i, s := range avf.Structs() {
		res.AVF[s.String()] = 1 / float64(i+3)
	}
	return res
}

func (w *serviceWorkload) record() *record { return w.rec }

// setup has nothing to prepare up front: every session starts its own
// avfd, and that start-up is the workload's set-up sample.
func (w *serviceWorkload) setup() error { return nil }

// servicePoints draws the session's point sequence from the workload seed:
// blocks of all 16 mix × policy pairs, each block shuffled, each point
// with its own simulation seed. Whole blocks keep every seed's mix of slow
// and fast points identical.
func servicePoints(seed uint64, sz sizes) []campaign.Spec {
	rng := splitmix(seed)
	var combos [][2]string
	for _, m := range serviceMixes {
		for _, p := range servicePolicies {
			combos = append(combos, [2]string{m, p})
		}
	}
	points := make([]campaign.Spec, 0, sz.Points)
	for len(points) < sz.Points {
		for i := len(combos) - 1; i > 0; i-- {
			j := int(rng() % uint64(i+1))
			combos[i], combos[j] = combos[j], combos[i]
		}
		for _, c := range combos {
			points = append(points, campaign.Spec{
				V: campaign.SpecVersion, Mix: c[0], Policy: c[1], Seed: 1 + rng()%1_000_000,
				Instructions: sz.PointInstr, Warmup: sz.PointWarmup,
			})
		}
	}
	return points[:sz.Points]
}

// splitmix returns a SplitMix64 generator: small, seedable and stable.
func splitmix(seed uint64) func() uint64 {
	x := seed
	return func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

func (w *serviceWorkload) rep() (float64, error) { return w.session(nil) }

// traced runs an untraced session for reference, then one whose points
// become spans: the client's request, POST round trip, and stream delivery
// around the execution window avfd's ledger manifest records.
func (w *serviceWorkload) traced(t *traceRun) error {
	var err error
	if t.untracedS, err = w.session(nil); err != nil {
		return err
	}
	t.calibMS = calibrate()
	// Concurrent points are separate root spans, so the traced wall is the
	// session's, not their sum.
	if t.tracedS, err = w.session(t); err != nil {
		return err
	}
	// core.New of each point configuration, outside the spans: the
	// service's executor builds one processor per point.
	for _, m := range serviceMixes {
		for _, p := range servicePolicies {
			rv, err := campaign.Spec{Mix: m, Policy: p, Instructions: w.e.sz.PointInstr, Warmup: w.e.sz.PointWarmup}.Resolve(campaign.Defaults{Seed: 1})
			if err != nil {
				return err
			}
			_, d, err := build(rv)
			if err != nil {
				return err
			}
			t.addNew(d)
		}
	}
	return nil
}

// session runs one avfd session and returns its wall time, first POST to
// last result. With t non-nil every point becomes a span.
func (w *serviceWorkload) session(t *traceRun) (float64, error) {
	r, e := w.rec, w.e
	r.reps++
	dir := filepath.Join(e.work, fmt.Sprintf("service-%d", r.reps))
	defer os.RemoveAll(dir)
	store, ledger := filepath.Join(dir, "store"), filepath.Join(dir, "runs.jsonl")
	if err := w.seedStore(store); err != nil {
		return 0, fmt.Errorf("seeding the store: %w", err)
	}
	calib := calibrate()

	d, setupS, err := e.startDaemon(dir, store, ledger)
	if err != nil {
		return 0, err
	}
	recs := w.drive(e.ctx, d.addr)
	rssMB, stopErr := d.stop()
	if stopErr != nil {
		return 0, stopErr
	}
	if err := e.ctx.Err(); err != nil {
		return 0, err
	}
	manifests, err := obs.ReadLedger(ledger)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("reading the avfd ledger: %w", err)
	}
	joined := join(recs, manifests)

	var first, last time.Time
	ok := 0
	for i, rc := range recs {
		r.attempted++
		var perr error
		switch {
		case rc.Err != nil:
			perr = rc.Err
		case !joined[i].ok:
			perr = fmt.Errorf("campaign %s has no campaign-point manifest in the ledger", rc.ID)
		default:
			perr = checkPoint(w.points[i], rc.Result)
		}
		if perr != nil {
			r.failf(e.out, "point %d (%s %s) session %d: %v", i, w.points[i].Mix, w.points[i].Policy, r.reps, perr)
			continue
		}
		ok++
		if first.IsZero() || rc.Sent.Before(first) {
			first = rc.Sent
		}
		if rc.Received.After(last) {
			last = rc.Received
		}
		r.addOp("point", joined[i].cost.Latency)
		w.costs = append(w.costs, joined[i].cost)
		w.execS += joined[i].cost.Exec / 1e3
		w.resultB = append(w.resultB, float64(rc.Bytes))
		if t != nil {
			root := t.tr.add(0, rc.ID, "campaign", "point", rc.Sent, rc.Received)
			t.tr.add(root, rc.ID, "campaign", "POST /v1/campaigns", rc.Sent, rc.Accepted)
			t.tr.add(root, rc.ID, "core", "executor", joined[i].start, joined[i].end)
			t.tr.add(root, rc.ID, "campaign", "stream delivery", joined[i].end, rc.Received)
			t.count(&core.Results{Total: rc.Result.Instructions, Cycles: rc.Result.Cycles}, w.points[i].Warmup)
		}
	}
	r.checkDigest(e, "points", pointsDigest(w.points, recs), fmt.Sprintf("session %d", r.reps))
	wall := last.Sub(first).Seconds()
	fmt.Fprintf(e.out, "service rep %d wall_s %.4f points %d setup_s %.4f peak_rss_mb %.1f host.calib_ms %.1f\n",
		r.reps, wall, ok, setupS, rssMB, calib)
	if ok == len(recs) {
		r.walls = append(r.walls, wall)
		r.rss = append(r.rss, rssMB)
		r.setups = append(r.setups, setupS)
		r.calib = append(r.calib, calib)
		w.wallS += wall
		w.pointsPS = append(w.pointsPS, float64(ok)/wall)
	}
	w.setLayers()
	return wall, nil
}

// setLayers recomputes the campaign layer metrics from every session so
// far; the tail percentile rises as points accumulate.
func (w *serviceWorkload) setLayers() {
	l := w.rec.layers
	for k := range l {
		if layerOf(k) == "campaign" {
			delete(l, k)
		}
	}
	pick := func(f func(pointCost) float64) []float64 {
		xs := make([]float64, len(w.costs))
		for i, c := range w.costs {
			xs[i] = f(c)
		}
		return xs
	}
	for _, part := range []struct {
		name string
		f    func(pointCost) float64
	}{
		{"submit_ms", func(c pointCost) float64 { return c.Submit }},
		{"queue_ms", func(c pointCost) float64 { return c.Queue }},
		{"exec_ms", func(c pointCost) float64 { return c.Exec }},
		{"deliver_ms", func(c pointCost) float64 { return c.Deliver }},
	} {
		xs := pick(part.f)
		l["campaign."+part.name+".p50"] = metric{Value: summarize(xs, "ms").Median, Unit: "ms"}
		if label, v, ok := tail(xs); ok {
			l["campaign."+part.name+"."+label] = metric{Value: v, Unit: "ms"}
		}
	}
	if label, v, ok := tail(pick(func(c pointCost) float64 { return c.Latency })); ok {
		l["campaign.point_latency_ms."+label] = metric{Value: v, Unit: "ms"}
	}
	if w.wallS > 0 {
		l["campaign.worker_busy_ratio"] = metric{Value: w.execS / (serviceWorkers * w.wallS), Unit: "ratio"}
	}
	l["campaign.result_bytes"] = metric{Value: summarize(w.resultB, "bytes").Median, Unit: "bytes"}
	l["campaign.avfd_rss_mb"] = metric{Value: summarize(w.rec.rss, "MB").Median, Unit: "MB"}
	l["campaign.points_per_s"] = metric{Value: summarize(w.pointsPS, "1/s").Median, Unit: "1/s"}
}

// seedStore writes the pre-seeded completed one-point campaigns through
// campaign.Store, the way avfd persists them.
func (w *serviceWorkload) seedStore(dir string) error {
	st, err := campaign.NewStore(dir)
	if err != nil {
		return err
	}
	issued := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < w.e.sz.Seeded; i++ {
		id := fmt.Sprintf("20200101T000000-%08x", i)
		if err := st.Create(id, "seeded", issued, []campaign.Spec{w.seeded}); err != nil {
			return err
		}
		res := *w.template
		res.V, res.Point, res.Campaign = campaign.ResultVersion, 0, id
		if err := st.AppendResult(id, &res); err != nil {
			return err
		}
	}
	return nil
}

// daemon is a running avfd.
type daemon struct {
	l       *launched
	addr    string
	stderr  bytes.Buffer // read only once exited is closed
	exited  chan struct{}
	exit    exit
	waitErr error
}

// startDaemon starts avfd on store and returns once /readyz answers 200,
// with the seconds from the program's start to then.
func (e *env) startDaemon(dir, store, ledger string) (*daemon, float64, error) {
	d := &daemon{exited: make(chan struct{})}
	l, err := e.start(dir, nil, &d.stderr, "avfd", "-addr", "127.0.0.1:0", "-dir", store,
		"-workers", strconv.Itoa(serviceWorkers), "-obs-ledger", ledger, "-log-level", "warn")
	if err != nil {
		return nil, 0, fmt.Errorf("starting avfd: %w: %s", err, lastLine(d.stderr.String()))
	}
	d.l = l
	go func() {
		d.exit, d.waitErr = l.wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	addrFile := filepath.Join(store, "avfd.addr")
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("avfd exited during start-up: %v (exit %d): %s", d.waitErr, d.exit.code, lastLine(d.stderr.String()))
		case <-e.ctx.Done():
			_, _ = d.stop()
			return nil, 0, e.ctx.Err()
		default:
		}
		if d.addr == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.addr = strings.TrimSpace(string(b))
			}
		}
		if d.addr != "" {
			if resp, err := probe.Get("http://" + d.addr + "/readyz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(l.start).Seconds(), nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for avfd to exit, and returns its peak RSS.
// Exit status 130 is avfd's documented drain status, not a failure.
func (d *daemon) stop() (float64, error) {
	_ = d.l.cmd.Process.Signal(syscall.SIGTERM) // the launcher forwards it
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.l.cmd.Process.Kill() // and avfd gets SIGKILL as the launcher dies
		<-d.exited
		return 0, errors.New("avfd still running 20s after SIGTERM")
	}
	if d.waitErr != nil || (d.exit.code != 130 && d.exit.code != 0) {
		return 0, fmt.Errorf("avfd: %v (exit %d): %s", d.waitErr, d.exit.code, lastLine(d.stderr.String()))
	}
	return d.exit.rssMB, nil
}

// pointRecord is one point as its client saw it.
type pointRecord struct {
	ID       string
	Sent     time.Time // POST issued
	Accepted time.Time // 202 read
	Received time.Time // result line read from the stream
	Bytes    int
	Result   *campaign.Result
	Err      error
}

// drive runs the points through serviceClients closed-loop clients: each
// submits its next point only after the previous one's result arrived.
func (w *serviceWorkload) drive(ctx context.Context, addr string) []pointRecord {
	tr := &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	recs := make([]pointRecord, len(w.points))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(recs) {
					return
				}
				recs[i] = runPoint(ctx, hc, "http://"+addr, i, w.points[i])
			}
		}()
	}
	wg.Wait()
	return recs
}

// runPoint submits one one-point campaign and reads its stream until the
// result line arrives.
func runPoint(ctx context.Context, hc *http.Client, base string, i int, spec campaign.Spec) (rc pointRecord) {
	body, err := json.Marshal(campaign.Matrix{V: campaign.SpecVersion, Name: fmt.Sprintf("bench-%04d", i), Base: spec})
	if err != nil {
		rc.Err = err
		return rc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		rc.Err = err
		return rc
	}
	req.Header.Set("Content-Type", "application/json")
	rc.Sent = time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		rc.Err = fmt.Errorf("submit: %w", err)
		return rc
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rc.Accepted = time.Now()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		rc.Err = fmt.Errorf("submit: HTTP %d %v: %s", resp.StatusCode, err, bytes.TrimSpace(data))
		return rc
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" {
		rc.Err = fmt.Errorf("submit: bad reply %q", data)
		return rc
	}
	rc.ID = acc.ID

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/campaigns/"+acc.ID+"/stream", nil)
	if err != nil {
		rc.Err = err
		return rc
	}
	resp, err = hc.Do(req)
	if err != nil {
		rc.Err = fmt.Errorf("stream: %w", err)
		return rc
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rc.Err = fmt.Errorf("stream: HTTP %d", resp.StatusCode)
		return rc
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	rc.Received = time.Now()
	if err != nil {
		rc.Err = fmt.Errorf("stream: %w", err)
		return rc
	}
	_, _ = io.Copy(io.Discard, br) // the stream ends once the campaign is complete
	rc.Bytes = len(line)
	var res campaign.Result
	if err := json.Unmarshal(line, &res); err != nil {
		rc.Err = fmt.Errorf("stream: %w", err)
		return rc
	}
	rc.Result = &res
	return rc
}

// pointCost splits one point's latency, in milliseconds, by joining the
// client's timestamps with avfd's campaign-point manifest.
type pointCost struct {
	Submit  float64 // POST round trip
	Queue   float64 // POST issued → manifest start
	Exec    float64 // manifest wall_seconds
	Deliver float64 // manifest end → result line at the client
	Latency float64 // POST issued → result line at the client
}

type joinedPoint struct {
	cost       pointCost
	start, end time.Time // the manifest's execution window
	ok         bool
}

// join matches each client record to the campaign-point manifest avfd
// wrote for its campaign ID. A record with no manifest, or one its client
// saw fail, is not ok: it counts as a failed op.
func join(recs []pointRecord, ms []obs.RunManifest) []joinedPoint {
	byID := make(map[string]*obs.RunManifest, len(ms))
	for i := range ms {
		if m := &ms[i]; m.Kind == "campaign-point" {
			byID[m.Extra["campaign"]] = m
		}
	}
	out := make([]joinedPoint, len(recs))
	for i, rc := range recs {
		m := byID[rc.ID]
		if rc.Err != nil || m == nil {
			continue
		}
		start, err1 := time.Parse(time.RFC3339Nano, m.Start)
		end, err2 := time.Parse(time.RFC3339Nano, m.End)
		if err1 != nil || err2 != nil {
			continue
		}
		ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
		out[i] = joinedPoint{
			cost: pointCost{
				Submit:  ms(rc.Accepted.Sub(rc.Sent)),
				Queue:   ms(start.Sub(rc.Sent)),
				Exec:    m.WallSeconds * 1e3,
				Deliver: ms(rc.Received.Sub(end)),
				Latency: ms(rc.Received.Sub(rc.Sent)),
			},
			start: start, end: end, ok: true,
		}
	}
	return out
}

// checkPoint validates one result against the point that asked for it.
func checkPoint(p campaign.Spec, r *campaign.Result) error {
	switch {
	case r.Status != obs.StatusOK:
		return fmt.Errorf("status %q: %s", r.Status, r.Error)
	case r.Workload != p.Mix || r.Policy != p.Policy || r.Seed != p.Seed:
		return fmt.Errorf("result is for %s/%s seed %d", r.Workload, r.Policy, r.Seed)
	case r.Instructions < p.Instructions || r.Cycles == 0:
		return fmt.Errorf("%d instructions in %d cycles, asked for %d instructions", r.Instructions, r.Cycles, p.Instructions)
	}
	for _, s := range avf.Structs() {
		v, ok := r.AVF[s.String()]
		if !ok || math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("AVF[%s] = %v", s, v)
		}
	}
	return nil
}

// pointsDigest hashes the session's results in point order: spec, cycles,
// instructions and AVF map, never campaign IDs or times.
func pointsDigest(points []campaign.Spec, recs []pointRecord) string {
	h := sha256.New()
	for i, p := range points {
		r := recs[i].Result
		if r == nil {
			fmt.Fprintf(h, "%d missing\n", i)
			continue
		}
		fmt.Fprintf(h, "%d %s %s %d %d %d %d %d", i, p.Mix, p.Policy, p.Seed, p.Instructions, p.Warmup, r.Cycles, r.Instructions)
		for _, s := range avf.Structs() {
			fmt.Fprintf(h, " %s=%s", s, strconv.FormatFloat(r.AVF[s.String()], 'g', -1, 64))
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}
