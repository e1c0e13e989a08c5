package campaign

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"smtavf/internal/obs"
)

// Executor runs one campaign point to completion. The service treats it
// as a black box; cmd/avfd plugs in an experiments.Runner-backed one and
// tests plug in fakes.
type Executor func(Spec) (*Result, error)

// ErrDraining rejects submissions while the service shuts down.
var ErrDraining = errors.New("campaign: service is draining")

// ErrUnknownCampaign reports a lookup of an ID the store has never seen.
var ErrUnknownCampaign = errors.New("campaign: unknown campaign")

// ServiceOptions configures NewService.
type ServiceOptions struct {
	// Dir is the store root (required).
	Dir string
	// Workers bounds concurrent point executions (default 1).
	Workers int
	// Executor runs points (required).
	Executor Executor
	// Ledger, when non-nil, receives one "campaign-point" manifest per
	// executed point and one campaign-level manifest per terminal
	// transition (ok / cancelled / interrupted).
	Ledger *obs.Ledger
	// Logger defaults to slog.Default().
	Logger *slog.Logger
	// Program names the service in manifests (default "avfd").
	Program string
}

// Service owns the campaign lifecycle: submission, a bounded worker pool,
// durable per-point results, streaming subscribers, cancellation, drain,
// and restart resume. All state transitions are re-derived from the Store
// on startup, so the in-memory view is a cache, never the truth.
type Service struct {
	opts  ServiceOptions
	store *Store
	log   *slog.Logger

	mu        sync.Mutex
	campaigns map[string]*campaignState
	draining  bool

	jobs chan job
	quit chan struct{}
	wg   sync.WaitGroup
}

// job is one queued point. It names its campaign and point index rather
// than copying the spec, so a queue sized to a large resume backlog stays
// small.
type job struct {
	c     *campaignState
	point int
}

// queueSlots is the job queue's minimum capacity, room for four maximal
// submissions before Submit waits; NewService raises it to the resume
// backlog.
const queueSlots = 4 * MaxPoints

// campaignState is the in-memory view of one campaign.
type campaignState struct {
	id        string
	name      string
	issued    time.Time
	points    []Spec
	results   map[int]*Result
	refused   map[int]string // points that fail with this reason instead of running
	cancelled bool
	resumed   bool
	finished  bool // terminal manifest written
	subs      map[chan *Result]struct{}
	done      chan struct{} // closed when every point has a result
}

func (c *campaignState) complete() bool {
	return len(c.results) >= len(c.points)
}

// NewService opens the store, resumes every incomplete campaign, and
// starts the worker pool.
func NewService(opts ServiceOptions) (*Service, error) {
	if opts.Executor == nil {
		return nil, errors.New("campaign: service needs an executor")
	}
	store, err := NewStore(opts.Dir)
	if err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Program == "" {
		opts.Program = "avfd"
	}
	log := opts.Logger
	if log == nil {
		log = slog.Default()
	}
	s := &Service{
		opts:      opts,
		store:     store,
		log:       log,
		campaigns: make(map[string]*campaignState),
		quit:      make(chan struct{}),
	}
	pending, err := s.resume()
	if err != nil {
		return nil, err
	}
	// The queue holds the whole resume backlog, so these sends complete
	// before any worker starts. Past the backlog a full queue blocks
	// Submit, which is the service's back-pressure.
	s.jobs = make(chan job, max(queueSlots, len(pending)))
	for _, j := range pending {
		s.jobs <- j
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// resume reloads every stored campaign and returns the points with no
// durable result, in store order, for NewService to enqueue. Completed
// points are never re-executed, so each point lands in the results stream
// and the run ledger exactly once across any number of restarts.
func (s *Service) resume() ([]job, error) {
	ids, err := s.store.List()
	if err != nil {
		return nil, err
	}
	var pending []job
	for _, id := range ids {
		lc, err := s.store.Load(id)
		if err != nil {
			s.log.Warn("campaign: skipping unloadable campaign", "id", id, "err", err)
			continue
		}
		c := &campaignState{
			id:        lc.ID,
			name:      lc.Name,
			issued:    lc.Issued,
			points:    lc.Points,
			results:   lc.Results,
			refused:   lc.Refused,
			cancelled: lc.Cancelled,
			subs:      make(map[chan *Result]struct{}),
			done:      make(chan struct{}),
		}
		s.campaigns[id] = c
		if c.complete() || c.cancelled {
			close(c.done)
			c.finished = true // terminal manifest was this campaign's previous life's job
			continue
		}
		c.resumed = true
		n := len(pending)
		for i := range c.points {
			if _, done := c.results[i]; !done {
				pending = append(pending, job{c: c, point: i})
			}
		}
		s.log.Info("campaign: resuming", "id", id, "pending", len(pending)-n, "done", len(c.results))
	}
	return pending, nil
}

// Submit expands a matrix, persists it, and enqueues its points.
func (s *Service) Submit(m Matrix, now time.Time) (string, []Spec, error) {
	points, err := m.Points()
	if err != nil {
		return "", nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return "", nil, ErrDraining
	}
	id := NewID(now)
	c := &campaignState{
		id:      id,
		name:    m.Name,
		issued:  now.UTC(),
		points:  points,
		results: make(map[int]*Result),
		subs:    make(map[chan *Result]struct{}),
		done:    make(chan struct{}),
	}
	s.campaigns[id] = c
	s.mu.Unlock()

	if err := s.store.Create(id, m.Name, now, points); err != nil {
		s.mu.Lock()
		delete(s.campaigns, id)
		s.mu.Unlock()
		return "", nil, err
	}
	for i := range points {
		s.jobs <- job{c: c, point: i}
	}
	s.log.Info("campaign: submitted", "id", id, "points", len(points))
	return id, points, nil
}

// worker drains the job queue until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.jobs:
			s.execute(j)
		}
	}
}

// execute runs one point unless its campaign is cancelled, already has a
// durable result for the point, or the service is draining. A refused
// point fails with its reason instead of running; its error result is
// stored, streamed and recorded like any other.
func (s *Service) execute(j job) {
	c := j.c
	s.mu.Lock()
	skip := c.cancelled || s.draining
	if !skip {
		_, skip = c.results[j.point]
	}
	s.mu.Unlock()
	if skip {
		return
	}

	spec := c.points[j.point]
	start := time.Now()
	var (
		res *Result
		err error
	)
	if reason, ok := c.refused[j.point]; ok {
		err = errors.New(reason)
	} else {
		res, err = s.opts.Executor(spec)
	}
	if err != nil || res == nil {
		if err == nil {
			err = errors.New("campaign: executor returned no result")
		}
		res = Err(spec, err)
	}
	res.V = ResultVersion
	res.Point = j.point
	res.Campaign = c.id
	if res.Status == "" {
		res.Status = obs.StatusOK
	}

	if perr := s.store.AppendResult(c.id, res); perr != nil {
		// A result the store does not hold re-runs after a restart, so
		// the point must not read as done: it fails visibly instead.
		s.log.Error("campaign: persisting result", "id", c.id, "point", j.point, "err", perr)
		msg := "campaign: persisting result: " + perr.Error()
		if res.Error != "" {
			msg = res.Error + "; " + msg
		}
		res.Status, res.Error = obs.StatusError, msg
	}
	s.appendPointManifest(j, res, start)

	s.mu.Lock()
	c.results[j.point] = res
	for sub := range c.subs {
		select {
		case sub <- res:
		default: // the subscriber's buffer covers every point; a full one is gone
		}
	}
	finished := c.complete() && !c.finished
	var manifest *obs.RunManifest
	if finished {
		c.finished = true
		manifest = s.campaignManifest(c, obs.StatusOK)
	}
	resumed := c.resumed
	s.mu.Unlock()

	if finished {
		// The "ok" manifest goes into the ledger before done closes, so a
		// subscriber that done wakes finds it there.
		s.appendCampaignManifest(c.id, manifest)
		close(c.done)
		s.log.Info("campaign: complete", "id", c.id, "points", len(c.points), "resumed", resumed)
	}
}

// appendPointManifest records one executed point in the run ledger.
func (s *Service) appendPointManifest(j job, res *Result, start time.Time) {
	if s.opts.Ledger == nil {
		return
	}
	spec := j.c.points[j.point]
	m := obs.NewManifest("campaign-point", s.opts.Program)
	m.Start = start.UTC().Format(time.RFC3339Nano)
	m.Policy = res.Policy
	m.Seed = cmp.Or(res.Seed, spec.Seed) // a point that failed before resolving carries no seed
	m.Workloads = spec.WorkloadIDs()
	m.Cycles = res.Cycles
	m.Instructions = res.Instructions
	m.Strikes = res.Strikes
	m.Extra = map[string]string{
		"campaign": j.c.id,
		"point":    fmt.Sprint(j.point),
		"kind":     string(res.Kind),
	}
	var err error
	if res.Status != obs.StatusOK {
		err = errors.New(res.Error)
	}
	m.Finish(obs.StatusOK, err)
	if aerr := s.opts.Ledger.Append(m); aerr != nil {
		s.log.Error("campaign: ledger append", "id", j.c.id, "point", j.point, "err", aerr)
	}
}

// campaignManifest builds the ledger record of a campaign-level terminal
// transition, or nil with no ledger. Call it under s.mu, which guards the
// results it counts, and append the record once the lock is released.
func (s *Service) campaignManifest(c *campaignState, status string) *obs.RunManifest {
	if s.opts.Ledger == nil {
		return nil
	}
	m := obs.NewManifest("campaign", s.opts.Program)
	m.Extra = map[string]string{
		"campaign": c.id,
		"points":   fmt.Sprint(len(c.points)),
		"done":     fmt.Sprint(len(c.results)),
	}
	if c.resumed {
		m.Extra["resumed"] = "true"
	}
	m.Finish(status, nil)
	return m
}

// appendCampaignManifest appends a record campaignManifest built.
func (s *Service) appendCampaignManifest(id string, m *obs.RunManifest) {
	if err := s.opts.Ledger.Append(m); err != nil {
		s.log.Error("campaign: ledger append", "id", id, "err", err)
	}
}

// Cancel marks a campaign cancelled: queued points are skipped, in-flight
// points finish and are recorded.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	c := s.campaigns[id]
	if c == nil {
		s.mu.Unlock()
		return ErrUnknownCampaign
	}
	already := c.cancelled
	c.cancelled = true
	finished := !c.finished
	var manifest *obs.RunManifest
	if finished {
		c.finished = true
		manifest = s.campaignManifest(c, "cancelled")
		// done closes on every return below, after the manifest is in.
		defer close(c.done)
	}
	s.mu.Unlock()
	if already {
		return nil
	}
	if err := s.store.MarkCancelled(id); err != nil {
		return err
	}
	if finished {
		s.appendCampaignManifest(id, manifest)
	}
	s.log.Info("campaign: cancelled", "id", id)
	return nil
}

// Status is the wire view of a campaign.
type Status struct {
	ID        string    `json:"id"`
	Name      string    `json:"name,omitempty"`
	Issued    time.Time `json:"issued"`
	Points    int       `json:"points"`
	Done      int       `json:"done"`
	Cancelled bool      `json:"cancelled,omitempty"`
	Resumed   bool      `json:"resumed,omitempty"`
	State     string    `json:"state"` // running | ok | cancelled
	Results   []*Result `json:"results,omitempty"`
}

func (c *campaignState) statusLocked(withResults bool) *Status {
	st := &Status{
		ID:        c.id,
		Name:      c.name,
		Issued:    c.issued,
		Points:    len(c.points),
		Done:      len(c.results),
		Cancelled: c.cancelled,
		Resumed:   c.resumed,
	}
	switch {
	case c.cancelled:
		st.State = "cancelled"
	case c.complete():
		st.State = obs.StatusOK
	default:
		st.State = "running"
	}
	if withResults {
		idx := make([]int, 0, len(c.results))
		for i := range c.results {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			st.Results = append(st.Results, c.results[i])
		}
	}
	return st
}

// Status returns one campaign's status, with per-point results.
func (s *Service) Status(id string) (*Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return nil, ErrUnknownCampaign
	}
	return c.statusLocked(true), nil
}

// List returns every campaign's summary status, oldest first.
func (s *Service) List() []*Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.campaigns))
	for id := range s.campaigns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Status, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.campaigns[id].statusLocked(false))
	}
	return out
}

// Subscribe snapshots the results so far and registers a live channel,
// atomically — no result can land between the snapshot and the
// registration, so a streaming client sees every point exactly once. The
// channel's buffer covers every remaining point, so the service never
// blocks on a slow subscriber. Done is closed when the campaign reaches a
// terminal state; call the returned cancel to unsubscribe.
func (s *Service) Subscribe(id string) (past []*Result, live <-chan *Result, done <-chan struct{}, cancel func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return nil, nil, nil, nil, ErrUnknownCampaign
	}
	st := c.statusLocked(true)
	past = st.Results
	ch := make(chan *Result, len(c.points)+1)
	c.subs[ch] = struct{}{}
	cancel = func() {
		s.mu.Lock()
		delete(c.subs, ch)
		s.mu.Unlock()
	}
	return past, ch, c.done, cancel, nil
}

// Draining reports whether Interrupt has been called (readyz turns 503).
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Interrupt starts the SIGTERM drain: no new submissions, no new point
// executions, and one "interrupted" campaign manifest per incomplete
// campaign — the ledger record a restarted server's resume closes out
// with a later "ok". In-flight points are not awaited; their results are
// durable if they finish in time, and re-run otherwise.
func (s *Service) Interrupt() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	var open []*campaignState
	for _, c := range s.campaigns {
		if !c.finished {
			open = append(open, c)
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i].id < open[j].id })
	manifests := make([]*obs.RunManifest, len(open))
	for i, c := range open {
		manifests[i] = s.campaignManifest(c, obs.StatusInterrupted)
	}
	s.mu.Unlock()
	for i, m := range manifests {
		s.appendCampaignManifest(open[i].id, m)
	}
	s.log.Info("campaign: draining", "open", len(open))
}

// Close stops the workers and waits for in-flight points (test teardown;
// production exits through Interrupt + os.Exit).
func (s *Service) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
}
