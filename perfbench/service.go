package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/fleet"
	"breakhammer/internal/results"
	"breakhammer/internal/sampling"
	"breakhammer/internal/serve"
	"breakhammer/internal/workload"
)

// Service-phase constants. The figure set is fixed; the seed varies the
// configuration's PRNG seed, which every point's store key includes.
var (
	svcFigures  = []string{"2"} // cold and warm sweep, warm GETs
	fleetFigure = "9"           // the sampled grid the fleet drains
	coldFigure  = "6"           // the cold POST figure job
	coldBody    = `{"mechanisms":"graphene"}`
)

const (
	getRate      = 100.0                  // offered rate of the fixed-rate warm GETs, requests/s
	warmupGets   = 20                     // unmeasured GETs before the fixed-rate ones
	getsPerRound = 150                    // fixed-rate warm GETs per round
	coldReps     = 2                      // cold sweeps, and cold POST jobs, per round
	fleetReps    = 2                      // fleet drains per round
	warmReps     = 5                      // warm re-renders per round
	latencyLimit = 50.0                   // p99 limit of the max-rate search, ms
	trialSeconds = 0.4                    // length of one max-rate trial
	trialMinGets = 30                     // requests in the shortest max-rate trial
	httpTimeout  = 2 * time.Second        // a slower request counts as timed out
	fleetTTL     = 2 * time.Second        // lease TTL of the fleet drain; idle workers retry at a quarter of it
	httpConns    = 2                      // HTTP connections of the load generator
	fleetWorkers = 2                      // in-process fleet workers
	jobDeadline  = 60 * time.Second       // a cold figure job or fleet drain must finish within this
	maxRateLo    = 200.0                  // max-rate search bracket, requests/s
	maxRateHi    = 3200.0                 //
	maxRateSteps = 3                      // bisection steps after the doubling ramp
	fleetPoll    = 100 * time.Millisecond // worker backoff on connection errors
	donePoll     = time.Millisecond       // how often the drain checks the coordinator
)

func serviceOptions(seed int64) exp.Options {
	o := exp.QuickOptions()
	o.Base.TargetInsts = svcInsts
	o.Base.BHWindow = 100_000
	o.Base.Seed = seed
	return o
}

func sampledOptions(seed int64) exp.Options {
	o := serviceOptions(seed)
	o.Base.Sampling = sampling.Params{Enabled: true, WarmupCycles: 1_000, DetailCycles: 4_000, FFCycles: 16_000}
	return o
}

// workloadMixes is the mix family exp sweeps at one mix per group.
func workloadMixes(attack bool) []workload.Mix {
	if attack {
		return workload.AttackMixes(1)
	}
	return workload.BenignMixes(1)
}

// servicePoints are the service figures' simulations as sim points, for
// the service workload's sim phase and the alone baselines.
func servicePoints(seed int64) []simPoint {
	o := serviceOptions(seed)
	var out []simPoint
	for _, p := range exp.NewRunner(o).PointsFor([]string{"9"}) {
		ms := workloadMixes(p.Attack)
		for _, m := range ms {
			cfg := o.Base
			cfg.Mechanism, cfg.NRH, cfg.BreakHammer = p.Mech, p.NRH, p.BH
			out = append(out, simPoint{p.String() + "/" + m.Name, cfg, m})
		}
	}
	return out
}

// serviceAloneJobs lists the alone baselines every service-phase sweep
// reads: both mix families on the service system.
func serviceAloneJobs(seed int64) []aloneJob {
	o := serviceOptions(seed)
	var pts []simPoint
	for _, attack := range []bool{true, false} {
		for _, m := range workloadMixes(attack) {
			pts = append(pts, simPoint{cfg: o.Base, mix: m})
		}
	}
	return aloneJobs(pts)
}

// svcEnv is the service phase's state across iterations of one run.
type svcEnv struct {
	root       string // parent of every fresh store directory
	opts       exp.Options
	sampled    exp.Options
	expected   int    // distinct points of the cold sweep
	pinned     string // digest of the cold figures for the default seed, "" when unpinned
	coldDigest string // digest of the last cold sweep's figures
	fleetRef   string // the local rendering of the sampled fleet figure
	client     *http.Client
	tr         *tracer
	clock      *hostClock
	t          *timings // the run's samples, shared with the sim phase
	iter       int

	gets              loadResult         // every warm GET, unscaled
	trials            []rateTrial        // every max-rate trial
	counts            map[string]float64 // per-layer counters of the last iteration
	failed, attempted int
	mismatches        []string
}

func newSvcEnv(seed int64, root string, tr *tracer, clock *hostClock, t *timings) *svcEnv {
	tp := &http.Transport{MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns, DisableCompression: true}
	return &svcEnv{
		root: root, tr: tr, clock: clock, t: t,
		opts:    serviceOptions(seed),
		sampled: sampledOptions(seed),
		client:  &http.Client{Transport: tp, Timeout: httpTimeout},
		counts:  map[string]float64{},
		gets:    loadResult{status: map[int]int{}},
	}
}

func (e *svcEnv) close() { e.client.CloseIdleConnections() }

func (e *svcEnv) fail(format string, args ...any) {
	e.failed++
	e.mismatches = append(e.mismatches, fmt.Sprintf(format, args...))
}

func (e *svcEnv) freshDir(kind string) string {
	e.iter++
	return filepath.Join(e.root, fmt.Sprintf("%s-%d", kind, e.iter))
}

// renderAll renders the service figures through the runner, each call
// a span named spanName.
func (e *svcEnv) renderAll(r *exp.Runner, spanName string, parent *span) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range svcFigures {
		ex, _ := exp.ExperimentByName(name)
		s := e.tr.begin(spanName, parent)
		tbl, err := ex.Run(r)
		s.end()
		if err != nil {
			return nil, err
		}
		out[name] = tbl.JSON()
	}
	return out, nil
}

func joinFigures(figs map[string]string) string {
	var b strings.Builder
	for _, name := range svcFigures {
		b.WriteString(figs[name])
	}
	return b.String()
}

// warmServer is a warm store behind a figure server on a loopback
// listener; closing it releases all three.
type warmServer struct {
	srv   *serve.Server
	ts    *httptest.Server
	store *results.Store
	figs  map[string]string // direct Experiment.Run JSON per figure
}

func newWarmServer(store *results.Store, r *exp.Runner, figs map[string]string) *warmServer {
	srv := serve.New(r, 1)
	return &warmServer{srv: srv, ts: httptest.NewServer(srv.Handler()), store: store, figs: figs}
}

func (w *warmServer) close() {
	w.ts.Close()
	w.srv.Close()
}

// iteration runs the service steps once: coldReps cold sweeps,
// warmReps warm re-renders, coldReps cold POST jobs and fleetReps fleet
// drains, each into fresh store directories. It returns the warm server
// for the caller to load further and close.
func (e *svcEnv) iteration(ctx context.Context) (*warmServer, error) {
	root := e.tr.begin("service.iteration", nil)
	defer root.end()
	// Cold sweeps, each into an empty store; the last one's directory
	// is the warm steps' store.
	var dirs []string
	var coldOut string
	var points []exp.Point
	for rep := 0; rep < coldReps; rep++ {
		dir := e.freshDir("store")
		dirs = append(dirs, dir)
		e.attempted++
		var store *results.Store
		var runner *exp.Runner
		var coldFigs map[string]string
		if err := e.timed("sweep_cold_s", func() error {
			var err error
			s := e.tr.begin("results.Open", root)
			store, err = results.Open(dir)
			s.end()
			if err != nil {
				return err
			}
			runner = exp.NewRunnerWithStore(e.opts, store)
			points = runner.PointsFor(svcFigures)
			if e.tr != nil {
				for _, p := range points {
					s := e.tr.begin("results.Key", root)
					_, err := runner.PointKey(p)
					s.end()
					if err != nil {
						return err
					}
				}
			}
			s = e.tr.begin("exp.PrefetchContext", root)
			err = runner.PrefetchContext(ctx, points, nil)
			s.end()
			if err != nil {
				return err
			}
			coldFigs, err = e.renderAll(runner, "exp.render.cold", root)
			return err
		}); err != nil {
			return nil, err
		}
		if got := int(runner.Executed()); got != e.expected {
			e.fail("cold sweep executed %d points, want %d", got, e.expected)
		}
		e.counts["exp.executed"] = float64(runner.Executed())
		e.counts["results.written"] = float64(store.Stats().Written)
		coldOut = joinFigures(coldFigs)
		e.coldDigest = resultDigest(coldOut)
		if e.pinned != "" && e.coldDigest != e.pinned {
			e.fail("cold figures digest %s, pinned %s", e.coldDigest, e.pinned)
		}
	}

	dir := dirs[len(dirs)-1]

	// Warm re-render: reopen the store and serve every point from disk,
	// warmReps times; the last reopened store backs the warm server.
	var wstore *results.Store
	var wr *exp.Runner
	var warmFigs map[string]string
	for rep := 0; rep < warmReps; rep++ {
		e.attempted++
		if err := e.timed("sweep_warm_s", func() error {
			var err error
			s := e.tr.begin("results.Open", root)
			wstore, err = results.Open(dir)
			s.end()
			if err != nil {
				return err
			}
			wr = exp.NewRunnerWithStore(e.opts, wstore)
			if err := wr.PrefetchContext(ctx, points, nil); err != nil {
				return err
			}
			warmFigs, err = e.renderAll(wr, "exp.render.warm", root)
			return err
		}); err != nil {
			return nil, err
		}
		if wr.Executed() != 0 {
			e.fail("warm sweep executed %d points, want 0", wr.Executed())
		}
		if joinFigures(warmFigs) != coldOut {
			e.fail("warm sweep output differs from the cold output")
		}
	}
	if e.tr != nil {
		for i := 0; i < 20; i++ {
			for _, name := range svcFigures {
				s := e.tr.begin("exp.Coverage", root)
				_, _, err := wr.Coverage(name)
				s.end()
				if err != nil {
					return nil, err
				}
			}
		}
	}

	ws := newWarmServer(wstore, wr, warmFigs)

	// Cold POST figure jobs, followed until they complete: one on a
	// server over each earlier cold store, then one on the warm server.
	for _, d := range dirs[:len(dirs)-1] {
		store, err := results.Open(d)
		if err != nil {
			ws.close()
			return nil, err
		}
		extra := newWarmServer(store, exp.NewRunnerWithStore(e.opts, store), nil)
		e.runColdJob(ctx, extra, root)
		extra.close()
	}
	e.runColdJob(ctx, ws, root)

	// Fleet drains of the sampled grid.
	for i := 0; i < fleetReps; i++ {
		e.attempted++
		if err := e.fleetDrain(ctx, root); err != nil {
			e.fail("fleet drain: %v", err)
		}
	}
	return ws, nil
}

// runColdJob times one cold figure job as a serve_cold_s sample. A
// failed job is a mismatch.
func (e *svcEnv) runColdJob(ctx context.Context, ws *warmServer, parent *span) {
	e.attempted++
	if err := e.timed("serve_cold_s", func() error { return e.coldJob(ctx, ws, parent) }); err != nil {
		e.fail("cold figure job: %v", err)
	}
}

// timed runs f as one sample of the named time metric, scaled to the
// reference host speed. A failed step records no sample.
func (e *svcEnv) timed(name string, f func() error) error {
	var d time.Duration
	factor, err := e.clock.span(func() error {
		start := time.Now()
		err := f()
		d = time.Since(start)
		return err
	})
	if err == nil {
		e.t.add(name, d.Seconds(), d.Seconds()*factor)
	}
	return err
}

// fixedRateGets sends n warm figure GETs at the fixed offered rate and
// pools their latencies, scaled to the reference host speed, with the
// run's earlier ones.
func (e *svcEnv) fixedRateGets(ws *warmServer, n int) {
	// The server memoizes each figure's point keys on its first request
	// and the client opens its connections then: warm both up first.
	for i := 0; i < warmupGets; i++ {
		name := svcFigures[i%len(svcFigures)]
		if _, _, err := e.get(ws.ts.URL + "/api/figures/" + serve.FigureID(name)); err != nil {
			e.fail("warm-up GET: %v", err)
		}
	}
	hitsBefore := ws.store.Stats().Hits
	var res loadResult
	factor, _ := e.clock.span(func() error {
		res = e.openLoop(ws, getRate, n)
		return nil
	})
	for _, l := range res.lat {
		e.t.add("serve_warm_ms", l, l*factor)
	}
	e.gets.n += res.n
	e.gets.failed += res.failed
	e.gets.lat = append(e.gets.lat, res.lat...)
	e.gets.late = append(e.gets.late, res.late...)
	for code, c := range res.status {
		e.gets.status[code] += c
	}
	e.gets.timeouts += res.timeouts
	e.gets.ref += res.ref
	e.attempted += res.n
	e.failed += res.failed
	e.counts["results.hits_per_get"] = float64(ws.store.Stats().Hits-hitsBefore) / float64(res.n)
	e.counts["results.shard_reads"] = float64(ws.store.Stats().ShardReads)
}

// coldJob POSTs a figure the store cannot serve, follows the job's
// event stream to its end, and fetches the finished figure.
func (e *svcEnv) coldJob(ctx context.Context, ws *warmServer, parent *span) error {
	s := e.tr.begin("serve.cold_job", parent)
	defer s.end()
	url := ws.ts.URL + "/api/figures/" + serve.FigureID(coldFigure)
	status, body, err := e.post(ctx, url, coldBody)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("first POST answered %d, want 202: %s", status, body)
	}
	var ticket struct {
		EventsURL string `json:"events_url"`
	}
	if err := json.Unmarshal(body, &ticket); err != nil {
		return fmt.Errorf("decoding ticket: %w", err)
	}
	jctx, cancel := context.WithTimeout(ctx, jobDeadline)
	defer cancel()
	if err := followEvents(jctx, ws.ts.URL+ticket.EventsURL); err != nil {
		return err
	}
	status, body, err = e.post(ctx, url, coldBody)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST after the job answered %d, want 200", status)
	}
	narrowed, err := exp.OptionSpec{Mechanisms: "graphene"}.ApplyTo(e.opts)
	if err != nil {
		return err
	}
	ex, _ := exp.ExperimentByName(coldFigure)
	tbl, err := ex.Run(exp.NewRunnerWithStore(narrowed, ws.store))
	if err != nil {
		return err
	}
	if string(body) != tbl.JSON() {
		return fmt.Errorf("job figure differs from the direct rendering")
	}
	return nil
}

func (e *svcEnv) post(ctx context.Context, url, body string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// followEvents reads a job's SSE stream until its "done" event and
// checks the job's terminal state.
func followEvents(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	// The stream lives as long as the job, so it bypasses the client's
	// per-request timeout; ctx bounds it instead.
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if done && strings.HasPrefix(line, "data: ") {
			var st serve.JobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return err
			}
			if st.State != serve.JobDone {
				return fmt.Errorf("job ended %s: %s", st.State, st.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended without a done event")
}

// timedTransport records the round-trip time of fleet lease and result
// calls as spans.
type timedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent *span
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "fleet." + filepath.Base(req.URL.Path)
	s := t.tr.begin(name, t.parent)
	resp, err := t.base.RoundTrip(req)
	s.end()
	return resp, err
}

// fleetDrain serves the sampled grid from a fresh coordinator store and
// drains it with in-process workers over HTTP.
func (e *svcEnv) fleetDrain(ctx context.Context, parent *span) error {
	s := e.tr.begin("fleet.drain", parent)
	defer s.end()
	store, err := results.Open(e.freshDir("fleet"))
	if err != nil {
		return err
	}
	runner := exp.NewRunnerWithStore(e.sampled, store)
	before := e.clock.last
	if before == 0 {
		before = e.clock.sample()
	}
	settle()
	start := time.Now()
	coord, err := fleet.NewCoordinator(runner, []string{fleetFigure}, fleetTTL)
	if err != nil {
		return err
	}
	srv := serve.New(runner, 1)
	srv.EnableFleet(coord)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	tp := &http.Transport{MaxConnsPerHost: fleetWorkers, MaxIdleConnsPerHost: fleetWorkers}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: timedTransport{base: tp, tr: e.tr, parent: s}, Timeout: 30 * time.Second}
	sums := make([]fleet.WorkerSummary, fleetWorkers)
	errs := make([]error, fleetWorkers)
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < fleetWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = fleet.RunWorker(wctx, fleet.WorkerOptions{
				URL: ts.URL, Name: fmt.Sprintf("w%d", i), Client: client,
				BaseBackoff: fleetPoll, MaxBackoff: time.Second,
			})
		}(i)
	}
	// The drain ends when the last point lands. A worker that found
	// every remaining point leased sleeps a jittered retry interval
	// before it learns the sweep is done; that sleep is not drain time,
	// so the workers are cancelled once the coordinator is done.
	deadline := time.Now().Add(jobDeadline)
	for !coord.Done() && time.Now().Before(deadline) {
		time.Sleep(donePoll)
	}
	elapsed := time.Since(start)
	cancel()
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	st := coord.Status()
	if !coord.Done() || st.Done != st.Total {
		return fmt.Errorf("fleet finished %d of %d points", st.Done, st.Total)
	}
	factor := float64(refKernel) / (float64(before+e.clock.sample()) / 2)
	rate := float64(st.Total) / elapsed.Seconds()
	e.t.add("fleet_points_per_s", rate, rate/factor)
	var sim, cached, stolen, failed int
	for _, sum := range sums {
		sim += sum.Simulated
		cached += sum.Cached
		stolen += sum.Stolen
		failed += sum.Failed
	}
	e.counts["fleet.simulated"] = float64(sim)
	e.counts["fleet.cached"] = float64(cached)
	e.counts["fleet.stolen"] = float64(stolen)
	if failed > 0 {
		return fmt.Errorf("%d fleet points failed", failed)
	}
	ex, _ := exp.ExperimentByName(fleetFigure)
	tbl, err := ex.Run(runner)
	if err != nil {
		return err
	}
	if tbl.JSON() != e.fleetRef {
		return fmt.Errorf("fleet figure differs from the local figure")
	}
	e.counts["sampling.ff_frac"] = ffFrac(runner, store)
	return nil
}

// ffFrac is the share of simulated cycles the fleet's sampled points
// covered by functional fast-forward.
func ffFrac(r *exp.Runner, store *results.Store) float64 {
	var ff, all int64
	for _, p := range r.PointsFor([]string{fleetFigure}) {
		key, err := r.PointKey(p)
		if err != nil {
			continue
		}
		rs, _ := store.Get(key)
		for _, mr := range rs {
			if mr.Sampling != nil {
				ff += mr.Sampling.FFCycles
				all += mr.Sampling.FFCycles + mr.Sampling.DetailedCycles
			}
		}
	}
	if all == 0 {
		return 0
	}
	return float64(ff) / float64(all)
}

// localFleetFigure renders the sampled fleet figure in process, the
// reference the fleet's figure must match byte for byte.
func localFleetFigure(ctx context.Context, o exp.Options) (string, error) {
	r := exp.NewRunner(o)
	if err := r.PrefetchContext(ctx, r.PointsFor([]string{fleetFigure}), nil); err != nil {
		return "", err
	}
	ex, _ := exp.ExperimentByName(fleetFigure)
	tbl, err := ex.Run(r)
	if err != nil {
		return "", err
	}
	return tbl.JSON(), nil
}

// loadResult is the outcome of open-loop GETs. Latencies are in ms from
// the moment each request was due, in send order; failures are +Inf.
type loadResult struct {
	n, failed     int
	lat           []float64
	late          []float64 // how late the generator sent each request, ms
	status        map[int]int
	timeouts, ref int
}

// openLoop sends n warm figure GETs at the offered rate, alternating the
// service figures, over at most httpConns connections. Each request is
// due at start+i/rate whether or not earlier ones finished; its latency
// runs from that moment, so a stall delays every request queued behind
// it. A refused, timed-out, non-200 or wrong-bodied request is failed.
func (e *svcEnv) openLoop(ws *warmServer, rate float64, n int) loadResult {
	type job struct {
		i   int
		due time.Time
	}
	res := loadResult{n: n, lat: make([]float64, n), late: make([]float64, n), status: map[int]int{}}
	jobs := make(chan job, n) // sized to every send: the generator never blocks
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < httpConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				name := svcFigures[j.i%len(svcFigures)]
				status, body, err := e.get(ws.ts.URL + "/api/figures/" + serve.FigureID(name))
				lat := float64(time.Since(j.due).Nanoseconds()) / 1e6
				mu.Lock()
				switch {
				case err != nil:
					var ne net.Error
					if errors.As(err, &ne) && ne.Timeout() {
						res.timeouts++
					} else {
						res.ref++
					}
					lat = math.Inf(1)
				case status != http.StatusOK || string(body) != ws.figs[name]:
					res.status[status]++
					lat = math.Inf(1)
				default:
					res.status[status]++
				}
				if math.IsInf(lat, 1) {
					res.failed++
				}
				res.lat[j.i] = lat
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.late[i] = float64(time.Since(due).Nanoseconds()) / 1e6
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return res
}

func (e *svcEnv) get(url string) (int, []byte, error) {
	resp, err := e.client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// maxRate searches for the highest offered rate whose p99 latency
// stays under latencyLimit without a growing backlog, and pools the
// search's trials with the earlier ones.
func (e *svcEnv) maxRate(ws *warmServer) {
	lo, hi := maxRateLo, maxRateHi
	if est := separatingRate(e.trials); est > 0 {
		// Later searches bisect a bracket around the estimate so far,
		// where their trials tell the most.
		lo, hi = est*0.8, est*1.25
	}
	maxRate(lo, hi, maxRateSteps, func(rate float64) bool {
		n := int(rate * trialSeconds)
		if n < trialMinGets {
			n = trialMinGets
		}
		res := e.openLoop(ws, rate, n)
		pass := percentile(res.lat, 99) <= latencyLimit && !backlogGrows(res.lat, latencyLimit)
		e.trials = append(e.trials, rateTrial{rate, pass})
		return pass
	})
}

// handlerCost times the figure handler without a socket, and the same
// requests over HTTP one at a time; their difference is the HTTP cost.
func (e *svcEnv) handlerCost(ws *warmServer, n int) (handlerMS, httpMS float64) {
	h := ws.srv.Handler()
	var overHTTP []float64
	for i := 0; i < n; i++ {
		name := svcFigures[i%len(svcFigures)]
		path := "/api/figures/" + serve.FigureID(name)
		s := e.tr.begin("serve.Handler", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		s.end()
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), []byte(ws.figs[name])) {
			e.fail("direct handler answered %d or a wrong body for %s", rec.Code, name)
		}
		t := time.Now()
		_, _, err := e.get(ws.ts.URL + path)
		overHTTP = append(overHTTP, float64(time.Since(t).Nanoseconds())/1e6)
		if err != nil {
			e.fail("sequential GET: %v", err)
		}
	}
	handlerMS = e.tr.medianMS("serve.Handler")
	return handlerMS, median(overHTTP) - handlerMS
}

// settle collects garbage before a timed step, so every step starts
// from the same heap state instead of inheriting its predecessor's
// collection debt.
func settle() { runtime.GC() }
