// Package fleet turns bhserve into a distributed sweep coordinator: it
// enumerates a sweep's configuration points once, leases them to remote
// bhsweep workers over a small JSON/HTTP protocol, and appends validated
// results to the authoritative store — the jump from one box sharing a
// cache directory to as many boxes as can reach the coordinator.
//
// Protocol (all bodies JSON; non-2xx answers carry {"error": ...}):
//
//	POST /api/fleet/hello      version handshake -> the sweep's exp.Options
//	POST /api/fleet/lease      next point + lease token with TTL (or wait/done)
//	POST /api/fleet/heartbeat  keep a lease alive (410 when it was stolen)
//	POST /api/fleet/result     submit a finished point (key + schema validated)
//	POST /api/fleet/release    hand a lease back unfinished (worker shutdown)
//	GET  /api/fleet            coordinator status snapshot
//	GET  /api/fleet/events     fleet-wide progress stream (SSE)
//
// Leases map onto the results store's claim lifecycle via
// results.TryClaimRemote: granting a lease takes the point's claim file
// without a local heartbeat goroutine, and each worker heartbeat
// refreshes the file's mtime. Local sweeps sharing the coordinator's
// cache directory therefore coordinate with the fleet exactly as they
// do with each other, and a worker that goes silent lets its lease —
// and the claim under it — expire, so the point is stolen and re-issued
// rather than stranded. Expiry is evaluated lazily on every lease and
// heartbeat call; no janitor goroutine runs between requests.
//
// The protocol authenticates nothing: like the rest of bhserve it is
// built for a trusted lab network, not the open internet.
package fleet

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/results"
	"breakhammer/internal/stats"
)

// pointState is the coordinator-side lifecycle of one sweep point.
type pointState int

const (
	statePending pointState = iota // waiting for a worker
	stateLeased                    // leased out, heartbeats expected
	stateDone                      // record in the authoritative store
)

// fleetPoint is the coordinator's bookkeeping for one deduplicated
// configuration point.
type fleetPoint struct {
	p     exp.Point
	key   string
	state pointState

	// Lease fields, meaningful while state == stateLeased.
	token  string
	worker string
	expiry time.Time
	claim  *results.Claim // the store claim backing the lease

	steals int  // times a lease on this point expired and was re-issued
	cached bool // done without any worker simulating (pre-warmed store)
}

// workerStats accumulates one worker's contribution for the status page.
type workerStats struct {
	Name      string `json:"name"`
	InFlight  int    `json:"in_flight"` // leases currently held
	Completed int    `json:"completed"` // results accepted
	Simulated int    `json:"simulated"` // completed minus worker-cache hits
	Cached    int    `json:"cached"`    // served from the worker's warm local store
	lastSeen  time.Time
}

// Status is the /api/fleet snapshot.
type Status struct {
	Experiments []string     `json:"experiments"`       // the sweep's experiment names
	Sampled     bool         `json:"sampled,omitempty"` // the sweep runs interval-sampled (workers inherit via hello)
	Total       int          `json:"total"`             // deduplicated points
	Done        int          `json:"done"`
	Leased      int          `json:"leased"`
	Pending     int          `json:"pending"`
	Cached      int          `json:"cached"` // done without fleet simulation
	Steals      int          `json:"steals"` // expired leases re-issued
	EstimateNS  int64        `json:"eta_ns,omitempty"`
	Workers     []WorkerInfo `json:"workers"`
}

// WorkerInfo is one worker's row in the status snapshot.
type WorkerInfo struct {
	Name       string `json:"name"`
	InFlight   int    `json:"in_flight"`
	Completed  int    `json:"completed"`
	Simulated  int    `json:"simulated"`
	Cached     int    `json:"cached"`
	LastSeenNS int64  `json:"last_seen_ns"` // nanoseconds since last contact
}

// Coordinator owns a fleet sweep: the deduplicated point queue, the
// live leases backed by store claims, per-worker accounting, and the
// fleet-wide progress stream. Construct with NewCoordinator, mount with
// Register, and Close on shutdown to release held claims.
type Coordinator struct {
	runner  *exp.Runner
	names   []string
	ttl     time.Duration
	optJSON []byte // the runner's exp.Options, encoded once

	mu      sync.Mutex
	points  []*fleetPoint
	byToken map[string]*fleetPoint
	workers map[string]*workerStats
	est     *stats.RunningMean // per-point seconds, seeded from recorded timings
	done    int
	steals  int
	events  []exp.Event
	subs    map[chan exp.Event]bool
	doneCh  chan struct{}
	closed  bool
}

// NewCoordinator enumerates the named experiments' points through the
// runner (deduplicated by store key, exactly like a local Prefetch),
// pre-marks points the store already holds as done, and seeds the ETA
// estimator from recorded per-point timings. The runner's store is the
// authoritative fleet store; trace-backed options resolve their content
// hashes here, so construction fails loudly on an unreadable trace.
func NewCoordinator(runner *exp.Runner, names []string, ttl time.Duration) (*Coordinator, error) {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	optJSON, err := json.Marshal(runner.Options())
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding options: %w", err)
	}
	c := &Coordinator{
		runner:  runner,
		names:   append([]string(nil), names...),
		ttl:     ttl,
		optJSON: optJSON,
		byToken: make(map[string]*fleetPoint),
		workers: make(map[string]*workerStats),
		est:     &stats.RunningMean{},
		subs:    make(map[chan exp.Event]bool),
		doneCh:  make(chan struct{}),
	}
	store := runner.Store()
	// One index sync picks up records appended by other processes since
	// the store opened; the pre-mark pass below is then pure index
	// lookups — no per-key shard scans.
	if err := store.SyncIndex(); err != nil {
		return nil, fmt.Errorf("fleet: syncing store index: %w", err)
	}
	seen := map[string]bool{}
	for _, p := range runner.PointsFor(names) {
		key, err := runner.PointKey(p)
		if err != nil {
			return nil, fmt.Errorf("fleet: keying %v: %w", p, err)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		fp := &fleetPoint{p: p, key: key}
		if d, ok := store.Elapsed(key); ok {
			c.est.Add(d.Seconds())
		}
		if store.Has(key) {
			fp.state = stateDone
			fp.cached = true
			c.done++
		}
		c.points = append(c.points, fp)
	}
	if c.done == len(c.points) {
		close(c.doneCh)
	}
	return c, nil
}

// Register mounts the fleet routes on the mux.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/fleet/hello", c.handleHello)
	mux.HandleFunc("POST /api/fleet/lease", c.handleLease)
	mux.HandleFunc("POST /api/fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /api/fleet/result", c.handleResult)
	mux.HandleFunc("POST /api/fleet/release", c.handleRelease)
	mux.HandleFunc("GET /api/fleet", c.handleStatus)
	mux.HandleFunc("GET /api/fleet/events", c.handleEvents)
}

// Experiments returns the sweep's experiment names.
func (c *Coordinator) Experiments() []string { return append([]string(nil), c.names...) }

// Done reports whether every point is in the authoritative store.
func (c *Coordinator) Done() bool {
	select {
	case <-c.doneCh:
		return true
	default:
		return false
	}
}

// Close releases every claim held for live leases. In-flight workers
// lose their leases (their submissions earn 410) but their local stores
// stay warm, so a restarted coordinator re-collects the work cheaply.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, fp := range c.points {
		if fp.state == stateLeased {
			fp.claim.Release()
			fp.claim = nil
			fp.state = statePending
			delete(c.byToken, fp.token)
		}
	}
	for ch := range c.subs {
		delete(c.subs, ch)
		close(ch)
	}
}

// expireLocked reclaims every lease whose worker has missed its TTL:
// the backing claim is released, the steal is counted, and the point
// returns to the queue. Called under c.mu from every mutating handler,
// which is what makes a janitor goroutine unnecessary — expiry is only
// observable through the API, so evaluating it on API calls suffices.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, fp := range c.points {
		if fp.state == stateLeased && now.After(fp.expiry) {
			fp.claim.Release()
			fp.claim = nil
			delete(c.byToken, fp.token)
			if w := c.workers[fp.worker]; w != nil && w.InFlight > 0 {
				w.InFlight--
			}
			fp.state = statePending
			fp.token = ""
			fp.worker = ""
			fp.steals++
			c.steals++
		}
	}
}

// emitLocked appends a fleet progress event and fans it out, dropping
// subscribers too slow to drain (the jobs.Manager idiom).
func (c *Coordinator) emitLocked(e exp.Event) {
	c.events = append(c.events, e)
	for ch := range c.subs {
		select {
		case ch <- e:
		default:
			delete(c.subs, ch)
			close(ch)
		}
	}
}

// touchWorkerLocked records contact from a worker and returns its stats.
func (c *Coordinator) touchWorkerLocked(name string) *workerStats {
	if name == "" {
		name = "anonymous"
	}
	w := c.workers[name]
	if w == nil {
		w = &workerStats{Name: name}
		c.workers[name] = w
	}
	w.lastSeen = time.Now()
	return w
}

// markDoneLocked finishes a point, emitting the fleet-wide finished
// event with an ETA projected over the currently active workers.
func (c *Coordinator) markDoneLocked(fp *fleetPoint, worker string, cached bool, elapsed time.Duration) {
	fp.state = stateDone
	fp.claim = nil
	fp.token = ""
	fp.worker = ""
	c.done++
	if !cached && elapsed > 0 {
		c.est.Add(elapsed.Seconds())
	}
	label := fp.p.String()
	if worker != "" {
		label += " @ " + worker
	}
	e := exp.Event{Type: exp.PointFinished, Done: c.done, Total: len(c.points),
		Point: fp.p, Label: label, Cached: cached, ElapsedNS: elapsed.Nanoseconds()}
	pending := len(c.points) - c.done
	if c.est.N() > 0 && pending > 0 {
		// Leased points overlap across workers; divide the serial
		// projection by the effective parallelism (at least 1 so an
		// all-pending fleet still projects something).
		par := 0
		for _, w := range c.workers {
			par += w.InFlight
		}
		if par < 1 {
			par = 1
		}
		if par > pending {
			par = pending
		}
		e.EstimateNS = int64(c.est.Mean() * float64(pending) / float64(par) * 1e9)
	}
	c.emitLocked(e)
	if c.done == len(c.points) {
		close(c.doneCh)
	}
}

// newToken mints an unguessable lease token.
func newToken() string {
	var b [16]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

func (c *Coordinator) handleHello(w http.ResponseWriter, r *http.Request) {
	var req helloRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		HTTPError(w, http.StatusBadRequest, fmt.Errorf("decoding hello: %v", err))
		return
	}
	if req.Protocol != ProtocolVersion {
		HTTPError(w, http.StatusConflict, fmt.Errorf(
			"fleet protocol mismatch: worker speaks v%d, coordinator v%d — rebuild the worker from the coordinator's source revision",
			req.Protocol, ProtocolVersion))
		return
	}
	if req.Schema != results.SchemaVersion {
		HTTPError(w, http.StatusConflict, fmt.Errorf(
			"results schema mismatch: worker writes schema %d, coordinator stores schema %d — rebuild the worker from the coordinator's source revision",
			req.Schema, results.SchemaVersion))
		return
	}
	c.mu.Lock()
	c.touchWorkerLocked(req.Worker)
	c.mu.Unlock()
	WriteJSON(w, http.StatusOK, helloResponse{
		Protocol: ProtocolVersion,
		Schema:   results.SchemaVersion,
		Options:  c.optJSON,
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		HTTPError(w, http.StatusBadRequest, fmt.Errorf("decoding lease request: %v", err))
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.touchWorkerLocked(req.Worker)
	c.expireLocked(now)
	store := c.runner.Store()
	// A local sweep sharing the cache directory may have finished points
	// since enumeration. One incremental index sync per lease request
	// observes anything appended since the last one — shards that have
	// not grown cost a stat and zero reads — and the per-point promotion
	// below is then a pure index lookup, where this loop used to rescan
	// the pending point's whole shard per point per request. Best-effort:
	// a sync error degrades to leasing a point another process finished,
	// which the worker's own warm-store check resolves.
	_ = store.SyncIndex()
	for _, fp := range c.points {
		if fp.state != statePending {
			continue
		}
		if store.Has(fp.key) {
			c.markDoneLocked(fp, "", true, 0)
			continue
		}
		claim, err := store.TryClaimRemote(fp.key, c.ttl)
		if err != nil {
			HTTPError(w, http.StatusInternalServerError, err)
			return
		}
		if claim == nil {
			// A local worker holds the point's claim right now; leave it
			// pending (the re-probe above collects it once the holder's
			// record lands) and offer the next point instead.
			continue
		}
		fp.state = stateLeased
		fp.token = newToken()
		fp.worker = ws.Name
		fp.expiry = now.Add(c.ttl)
		fp.claim = claim
		c.byToken[fp.token] = fp
		ws.InFlight++
		c.emitLocked(exp.Event{Type: exp.PointStarted, Done: c.done, Total: len(c.points),
			Point: fp.p, Label: fp.p.String() + " @ " + ws.Name})
		WriteJSON(w, http.StatusOK, leaseResponse{
			Token: fp.token,
			Point: fp.p,
			Key:   fp.key,
			TTLNS: c.ttl.Nanoseconds(),
		})
		return
	}
	if c.done == len(c.points) {
		WriteJSON(w, http.StatusOK, leaseResponse{Done: true})
		return
	}
	// Everything is leased out (or pinned by local claims): tell the
	// worker to come back around one heartbeat interval from now — early
	// enough to pick up a stolen lease promptly.
	WriteJSON(w, http.StatusOK, leaseResponse{Wait: true, RetryNS: (c.ttl / 4).Nanoseconds()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		HTTPError(w, http.StatusBadRequest, fmt.Errorf("decoding heartbeat: %v", err))
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	fp, ok := c.byToken[req.Token]
	if !ok {
		HTTPError(w, http.StatusGone, fmt.Errorf("lease expired or unknown; the point may have been re-issued"))
		return
	}
	fp.expiry = now.Add(c.ttl)
	fp.claim.Heartbeat() // relay liveness to the claim file for local co-workers
	c.touchWorkerLocked(fp.worker)
	WriteJSON(w, http.StatusOK, okResponse{OK: true})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		HTTPError(w, http.StatusBadRequest, fmt.Errorf("decoding result: %v", err))
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	fp, ok := c.byToken[req.Token]
	if !ok {
		HTTPError(w, http.StatusGone, fmt.Errorf("lease expired or unknown; the result was discarded (the point may have been re-issued)"))
		return
	}
	// Validate before touching the authoritative store: the worker's
	// schema and independently derived key must match the coordinator's
	// own fingerprint of the point. A mismatch means diverged code or —
	// for trace-backed sweeps — trace content edited mid-lease, and the
	// submission is rejected rather than stored under a wrong address.
	if req.Schema != results.SchemaVersion {
		HTTPError(w, http.StatusBadRequest, fmt.Errorf(
			"results schema mismatch: worker submitted schema %d, coordinator stores schema %d", req.Schema, results.SchemaVersion))
		return
	}
	if req.Key != fp.key {
		HTTPError(w, http.StatusBadRequest, fmt.Errorf(
			"store key mismatch for %v: worker derived %.12s, coordinator expects %.12s (diverged options, code revision, or trace content)",
			fp.p, req.Key, fp.key))
		return
	}
	if len(req.Results) == 0 {
		HTTPError(w, http.StatusBadRequest, fmt.Errorf("empty result set for %v", fp.p))
		return
	}
	store := c.runner.Store()
	if err := store.Put(fp.key, req.Results); err != nil {
		HTTPError(w, http.StatusInternalServerError, err)
		return
	}
	elapsed := time.Duration(req.ElapsedNS)
	if !req.Cached && elapsed > 0 {
		if err := store.RecordElapsed(fp.key, elapsed); err != nil {
			HTTPError(w, http.StatusInternalServerError, err)
			return
		}
	}
	fp.claim.Release()
	delete(c.byToken, fp.token)
	worker := fp.worker
	ws := c.touchWorkerLocked(worker)
	if ws.InFlight > 0 {
		ws.InFlight--
	}
	ws.Completed++
	if req.Cached {
		ws.Cached++
	} else {
		ws.Simulated++
	}
	c.markDoneLocked(fp, worker, req.Cached, elapsed)
	WriteJSON(w, http.StatusOK, okResponse{OK: true})
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		HTTPError(w, http.StatusBadRequest, fmt.Errorf("decoding release: %v", err))
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Releasing an unknown or already-expired token is a success: the
	// worker only wants the point back in the queue, and it already is.
	if fp, ok := c.byToken[req.Token]; ok {
		fp.claim.Release()
		fp.claim = nil
		delete(c.byToken, fp.token)
		if ws := c.workers[fp.worker]; ws != nil && ws.InFlight > 0 {
			ws.InFlight--
		}
		fp.state = statePending
		fp.token = ""
		fp.worker = ""
	}
	WriteJSON(w, http.StatusOK, okResponse{OK: true})
}

// Status snapshots the coordinator for the status endpoint and the
// index page's fleet panel.
func (c *Coordinator) Status() Status {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	st := Status{
		Experiments: append([]string(nil), c.names...),
		Sampled:     c.runner.Options().Base.Sampling.Enabled,
		Total:       len(c.points),
		Done:        c.done,
		Steals:      c.steals,
	}
	for _, fp := range c.points {
		switch fp.state {
		case stateLeased:
			st.Leased++
		case statePending:
			st.Pending++
		case stateDone:
			if fp.cached {
				st.Cached++
			}
		}
	}
	pending := st.Pending + st.Leased
	if c.est.N() > 0 && pending > 0 {
		par := st.Leased
		if par < 1 {
			par = 1
		}
		if par > pending {
			par = pending
		}
		st.EstimateNS = int64(c.est.Mean() * float64(pending) / float64(par) * 1e9)
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerInfo{
			Name:       w.Name,
			InFlight:   w.InFlight,
			Completed:  w.Completed,
			Simulated:  w.Simulated,
			Cached:     w.Cached,
			LastSeenNS: now.Sub(w.lastSeen).Nanoseconds(),
		})
	}
	sortWorkers(st.Workers)
	return st
}

// sortWorkers orders the status rows by name for stable output.
func sortWorkers(ws []WorkerInfo) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Name < ws[j-1].Name; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, c.Status())
}

// handleEvents streams fleet-wide progress as Server-Sent Events: the
// full history replays first (every subscriber sees every point exactly
// once), then live events, then a terminal "done" event carrying the
// final status once the last point lands.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		HTTPError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	c.mu.Lock()
	history := append([]exp.Event(nil), c.events...)
	live := make(chan exp.Event, 1024)
	if !c.closed {
		c.subs[live] = true
	} else {
		close(live)
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if c.subs[live] {
			delete(c.subs, live)
			close(live)
		}
		c.mu.Unlock()
	}()

	for _, e := range history {
		WriteSSE(w, e)
	}
	flusher.Flush()
	for {
		select {
		case e, ok := <-live:
			if !ok { // dropped as a slow subscriber or coordinator closed
				return
			}
			WriteSSE(w, e)
			flusher.Flush()
		case <-c.doneCh:
			// Drain events that raced the terminal state.
			for {
				select {
				case e, ok := <-live:
					if !ok {
						return
					}
					WriteSSE(w, e)
					continue
				default:
				}
				break
			}
			fmt.Fprintf(w, "event: done\n")
			data, _ := json.Marshal(c.Status())
			fmt.Fprintf(w, "data: %s\n\n", data)
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// WriteSSE renders one progress event in SSE framing.
func WriteSSE(w http.ResponseWriter, e exp.Event) {
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
}

// WriteJSON renders v as an indented JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// HTTPError renders an error as a small JSON object (the errorResponse
// wire shape).
func HTTPError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
}
