// Command perfbench is the repository's performance benchmark. It runs
// one named workload for a fixed time, checks every output it produces,
// and prints its metrics as the last line of standard output:
//
//	perfbench --workload sim-attack --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	sim-attack       attack mixes under graphene+BH, prac+BH and rfm+BH at
//	                 N_RH 256 on 1 and 4 channels (skip-ahead loop)
//	sim-blockhammer  BlockHammer at N_RH 1024 on attack and benign mixes
//	                 (every-cycle loop, gated scheduler)
//	service          short points through the store, sweep, figure server
//	                 and fleet
//
// Every workload runs a sim phase (its points one at a time through
// sim.RunMix) and then the service phase (cold sweeps into empty
// stores, warm re-renders, open-loop warm figure GETs, cold POST figure
// jobs and fleet drains of a sampled grid); the workloads differ in
// their points and in the share of the run the sim phase takes. With
// --trace 1 the run instead times calls into each internal layer,
// replays recorded streams into single layers, folds a CPU profile by
// package, searches for the highest GET rate that meets the latency
// limit, and prints the per-layer metrics.
//
// Load comes from this one process, with GOMAXPROCS at most 2, at most
// two HTTP connections and two fleet workers. Build and run it from the
// repository root with perfbench/run.py.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/results"
	"breakhammer/internal/serve"
	"breakhammer/internal/sim"
)

const (
	// defaultSeed is the seed whose simulated results are pinned in
	// digests.json.
	defaultSeed = 1
	// heldOutSeed is reserved for re-checking a performance claim on
	// inputs not used while the change was written.
	heldOutSeed = 7919
	minRounds   = 2 // measured rounds per run, however short --seconds is
	maxProcs    = 2
)

// workloads maps each workload to its sim-phase points. The service
// phase is the same in every workload.
var workloads = map[string]func(seed int64) []simPoint{
	"sim-attack":      attackPoints,
	"sim-blockhammer": blockHammerPoints,
	"service":         servicePoints,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed on the line before the result: the host, the sample
// count behind each metric, and every correctness mismatch.
type report struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	HeldOut    int64          `json:"held_out_seed"`
	Host       map[string]any `json:"host"`
	Samples    map[string]int `json:"samples"`
	FailedFrac float64        `json:"failed_frac"`
	// Raw holds each time metric's median as measured, before scaling
	// to the reference host speed, the warm GET p99, and the median
	// host-speed kernel time.
	Raw        map[string]float64 `json:"raw,omitempty"`
	Mismatches []string           `json:"mismatches,omitempty"`
}

// bench is one run's state.
type bench struct {
	name      string
	seed      int64
	seconds   time.Duration
	root      string
	points    []simPoint
	pins      *pinSet
	metrics   map[string]metric
	samples   map[string]int
	raw       map[string]float64 // report-line figures; see report.Raw
	attempted int
	failed    int
	mismatch  []string
	digests   []string // the sim phase's result digests, in point order
	// pointTimes holds each point's scaled times, one per pass, and
	// pointCycles its simulated cycles.
	pointTimes  [][]float64
	pointCycles []int64
	figDigest   string // the service phase's cold figures digest
	aloneJobs   []aloneJob
	aloneIPC    []float64 // the first set-up's baselines
	clock       *hostClock
	t           *timings
}

func (b *bench) put(name string, v float64, unit string, n int) {
	b.metrics[name] = metric{v, unit}
	if n > 0 {
		b.samples[name] = n
	}
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.mismatch = append(b.mismatch, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "workload: sim-attack, sim-blockhammer or service")
		seed      = flag.Int64("seed", defaultSeed, "workload seed")
		secs      = flag.Int("seconds", 10, "seconds to measure")
		trace     = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		writePins = flag.Bool("write-pins", false, "rewrite perfbench/digests.json from this run (default seed, untraced)")
	)
	flag.Parse()
	points, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *trace)
		flag.Usage()
		return 2
	}
	if *writePins && (*seed != defaultSeed || *trace != 0) {
		fmt.Fprintln(os.Stderr, "perfbench: -write-pins needs the default seed and an untraced run")
		return 2
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	b := &bench{
		name: *name, seed: *seed, seconds: time.Duration(*secs) * time.Second,
		points:  points(*seed),
		metrics: map[string]metric{}, samples: map[string]int{}, raw: map[string]float64{},
		clock: &hostClock{}, t: newTimings(),
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *seed == defaultSeed && !*writePins {
		b.pins = pins
	}
	b.root = filepath.Join(buildDir(), "perfbench-stores", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(b.root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.root)

	if *trace == 1 {
		err = b.traced()
	} else {
		err = b.measure()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *writePins {
		if err := b.savePins(pins); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if b.attempted == 0 {
		b.attempted = 1
	}
	rep := report{
		Workload: b.name, Seed: b.seed, HeldOut: heldOutSeed, Host: host(),
		Samples: b.samples, FailedFrac: float64(b.failed) / float64(b.attempted), Raw: b.raw,
		Mismatches: b.mismatch,
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	for _, v := range []any{rep, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		for _, m := range b.mismatch {
			fmt.Fprintln(os.Stderr, "perfbench: mismatch:", m)
		}
		return 1
	}
	return 0
}

// buildDir is where the benchmark builds and keeps its run state.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// host stamps the machine a result was measured on.
func host() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": model, "os": runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setup builds what every measured step needs: a store on a fresh
// directory, a runner and a figure server over it, and the alone-mode
// baselines of every spec the workload simulates. The first set-up
// fills sim's process-wide baseline memo through sim.AloneIPC; later
// ones recompute the same baselines without it, so every set-up does
// the same work, and must agree with the first.
func (b *bench) setup(tr *tracer) error {
	if b.aloneJobs == nil {
		b.aloneJobs = append(aloneJobs(b.points), serviceAloneJobs(b.seed)...)
	}
	first := b.aloneIPC == nil
	var d time.Duration
	factor, err := b.clock.span(func() error {
		start := time.Now()
		defer func() { d = time.Since(start) }()
		store, err := results.Open(filepath.Join(b.root, fmt.Sprintf("setup-%d", len(b.t.raw["setup_s"]))))
		if err != nil {
			return err
		}
		serve.New(exp.NewRunnerWithStore(serviceOptions(b.seed), store), 1).Close()
		for i, j := range b.aloneJobs {
			s := tr.begin("sim.alone", nil)
			var ipc float64
			if first {
				ipc, err = sim.AloneIPC(j.cfg, j.spec)
				b.aloneIPC = append(b.aloneIPC, ipc)
			} else {
				ipc, err = runAlone(j)
			}
			s.end()
			if err != nil {
				return err
			}
			if ipc != b.aloneIPC[i] {
				b.fail("alone baseline %s differs between set-ups: %v vs %v", j.spec.Name, ipc, b.aloneIPC[i])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.t.add("setup_s", d.Seconds(), d.Seconds()*factor)
	b.attempted++
	return nil
}

// simPass runs the points once, one at a time through sim.RunMix,
// records each point's time, and checks every result against the first
// pass and the pinned digests. Each point is its own clock span, so a
// slow spell of the host is scaled away point by point.
func (b *bench) simPass() error {
	if b.pointTimes == nil {
		b.pointTimes = make([][]float64, len(b.points))
	}
	digests := make([]string, len(b.points))
	for i, pt := range b.points {
		var r sim.MixResult
		var d time.Duration
		factor, err := b.clock.span(func() error {
			start := time.Now()
			var err error
			r, err = sim.RunMix(pt.cfg, pt.mix)
			d = time.Since(start)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", pt.label, err)
		}
		b.t.add("point_s_p50", d.Seconds(), d.Seconds()*factor)
		b.pointTimes[i] = append(b.pointTimes[i], d.Seconds()*factor)
		if i == len(b.pointCycles) {
			b.pointCycles = append(b.pointCycles, r.Cycles)
		}
		digests[i] = resultDigest(r)
	}
	b.attempted += len(b.points)
	if b.digests == nil {
		b.digests = digests
		b.checkPins(digests)
	}
	for i := range digests {
		if digests[i] != b.digests[i] {
			b.fail("%s: result differs from the first pass", b.points[i].label)
		}
	}
	return nil
}

// simRate is the sim phase's simulated cycles per second of scaled host
// time, with each point timed by its median over the run's passes.
func (b *bench) simRate() float64 {
	var cycles int64
	var secs float64
	for i, c := range b.pointCycles {
		cycles += c
		secs += median(b.pointTimes[i])
	}
	return float64(cycles) / secs
}

func (b *bench) checkPins(digests []string) {
	if b.pins == nil {
		return
	}
	want := b.pins.Points[b.name]
	if len(want) != len(digests) {
		b.fail("%d pinned point digests, %d points", len(want), len(digests))
		return
	}
	for i := range digests {
		if digests[i] != want[i] {
			b.fail("%s: result digest %s, pinned %s", b.points[i].label, digests[i], want[i])
		}
	}
}

// newService prepares the service phase: the expected cold-sweep point
// count and the local reference rendering of the fleet figure.
func (b *bench) newService(ctx context.Context, tr *tracer) (*svcEnv, error) {
	e := newSvcEnv(b.seed, filepath.Join(b.root, "service"), tr, b.clock, b.t)
	r := exp.NewRunner(e.opts)
	keys := map[string]bool{}
	for _, p := range r.PointsFor(svcFigures) {
		k, err := r.PointKey(p)
		if err != nil {
			return nil, err
		}
		keys[k] = true
	}
	e.expected = len(keys)
	ref, err := localFleetFigure(ctx, e.sampled)
	if err != nil {
		return nil, err
	}
	e.fleetRef = ref
	if b.pins != nil {
		e.pinned = b.pins.Figures
	}
	return e, nil
}

// measure is the untraced run: set-up, then rounds of one set-up, one
// sim pass, one service iteration and a share of the fixed-rate warm
// GETs, for as many rounds as fit in the run. Interleaving
// spreads every metric's samples over the whole run, so a slow spell
// of the host shifts each of them a little instead of one of them a
// lot.
func (b *bench) measure() error {
	ctx := context.Background()
	runStart := time.Now()
	if err := b.setup(nil); err != nil {
		return err
	}
	e, err := b.newService(ctx, nil)
	if err != nil {
		return err
	}
	defer e.close()
	rounds := 0
	var round time.Duration
	for rounds < minRounds || time.Since(runStart)+round < b.seconds {
		start := time.Now()
		// One more set-up per round spreads setup_s's samples over the
		// run like every other metric's.
		if err := b.setup(nil); err != nil {
			return err
		}
		if err := b.simPass(); err != nil {
			return err
		}
		ws, err := e.iteration(ctx)
		if err != nil {
			return err
		}
		e.fixedRateGets(ws, getsPerRound)
		ws.close()
		round = time.Since(start)
		rounds++
	}
	b.attempted += e.attempted
	b.failed += e.failed
	b.mismatch = append(b.mismatch, e.mismatches...)
	b.figDigest = e.coldDigest
	for name, unit := range map[string]string{
		"setup_s": "s", "point_s_p50": "s", "sweep_cold_s": "s",
		"sweep_warm_s": "s", "serve_cold_s": "s", "fleet_points_per_s": "1/s",
	} {
		b.put(name, median(b.t.scaled[name]), unit, len(b.t.scaled[name]))
		b.raw[name] = median(b.t.raw[name])
	}
	b.put("sim_cycles_per_s", b.simRate(), "1/s", len(b.t.raw["point_s_p50"]))
	gets := b.t.scaled["serve_warm_ms"]
	b.put("serve_warm_p50_ms", percentile(gets, 50), "ms", len(gets))
	b.put("serve_warm_p90_ms", percentile(gets, 90), "ms", len(gets))
	b.raw["serve_warm_p50_ms"] = percentile(b.t.raw["serve_warm_ms"], 50)
	b.raw["serve_warm_p90_ms"] = percentile(b.t.raw["serve_warm_ms"], 90)
	b.raw["serve_warm_p99_ms"] = percentile(b.t.raw["serve_warm_ms"], 99)
	b.raw["host_kernel_ms"] = median(b.clock.samples)
	b.put("peak_rss_mb", peakRSSMB(), "MB", 1)
	return nil
}
