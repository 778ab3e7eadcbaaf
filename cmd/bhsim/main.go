// bhsim runs a single BreakHammer simulation and prints its metrics.
//
// With -cache-dir the finished result persists to the same
// content-addressed store bhsweep uses, so re-running an identical
// invocation replays it instantly; -json dumps the full result record.
//
// With -trace, the benign cores replay recorded trace files (one core
// per file; see internal/trace for the formats) instead of synthetic
// class models, and -attack adds the paper's synthetic RowHammer
// attacker on an extra core. Trace-driven results are cached under keys
// derived from the traces' content hashes, so renaming a trace file
// never invalidates (or forks) the store.
//
// Usage:
//
//	bhsim -mix HHMA -mech graphene -nrh 1024 -bh
//	bhsim -mix LLLA -mech blockhammer -nrh 128 -insts 400000
//	bhsim -mix HHMA -mech rfm -bh -cache-dir ~/.bhcache -json
//	bhsim -trace spec.trace,gap.trace.gz -attack -mech graphene -bh
//	bhsim -mix HHMA -mech graphene -bh -sample        # interval sampling
//	bhsim -mix HHMA -sample -warmup 4000 -detail 12000 -ff 134000
//
// With -sample the run fast-forwards most cycles functionally and
// measures short detailed windows (SMARTS interval sampling): metrics
// print with 95% confidence bands, and the result is cached under a
// distinct key so sampled records never impersonate exact ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"breakhammer"
	"breakhammer/internal/prof"
	"breakhammer/internal/results"
	"breakhammer/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bhsim: ")

	var (
		mixStr     = flag.String("mix", "HHMA", "workload mix letters (H/M/L/A), one per core (ignored with -trace)")
		traces     = flag.String("trace", "", "comma-separated trace files replayed by the benign cores, one core per file")
		attack     = flag.Bool("attack", false, "with -trace: add the synthetic many-sided RowHammer attacker on an extra core")
		mech       = flag.String("mech", "graphene", "mitigation mechanism (none, para, graphene, hydra, twice, aqua, rega, rfm, prac, blockhammer)")
		nrh        = flag.Int("nrh", 1024, "RowHammer threshold N_RH")
		bh         = flag.Bool("bh", false, "pair the mechanism with BreakHammer")
		channels   = flag.Int("channels", 1, "memory channels (power of two; each gets its own controller, DRAM device and mechanism instance)")
		insts      = flag.Int64("insts", 0, "instructions per benign core (0 = FastConfig default)")
		sample     = flag.Bool("sample", false, "SMARTS interval sampling: fast-forward most of the run functionally, measure short detailed windows, report metrics with 95% confidence bands")
		warmup     = flag.Int64("warmup", 0, "with -sample: detailed-but-unmeasured warm-up cycles before each measured window (0 = default)")
		detail     = flag.Int64("detail", 0, "with -sample: measured detailed window length in cycles (0 = default)")
		ff         = flag.Int64("ff", 0, "with -sample: functional fast-forward window length in cycles (0 = default)")
		seed       = flag.Int64("seed", 1, "workload seed")
		paper      = flag.Bool("paper", false, "paper-scale configuration (100M instructions, 64 ms window; very slow)")
		verbose    = flag.Bool("v", false, "print per-thread detail")
		cacheDir   = flag.String("cache-dir", "", "persist the result to this directory; identical reruns replay it")
		jsonOut    = flag.Bool("json", false, "print the full result record as JSON")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	cfg := breakhammer.FastConfig()
	if *paper {
		cfg = breakhammer.DefaultConfig()
	}
	cfg.Mechanism = *mech
	cfg.NRH = *nrh
	cfg.BreakHammer = *bh
	cfg.Channels = *channels
	cfg.Seed = *seed
	if *insts > 0 {
		cfg.TargetInsts = *insts
	}
	cfg.Sampling = breakhammer.SamplingParams{
		Enabled:      *sample,
		WarmupCycles: *warmup,
		DetailCycles: *detail,
		FFCycles:     *ff,
	}
	if err := cfg.Sampling.Validate(); err != nil {
		log.Fatal(err)
	}

	var mix breakhammer.Mix
	if *traces != "" {
		mix = traceMix(*traces, *attack, *seed)
		// Pin the trace content hashes now: the store key below and the
		// simulation must describe the same bytes, and NewSource verifies
		// the pinned hash at run time.
		resolved, err := breakhammer.ResolveTraceHashes([]breakhammer.Mix{mix})
		if err != nil {
			log.Fatal(err)
		}
		mix = resolved[0]
	} else {
		if *attack {
			log.Fatal("-attack requires -trace (synthetic mixes spell their attacker with an A letter)")
		}
		var err error
		mix, err = breakhammer.ParseMix(*mixStr, *seed)
		if err != nil {
			log.Fatal(err)
		}
	}

	store, err := results.Open(*cacheDir)
	if err != nil {
		log.Fatal(err)
	}
	key, err := results.Key(cfg, []breakhammer.Mix{mix})
	if err != nil {
		log.Fatal(err)
	}
	var res breakhammer.MixResult
	if cached, ok := store.Get(key); ok && len(cached) == 1 {
		res = cached[0]
		log.Printf("served from cache %s", *cacheDir)
	} else {
		start := time.Now()
		res, err = breakhammer.Run(cfg, mix)
		if err != nil {
			log.Fatal(err)
		}
		if *cacheDir != "" {
			if err := store.Put(key, []breakhammer.MixResult{res}); err != nil {
				log.Fatal(err)
			}
			// Feed the sweep ETA estimator: bhsweep and bhserve project
			// remaining wall-clock from these per-point timings.
			if err := store.RecordElapsed(key, time.Since(start)); err != nil {
				log.Fatal(err)
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("mix=%s mech=%s nrh=%d breakhammer=%v channels=%d\n", mix.Name, *mech, *nrh, *bh, *channels)
	if *channels > 1 {
		for ch, st := range res.MCChannels {
			fmt.Printf("  channel %d: ACTs=%d VRR=%d RFM=%d REF=%d\n",
				ch, st.TotalACTs, st.VRRs, st.RFMs, st.Refreshes)
		}
	}
	fmt.Printf("cycles=%d simulated=%.3f ms\n", res.Cycles, res.Seconds*1e3)
	if s := res.Sampling; s != nil {
		fmt.Printf("SAMPLED: %d measured windows, %d detailed + %d fast-forwarded cycles — metrics are estimates\n",
			s.Windows, s.DetailedCycles, s.FFCycles)
	}
	fmt.Printf("weighted speedup (benign) = %.4f%s\n", res.WS, bandSuffix(res.WSBand))
	fmt.Printf("unfairness (max benign slowdown) = %.4f%s\n", res.Unfairness, bandSuffix(res.UnfairnessBand))
	fmt.Printf("preventive actions = %d\n", res.Actions)
	fmt.Printf("DRAM energy = %.3f uJ\n", res.EnergyNJ/1e3)
	fmt.Printf("VRR=%d RFM=%d MIG=%d AUX=%d REF=%d\n",
		res.MC.VRRs, res.MC.RFMs, res.MC.Migrations, res.MC.AuxAccesses, res.MC.Refreshes)
	if res.BH != nil {
		fmt.Printf("BreakHammer: actions observed=%d window rotations=%d\n",
			res.BH.ActionsObserved, res.BH.WindowRotations)
		for tid, n := range res.BH.SuspectEvents {
			if n > 0 {
				fmt.Printf("  thread %d: %d suspect events, %d windows throttled\n",
					tid, n, res.BH.SuspectWindows[tid])
			}
		}
	}
	if *verbose {
		fmt.Println("\nper-thread:")
		for tid := range res.IPC {
			role := "benign"
			if !res.Benign[tid] {
				role = "ATTACKER"
			}
			ci := ""
			if s := res.Sampling; s != nil && tid < len(s.IPC) {
				ci = fmt.Sprintf(" CI[%.3f,%.3f]", s.IPC[tid].Lo, s.IPC[tid].Hi)
			}
			fmt.Printf("  t%d %-8s IPC=%.3f%s insts=%d RBMPKI=%.2f P50=%.0fns P99=%.0fns\n",
				tid, role, res.IPC[tid], ci, res.Insts[tid], res.RBMPKI[tid],
				res.Latency[tid].Percentile(50), res.Latency[tid].Percentile(99))
		}
	}
	if !res.BenignFinished {
		fmt.Fprintln(os.Stderr, "warning: benign cores hit MaxCycles before finishing")
	}
}

// bandSuffix renders a sampled metric's 95% confidence interval, or
// nothing for exact runs (and for sampled metrics whose band would be
// unbounded, e.g. unfairness when an IPC interval touches zero).
func bandSuffix(b *breakhammer.SamplingEstimate) string {
	if b == nil {
		return ""
	}
	return fmt.Sprintf("  (95%% CI [%.4f, %.4f])", b.Lo, b.Hi)
}

// traceMix builds the trace-driven mix: one benign core per listed file,
// plus the synthetic attacker when requested. Mix and spec names are
// position-based (never path-based) so the store key survives file
// renames; each trace's scale is logged from its sidecar manifest
// without re-scanning the file.
func traceMix(list string, attack bool, seed int64) breakhammer.Mix {
	var files []string
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			log.Fatalf("empty trace path in -trace %q", list)
		}
		files = append(files, f)
	}
	lines, err := trace.ReportManifests(files)
	if err != nil {
		log.Fatal(err)
	}
	var specs []breakhammer.Spec
	for i, f := range files {
		log.Print(lines[i])
		specs = append(specs, breakhammer.TraceSpec(f, i))
	}
	name := "TRACE"
	if attack {
		name = "TRACEA"
		specs = append(specs, breakhammer.AttackerSpec(0, seed))
	}
	return breakhammer.Mix{Name: name, Specs: specs}
}
