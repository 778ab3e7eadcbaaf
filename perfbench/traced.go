package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime/pprof"
	"time"

	"breakhammer/internal/sim"
	"breakhammer/internal/workload"
)

// tracedSearches is the number of max-rate searches of a traced run:
// the first brackets the rate, the later ones refine it.
const tracedSearches = 3

// profiledLayers are the packages whose self time the traced run
// reports, as "self.<name>".
var profiledLayers = []string{
	"dram", "memctrl", "memsys", "cache", "cpu", "mitigation", "core", "sim",
	"workload", "sampling", "results", "exp", "serve", "fleet",
}

// traced is the per-layer run: under one CPU profile, each point
// untraced and then again with spans and hooks, and one traced service
// iteration; then max-rate searches on the warm server and replays of
// the recorded streams into single layers. A point's traced and
// untraced results must be identical.
func (b *bench) traced() error {
	ctx := context.Background()
	tr := newTracer()
	if err := b.setup(tr); err != nil {
		return err
	}
	// One CPU profile covers the sim and service steps below; stopping
	// and restarting it costs a tick of the profile writer, far longer
	// than a short point.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	profiling := true
	defer func() {
		if profiling {
			pprof.StopCPUProfile()
		}
	}()

	// Each point runs untraced and then traced, back to back, so the
	// host's drift cannot separate them; both run under the profile, so
	// the overhead measured is that of the spans and hooks.
	rec := &recorder{}
	var (
		untraced, traced                               time.Duration
		cycles                                         int64
		acts, rowHits, demand, preventive, gated       int64
		actions, suspectWindows, hits, misses, qblocks int64
	)
	for _, pt := range b.points {
		settle()
		start := time.Now()
		ref, err := sim.RunMix(pt.cfg, pt.mix)
		if err != nil {
			return fmt.Errorf("%s: %w", pt.label, err)
		}
		untraced += time.Since(start)
		settle()
		start = time.Now()
		s := tr.begin("sim.NewSystem", nil)
		sys, err := sim.NewSystem(pt.cfg, pt.mix)
		s.end()
		if err != nil {
			return err
		}
		rec.attach(sys, pt.cfg, len(pt.mix.Specs))
		s = tr.begin("sim.System.Run", nil)
		res := sys.Run()
		s.end()
		mr, err := mixResult(pt.cfg, pt.mix, res)
		if err != nil {
			return err
		}
		traced += time.Since(start)
		b.attempted += 2
		if resultDigest(mr) != resultDigest(ref) {
			b.fail("%s: traced result differs from the untraced one", pt.label)
		}
		cycles += res.Cycles
		acts += res.MC.TotalACTs
		for t := range res.MC.RowHits {
			rowHits += res.MC.RowHits[t]
			demand += res.MC.DemandACTs[t]
		}
		preventive += res.MC.VRRs + res.MC.RFMs + res.MC.Migrations
		gated += res.MC.GatedACTs
		actions += res.Actions
		if res.BH != nil {
			for _, w := range res.BH.SuspectWindows {
				suspectWindows += w
			}
		}
		for t := range res.CacheStats.Hits {
			hits += res.CacheStats.Hits[t]
			misses += res.CacheStats.Misses[t]
			qblocks += res.CacheStats.QuotaBlocks[t]
		}
	}

	e, err := b.newService(ctx, tr)
	if err != nil {
		return err
	}
	defer e.close()
	ws, err := e.iteration(ctx)
	if err != nil {
		return err
	}
	e.fixedRateGets(ws, getsPerRound)
	handlerMS, httpMS := e.handlerCost(ws, 40)
	pprof.StopCPUProfile()
	profiling = false
	// The max-rate searches run outside the profile: their load would
	// swamp the workload's own layer shares.
	for i := 0; i < tracedSearches; i++ {
		e.maxRate(ws)
	}
	ws.close()
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return err
	}
	fold := foldProfile(samples)

	// The replays run after the profile stops, so their tight loops do
	// not count toward the layers' self time.
	canNS, nextNS, err := replayDRAM(rec.recs)
	if err != nil {
		return err
	}
	mechNS, bhNS, err := replayActivations(rec.recs)
	if err != nil {
		return err
	}
	first := b.points[0]
	var spec workload.Spec
	for _, sp := range first.mix.Specs {
		if sp.Benign() {
			spec = sp
			break
		}
	}
	readNS, err := replayCache(first.cfg, spec)
	if err != nil {
		return err
	}
	tickNS, coreStats, err := replayCore(first.cfg, spec)
	if err != nil {
		return err
	}
	b.attempted += e.attempted + len(e.trials)
	b.failed += e.failed
	b.mismatch = append(b.mismatch, e.mismatches...)

	share := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	b.put("trace.overhead_pct", (traced.Seconds()/untraced.Seconds()-1)*100, "%", len(b.points))
	b.put("dram.can_issue_ns", canNS, "ns", rec.cmds)
	b.put("dram.next_release_ns", nextNS, "ns", rec.cmds)
	b.put("memctrl.acts", float64(acts), "count", 0)
	b.put("memctrl.row_hit_frac", share(rowHits, rowHits+demand), "frac", 0)
	b.put("memctrl.preventive", float64(preventive), "count", 0)
	b.put("memctrl.gated_acts", float64(gated), "count", 0)
	b.put("cache.read_ns", readNS, "ns", replayAccess)
	b.put("cache.miss_frac", share(misses, hits+misses), "frac", 0)
	b.put("cache.quota_blocks", float64(qblocks), "count", 0)
	b.put("cpu.tick_ns", tickNS, "ns", replayCycles)
	b.put("cpu.blocked_stalls", float64(coreStats.BlockedStalls), "count", 0)
	for _, m := range replayMechs {
		b.put("mitigation."+m+".on_activate_ns", mechNS[m], "ns", rec.acts)
	}
	b.put("mitigation.actions", float64(actions), "count", 0)
	b.put("core.on_activate_ns", bhNS, "ns", rec.acts)
	b.put("core.suspect_windows", float64(suspectWindows), "count", 0)
	b.put("sim.new_system_ms", tr.medianMS("sim.NewSystem"), "ms", len(tr.durations("sim.NewSystem")))
	b.put("sim.run_s", tr.medianMS("sim.System.Run")/1e3, "s", len(tr.durations("sim.System.Run")))
	b.put("sim.alone_s", tr.medianMS("sim.alone")/1e3, "s", len(tr.durations("sim.alone")))
	b.put("sim.host_ns_per_cycle", float64(untraced.Nanoseconds())/float64(cycles), "ns", len(b.points))
	b.put("results.open_ms", tr.medianMS("results.Open"), "ms", len(tr.durations("results.Open")))
	b.put("results.key_us", tr.medianMS("results.Key")*1e3, "us", len(tr.durations("results.Key")))
	for _, k := range []string{"results.hits_per_get", "results.written", "results.shard_reads", "exp.executed",
		"fleet.simulated", "fleet.cached", "fleet.stolen", "sampling.ff_frac"} {
		unit := "count"
		if k == "sampling.ff_frac" {
			unit = "frac"
		}
		b.put(k, e.counts[k], unit, 0)
	}
	b.put("exp.coverage_us", tr.medianMS("exp.Coverage")*1e3, "us", len(tr.durations("exp.Coverage")))
	b.put("exp.render_ms", tr.medianMS("exp.render.warm"), "ms", len(tr.durations("exp.render.warm")))
	b.put("exp.prefetch_s", tr.medianMS("exp.PrefetchContext")/1e3, "s", len(tr.durations("exp.PrefetchContext")))
	b.put("serve.handler_ms", handlerMS, "ms", len(tr.durations("serve.Handler")))
	b.put("serve.http_overhead_ms", httpMS, "ms", len(tr.durations("serve.Handler")))
	b.put("serve.warm_p99_ms", percentile(e.gets.lat, 99), "ms", len(e.gets.lat))
	b.put("serve.max_rps", separatingRate(e.trials), "1/s", len(e.trials))
	b.put("serve.gen_late_p99_ms", percentile(e.gets.late, 99), "ms", len(e.gets.late))
	b.put("serve.status_200", float64(e.gets.status[200]), "count", 0)
	b.put("serve.status_429", float64(e.gets.status[429]), "count", 0)
	var s5xx int
	for code, n := range e.gets.status {
		if code >= 500 {
			s5xx += n
		}
	}
	b.put("serve.status_5xx", float64(s5xx), "count", 0)
	b.put("serve.timeouts", float64(e.gets.timeouts), "count", 0)
	b.put("serve.refused", float64(e.gets.ref), "count", 0)
	b.put("fleet.lease_ms", tr.medianMS("fleet.lease"), "ms", len(tr.durations("fleet.lease")))
	b.put("fleet.result_ms", tr.medianMS("fleet.result"), "ms", len(tr.durations("fleet.result")))
	for _, l := range profiledLayers {
		b.put("self."+l, fold[l], "%", len(samples))
	}
	b.put("self.encoding_json", fold["encoding/json"], "%", len(samples))
	b.put("self.runtime_gc", fold["runtime_gc"], "%", len(samples))
	path := filepath.Join(buildDir(), fmt.Sprintf("perfbench-spans-%s-%d.json", b.name, b.seed))
	return tr.write(path)
}
