package main

import (
	"fmt"
	"time"

	"breakhammer/internal/cache"
	"breakhammer/internal/core"
	"breakhammer/internal/cpu"
	"breakhammer/internal/dram"
	"breakhammer/internal/mitigation"
	"breakhammer/internal/sim"
	"breakhammer/internal/stats"
	"breakhammer/internal/workload"
)

// Replays time single layers on input recorded from, or drawn exactly
// like, the traced simulations: the DRAM command stream, the activation
// stream, and the workload sources. Each layer is driven through its
// public functions only.

const (
	maxRecorded  = 400_000 // commands or activations recorded per stream
	replayRounds = 3       // a replay's time is its fastest of this many rounds
	replayAccess = 200_000 // accesses drawn per source for the cache replay
	replayCycles = 300_000 // cycles the core replay runs
	// The core replay's memory completes one read every
	// replayFillInterval cycles and queues at most a quarter of the
	// controller's read queue, one core's share in the four-core mixes.
	replayFillInterval = 40
	replayQueueShare   = 4
)

// replayMechs are the mechanisms the activation stream is replayed into,
// the union of the sim workloads' mechanisms.
var replayMechs = []string{"graphene", "prac", "rfm", "blockhammer"}

type dramCmd struct {
	cmd  dram.Command
	addr dram.Addr
	now  int64
}

type activation struct {
	ch, bank, row, thread int
	now                   int64
}

// recording is the command and activation streams of one simulation.
type recording struct {
	cfg      sim.Config
	threads  int
	channels int
	cmds     []dramCmd    // channel 0's commands
	acts     []activation // every channel's demand activations, in issue order
}

// recorder attaches hooks to traced systems until the caps are reached.
type recorder struct {
	recs       []*recording
	cmds, acts int
}

func (r *recorder) attach(sys *sim.System, cfg sim.Config, threads int) {
	if r.cmds >= maxRecorded && r.acts >= maxRecorded {
		return
	}
	rec := &recording{cfg: cfg, threads: threads, channels: sys.Memory().Channels()}
	r.recs = append(r.recs, rec)
	sys.Controller().Device().SetIssueHook(func(cmd dram.Command, addr dram.Addr, now int64) {
		if r.cmds < maxRecorded {
			rec.cmds = append(rec.cmds, dramCmd{cmd, addr, now})
			r.cmds++
		}
	})
	for ch := 0; ch < sys.Memory().Channels(); ch++ {
		sys.Memory().Channel(ch).AddActivateHook(func(bank, row, thread int, now int64) {
			if r.acts < maxRecorded {
				rec.acts = append(rec.acts, activation{ch, bank, row, thread, now})
				r.acts++
			}
		})
	}
}

// fastest runs f replayRounds times and returns its shortest time.
func fastest(f func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < replayRounds; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// replayDRAM replays the recorded commands into fresh devices three ways
// (Issue alone, CanIssue before each Issue, NextRelease before each
// Issue) and returns the per-call cost of CanIssue and NextRelease as
// the difference to the Issue-only replay.
func replayDRAM(recs []*recording) (canIssueNS, nextReleaseNS float64, err error) {
	n := 0
	for _, r := range recs {
		n += len(r.cmds)
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no DRAM commands recorded")
	}
	var sink int64
	run := func(probe func(d *dram.Device, c dramCmd)) func() error {
		return func() error {
			for _, r := range recs {
				d, err := dram.NewDevice(r.cfg.DRAM, r.cfg.Timing)
				if err != nil {
					return err
				}
				for _, c := range r.cmds {
					probe(d, c)
					d.Issue(c.cmd, c.addr, c.now)
				}
			}
			return nil
		}
	}
	base, err := fastest(run(func(*dram.Device, dramCmd) {}))
	if err != nil {
		return 0, 0, err
	}
	can, err := fastest(run(func(d *dram.Device, c dramCmd) {
		if d.CanIssue(c.cmd, c.addr, c.now) {
			sink++
		}
	}))
	if err != nil {
		return 0, 0, err
	}
	next, err := fastest(run(func(d *dram.Device, c dramCmd) { sink += d.NextRelease(c.now) }))
	if err != nil {
		return 0, 0, err
	}
	_ = sink
	perCall := func(d time.Duration) float64 { return float64((d - base).Nanoseconds()) / float64(n) }
	return perCall(can), perCall(next), nil
}

type nopIssuer struct{}

func (nopIssuer) RequestVRR(int, []int)          {}
func (nopIssuer) RequestRFM(int)                 {}
func (nopIssuer) RequestAux(int)                 {}
func (nopIssuer) RequestMigration(int, int, int) {}
func (nopIssuer) RequestBackoff(int, int)        {}

func mitigationParams(cfg sim.Config, threads int) mitigation.Params {
	return mitigation.Params{
		NRH:         256,
		BlastRadius: cfg.BlastRadius,
		Banks:       cfg.DRAM.TotalBanks(),
		RowsPerBank: cfg.DRAM.RowsPerBank,
		Threads:     threads,
		REFW:        cfg.Timing.REFW,
		REFI:        cfg.Timing.REFI,
		RC:          cfg.Timing.RC,
		Seed:        cfg.Seed,
	}
}

// replayActivations replays the recorded activation stream into fresh
// instances of each mechanism (one per channel, as the simulator wires
// them, at N_RH 256 with a no-op issuer) and into BreakHammer (one per
// system), returning ns per OnActivate call.
func replayActivations(recs []*recording) (perMech map[string]float64, bhNS float64, err error) {
	n := 0
	for _, r := range recs {
		n += len(r.acts)
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("no activations recorded")
	}
	perMech = map[string]float64{}
	for _, name := range replayMechs {
		d, err := fastest(func() error {
			for _, r := range recs {
				mechs := make([]mitigation.Mechanism, r.channels)
				for ch := range mechs {
					m, err := mitigation.New(name, mitigationParams(r.cfg, r.threads), nopIssuer{}, nil)
					if err != nil {
						return err
					}
					mechs[ch] = m
				}
				for _, a := range r.acts {
					mechs[a.ch].OnActivate(a.bank, a.row, a.thread, a.now)
				}
			}
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		perMech[name] = float64(d.Nanoseconds()) / float64(n)
	}
	d, err := fastest(func() error {
		for _, r := range recs {
			bh := core.New(core.DefaultParams(r.threads, r.cfg.Cache.MSHRs, r.cfg.BHWindow))
			for _, a := range r.acts {
				bh.OnActivate(a.thread)
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return perMech, float64(d.Nanoseconds()) / float64(n), nil
}

// access is one memory access drawn from a workload source.
type access struct {
	line  uint64
	write bool
}

// acceptAll is a memory backend that takes every request.
type acceptAll struct{}

func (acceptAll) EnqueueRead(uint64, int) bool  { return true }
func (acceptAll) EnqueueWrite(uint64, int) bool { return true }

// replayCache draws accesses from a spec's source and replays them into
// a fresh LLC whose misses fill at once. It returns ns per access.
func replayCache(cfg sim.Config, spec workload.Spec) (float64, error) {
	src, err := workload.NewSource(spec, 0)
	if err != nil {
		return 0, err
	}
	accs := make([]access, replayAccess)
	for i := range accs {
		_, line, write := src.Next()
		accs[i] = access{line, write}
	}
	done := func() {}
	d, err := fastest(func() error {
		llc := cache.New(cfg.Cache, 1, acceptAll{})
		for _, a := range accs {
			if a.write {
				llc.Write(a.line, 0)
			} else {
				llc.Read(a.line, 0, done)
			}
			if llc.InFlight() > 0 {
				llc.Fill(a.line)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(d.Nanoseconds()) / float64(len(accs)), nil
}

// slowMemory is a bandwidth-limited stand-in for the memory controller:
// it queues at most depth reads and completes one every interval cycles.
type slowMemory struct {
	llc      *cache.LLC
	queue    []uint64
	depth    int
	interval int64
	next     int64
}

func (m *slowMemory) EnqueueRead(line uint64, _ int) bool {
	if len(m.queue) >= m.depth {
		return false
	}
	m.queue = append(m.queue, line)
	return true
}

func (m *slowMemory) EnqueueWrite(uint64, int) bool { return true }

func (m *slowMemory) tick(now int64) {
	if len(m.queue) > 0 && now >= m.next {
		m.llc.Fill(m.queue[0])
		m.queue = m.queue[1:]
		m.next = now + m.interval
	}
}

// llcPort adapts an LLC to the core's memory port, as the simulator does.
type llcPort struct {
	llc    *cache.LLC
	hitLat int64
}

func (p llcPort) Read(line uint64, thread int, now int64, done func()) cpu.ReadResult {
	switch p.llc.Read(line, thread, done) {
	case cache.ReadHit:
		return cpu.ReadResult{OK: true, ReadyAt: now + p.hitLat}
	case cache.ReadMiss, cache.ReadMSHRHit:
		return cpu.ReadResult{OK: true, ReadyAt: -1}
	}
	return cpu.ReadResult{}
}

func (p llcPort) Write(line uint64, thread int, now int64) bool { return p.llc.Write(line, thread) }

// fixedQuota is an MSHR quota the replay sets, as BreakHammer sets a
// suspect thread's.
type fixedQuota struct{ limit int }

func (q *fixedQuota) MSHRQuota(int) int { return q.limit }

// replayCore runs one core on a spec's source against an LLC over
// slowMemory for replayCycles cycles: the first half with the LLC's
// full MSHRs, the second throttled to one MSHR, as BreakHammer throttles
// a thread it marks suspect, so the core sees memory refuse accesses.
// It returns ns per Core.Tick (including the cache accesses the tick
// makes) and the core's stats.
func replayCore(cfg sim.Config, spec workload.Spec) (float64, cpu.Stats, error) {
	var st cpu.Stats
	d, err := fastest(func() error {
		src, err := workload.NewSource(spec, 0)
		if err != nil {
			return err
		}
		mem := &slowMemory{depth: cfg.MC.ReadQueue / replayQueueShare, interval: replayFillInterval}
		llc := cache.New(cfg.Cache, 1, mem)
		quota := &fixedQuota{cfg.Cache.MSHRs}
		llc.SetQuotaProvider(quota)
		mem.llc = llc
		c := cpu.New(0, cfg.Core, src, llcPort{llc, cfg.Cache.HitLatency}, 1<<62)
		for now := int64(0); now < replayCycles; now++ {
			if now == replayCycles/2 {
				quota.limit = 1
			}
			mem.tick(now)
			llc.Tick()
			c.Tick(now)
		}
		st = *c.Stats()
		return nil
	})
	return float64(d.Nanoseconds()) / replayCycles, st, err
}

// mixResult completes a traced run's Result exactly as sim.RunMix does.
func mixResult(cfg sim.Config, mix workload.Mix, res sim.Result) (sim.MixResult, error) {
	res.MixName = mix.Name
	alone := make([]float64, len(mix.Specs))
	for i, spec := range mix.Specs {
		if !spec.Benign() {
			continue
		}
		a, err := sim.AloneIPC(cfg, spec)
		if err != nil {
			return sim.MixResult{}, err
		}
		alone[i] = a
	}
	return sim.MixResult{
		Result:     res,
		WS:         stats.WeightedSpeedup(res.IPC, alone, res.Benign),
		Unfairness: stats.MaxSlowdown(res.IPC, alone, res.Benign),
	}, nil
}
