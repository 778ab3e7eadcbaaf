package dram_test

import (
	"sync"
	"testing"

	"breakhammer/internal/dram"
	"breakhammer/internal/sim"
	"breakhammer/internal/workload"
)

// issued is one command of a recorded DRAM command stream.
type issued struct {
	cmd  dram.Command
	addr dram.Addr
	now  int64
}

var (
	streamOnce sync.Once
	streamCfg  sim.Config
	stream     []issued
	streamErr  error
)

// recordStream records channel 0's command stream of a graphene+BH HHMA
// run at N_RH 256, sized like the simulator's integration tests.
func recordStream(b *testing.B) (sim.Config, []issued) {
	b.Helper()
	streamOnce.Do(func() {
		cfg := sim.FastConfig()
		cfg.TargetInsts = 150_000
		cfg.BHWindow = 250_000
		cfg.MaxCycles = 30_000_000
		cfg.Mechanism = "graphene"
		cfg.NRH = 256
		cfg.BreakHammer = true
		mix, err := workload.ParseMix("HHMA", 17)
		if err != nil {
			streamErr = err
			return
		}
		sys, err := sim.NewSystem(cfg, mix)
		if err != nil {
			streamErr = err
			return
		}
		sys.Controller().Device().SetIssueHook(func(cmd dram.Command, addr dram.Addr, now int64) {
			stream = append(stream, issued{cmd, addr, now})
		})
		sys.Run()
		streamCfg = cfg
	})
	if streamErr != nil {
		b.Fatal(streamErr)
	}
	return streamCfg, stream
}

var releaseSink int64

// BenchmarkNextRelease replays a recorded command stream into a device,
// one command per op, asking the wake bound at each command's cycle
// before issuing it. "issue" only issues, so the cost of one query,
// including the release tracking it turns on in Issue, is "queue" minus
// "issue"; "scan" asks the rescan oracle the release queue replaced.
func BenchmarkNextRelease(b *testing.B) {
	cfg, cmds := recordStream(b)
	for _, bc := range []struct {
		name  string
		query func(d *dram.Device, now int64) int64
	}{
		{"issue", nil},
		{"queue", (*dram.Device).NextRelease},
		{"scan", dram.NextReleaseScan},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fresh := func() *dram.Device {
				d, err := dram.NewDevice(cfg.DRAM, cfg.Timing)
				if err != nil {
					b.Fatal(err)
				}
				if bc.query != nil {
					releaseSink += bc.query(d, 0)
				}
				return d
			}
			d := fresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i, j = i+1, j+1 {
				if j == len(cmds) {
					b.StopTimer()
					d, j = fresh(), 0
					b.StartTimer()
				}
				c := cmds[j]
				if bc.query != nil {
					releaseSink += bc.query(d, c.now)
				}
				d.Issue(c.cmd, c.addr, c.now)
			}
		})
	}
}
