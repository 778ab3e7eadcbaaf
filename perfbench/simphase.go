package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"breakhammer/internal/sim"
	"breakhammer/internal/workload"
)

// simPoint is one simulation the sim phase runs through sim.RunMix.
type simPoint struct {
	label string
	cfg   sim.Config
	mix   workload.Mix
}

// Point sizes. The sim workloads run points long enough that the
// mechanisms and BreakHammer fire hundreds of preventive actions; the
// service workload runs short points so per-point overhead above the
// simulator is a visible share.
const (
	attackInsts = 60_000
	bhInsts     = 80_000
	svcInsts    = 15_000
)

var (
	attackGroups = []string{"HHMA", "MMLA", "HLLA"}
	allAttack    = []string{"HHHA", "HHMA", "MMMA", "HLLA", "MMLA", "LLLA"}
	allBenign    = []string{"HHHH", "HHMM", "MMMM", "HHLL", "MMLL", "LLLL"}
)

// mixSeed individualises the member traces of the i-th mix of a run.
func mixSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*104_729 + 1 }

func mixes(groups []string, seed int64, offset int) []workload.Mix {
	var out []workload.Mix
	for i, g := range groups {
		m, err := workload.ParseMix(g, mixSeed(seed, offset+i))
		if err != nil {
			panic(err) // the groups are constants
		}
		out = append(out, m)
	}
	return out
}

func baseConfig(insts int64, seed int64) sim.Config {
	c := sim.FastConfig()
	c.TargetInsts = insts
	c.BHWindow = 250_000
	c.Seed = seed
	return c
}

// attackPoints: attack mixes under graphene+BH, prac+BH and rfm+BH at
// N_RH 256 on 1 and 4 channels. They run the skip-ahead loop, whose DRAM
// wake bound and FR-FCFS scheduling dominate the host time.
func attackPoints(seed int64) []simPoint {
	var out []simPoint
	for _, ch := range []int{1, 4} {
		for _, mech := range []string{"graphene", "prac", "rfm"} {
			for _, m := range mixes(attackGroups, seed, 0) {
				cfg := baseConfig(attackInsts, seed)
				cfg.Channels = ch
				cfg.NRH = 256
				cfg.Mechanism = mech
				cfg.BreakHammer = true
				out = append(out, simPoint{fmt.Sprintf("%s+BH/ch%d/%s", mech, ch, m.Name), cfg, m})
			}
		}
	}
	return out
}

// blockHammerPoints: BlockHammer at N_RH 1024 on attack and benign
// mixes. BlockHammer's activation gate forces the every-cycle loop and
// the gated scheduler.
func blockHammerPoints(seed int64) []simPoint {
	var out []simPoint
	for _, m := range append(mixes(allAttack, seed, 0), mixes(allBenign, seed, len(allAttack))...) {
		cfg := baseConfig(bhInsts, seed)
		cfg.NRH = 1024
		cfg.Mechanism = "blockhammer"
		out = append(out, simPoint{"blockhammer/" + m.Name, cfg, m})
	}
	return out
}

// aloneJob is one alone-mode baseline: a benign spec on a system.
type aloneJob struct {
	cfg  sim.Config
	spec workload.Spec
}

// aloneJobs lists the distinct alone baselines the points need.
func aloneJobs(points []simPoint) []aloneJob {
	seen := map[string]bool{}
	var out []aloneJob
	for _, p := range points {
		for _, spec := range p.mix.Specs {
			if !spec.Benign() {
				continue
			}
			cfg := p.cfg
			cfg.Mechanism, cfg.BreakHammer, cfg.NRH, cfg.Seed = "none", false, 1024, 0
			k := fmt.Sprintf("%+v|%+v", cfg, spec)
			if !seen[k] {
				seen[k] = true
				out = append(out, aloneJob{cfg, spec})
			}
		}
	}
	return out
}

// runAlone computes one baseline exactly as sim.AloneIPC does, but
// without its process-wide memo, so repeated set-ups do the same work.
func runAlone(j aloneJob) (float64, error) {
	sys, err := sim.NewSystem(j.cfg, workload.Mix{Name: "alone-" + j.spec.Name, Specs: []workload.Spec{j.spec}})
	if err != nil {
		return 0, err
	}
	return sys.Run().IPC[0], nil
}

// resultDigest is the content digest of one point's simulated result.
func resultDigest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}
