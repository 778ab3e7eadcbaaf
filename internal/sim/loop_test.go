package sim

import "testing"

// TestSkipAheadMatchesEveryCycle verifies the central claim of the
// event-batched loop: skipping provably idle cycles changes nothing. The
// two loops must agree cycle-for-cycle on every architectural outcome.
// Between them the cases issue every DRAM command — aqua migrates rows
// (MIG), hydra reads its in-DRAM counters (AUX) — so every release the
// device's wake bound tracks is checked end to end; the 4-channel case
// queries every channel's bound on each skip.
func TestSkipAheadMatchesEveryCycle(t *testing.T) {
	for _, tc := range []struct {
		mech     string
		mix      string
		bh       bool
		lsu      bool
		channels int
	}{
		{mech: "none", mix: "HHMM"},
		{mech: "graphene", mix: "MLLA", bh: true},
		{mech: "rfm", mix: "LLLA", bh: true},
		{mech: "prac", mix: "MLLA"},
		{mech: "graphene", mix: "MLLA", bh: true, lsu: true},
		{mech: "aqua", mix: "MLLA"},
		{mech: "hydra", mix: "MLLA", bh: true},
		{mech: "graphene", mix: "HHMA", bh: true, channels: 4},
	} {
		tc := tc
		name := tc.mech + "/" + tc.mix
		if tc.lsu {
			name += "/lsu"
		}
		if tc.channels > 1 {
			name += "/" + string(rune('0'+tc.channels)) + "ch"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig()
			cfg.Mechanism = tc.mech
			cfg.NRH = 256
			cfg.BreakHammer = tc.bh
			cfg.Channels = tc.channels
			if tc.lsu {
				cfg.ThrottleAt = "lsu"
			}
			mix := mustMix(t, tc.mix)

			skip, err := NewSystem(cfg, mix)
			if err != nil {
				t.Fatal(err)
			}
			rs := skip.Run()

			every, err := NewSystem(cfg, mix)
			if err != nil {
				t.Fatal(err)
			}
			every.everyCycle = true // the gated path, forced as the oracle
			re := every.Run()

			if tc.mech == "aqua" && rs.MC.Migrations == 0 {
				t.Error("aqua issued no row migrations (MIG)")
			}
			if tc.mech == "hydra" && rs.MC.AuxAccesses == 0 {
				t.Error("hydra issued no counter-table accesses (AUX)")
			}
			if rs.Cycles != re.Cycles {
				t.Errorf("Cycles: skip %d != every-cycle %d", rs.Cycles, re.Cycles)
			}
			if rs.MC.TotalACTs != re.MC.TotalACTs {
				t.Errorf("TotalACTs: skip %d != every-cycle %d", rs.MC.TotalACTs, re.MC.TotalACTs)
			}
			if rs.MC.Refreshes != re.MC.Refreshes {
				t.Errorf("Refreshes: skip %d != every-cycle %d", rs.MC.Refreshes, re.MC.Refreshes)
			}
			if rs.Actions != re.Actions {
				t.Errorf("Actions: skip %d != every-cycle %d", rs.Actions, re.Actions)
			}
			if rs.EnergyNJ != re.EnergyNJ {
				t.Errorf("EnergyNJ: skip %g != every-cycle %g", rs.EnergyNJ, re.EnergyNJ)
			}
			for i := range rs.IPC {
				if rs.IPC[i] != re.IPC[i] {
					t.Errorf("IPC[%d]: skip %g != every-cycle %g", i, rs.IPC[i], re.IPC[i])
				}
				if rs.Insts[i] != re.Insts[i] {
					t.Errorf("Insts[%d]: skip %d != every-cycle %d", i, rs.Insts[i], re.Insts[i])
				}
			}
			if tc.bh && rs.BH.ActionsObserved != re.BH.ActionsObserved {
				t.Errorf("BH.ActionsObserved: skip %d != every-cycle %d",
					rs.BH.ActionsObserved, re.BH.ActionsObserved)
			}
		})
	}
}

// TestMultiChannelEndToEnd runs the same attack mix on 2- and 4-channel
// systems: the run must complete, the merged stats must equal the
// channel-wise sums, and BreakHammer must still attribute the attack to
// the right thread even though its activations spread over all channels
// (cross-channel attribution).
func TestMultiChannelEndToEnd(t *testing.T) {
	for _, channels := range []int{2, 4} {
		channels := channels
		t.Run(string(rune('0'+channels))+"ch", func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig()
			cfg.Channels = channels
			cfg.Mechanism = "graphene"
			cfg.NRH = 128
			cfg.BreakHammer = true
			res, err := RunMix(cfg, mustMix(t, "MLLA"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.BenignFinished {
				t.Error("benign cores unfinished")
			}
			if len(res.MCChannels) != channels {
				t.Fatalf("MCChannels has %d entries, want %d", len(res.MCChannels), channels)
			}
			var acts, demand int64
			activeChannels := 0
			for _, chStats := range res.MCChannels {
				acts += chStats.TotalACTs
				demand += chStats.DemandACTs[3]
				if chStats.TotalACTs > 0 {
					activeChannels++
				}
			}
			if acts != res.MC.TotalACTs {
				t.Errorf("channel ACT sum %d != merged %d", acts, res.MC.TotalACTs)
			}
			if demand != res.MC.DemandACTs[3] {
				t.Errorf("attacker demand-ACT sum %d != merged %d", demand, res.MC.DemandACTs[3])
			}
			if activeChannels != channels {
				t.Errorf("only %d of %d channels saw activations", activeChannels, channels)
			}
			if res.BH.SuspectEvents[3] == 0 {
				t.Error("attacker spread across channels was not identified")
			}
			for tid := 0; tid < 3; tid++ {
				if res.BH.SuspectEvents[tid] != 0 {
					t.Errorf("benign thread %d wrongly marked suspect", tid)
				}
			}
		})
	}
}

// TestSingleChannelConfigIsDefault checks the zero value and the
// validation rule for the new Channels knob.
func TestSingleChannelConfigIsDefault(t *testing.T) {
	cfg := tinyConfig()
	if cfg.channels() != 1 {
		t.Errorf("zero-value Channels must mean 1, got %d", cfg.channels())
	}
	cfg.Channels = 3
	if err := cfg.Validate(); err == nil {
		t.Error("Channels=3 (not a power of two) accepted")
	}
	cfg.Channels = -2
	if err := cfg.Validate(); err == nil {
		t.Error("negative Channels accepted")
	}
}

// TestMultiChannelMechanismPerChannel verifies every channel got its own
// mitigation instance and preventive actions flow on each of them.
func TestMultiChannelMechanismPerChannel(t *testing.T) {
	cfg := tinyConfig()
	cfg.Channels = 2
	cfg.Mechanism = "graphene"
	cfg.NRH = 128
	sys, err := NewSystem(cfg, mustMix(t, "MLLA"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Mechanisms()) != 2 {
		t.Fatalf("%d mechanism instances, want 2", len(sys.Mechanisms()))
	}
	res := sys.Run()
	for ch, chStats := range res.MCChannels {
		if chStats.VRRs == 0 {
			t.Errorf("channel %d issued no victim-row refreshes under attack", ch)
		}
	}
}
