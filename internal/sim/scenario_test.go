package sim

import (
	"encoding/json"
	"testing"

	"breakhammer/internal/scenario"
	"breakhammer/internal/workload"
)

// scenarioTestConfig builds a small configuration running a composed
// defense: mechanism (possibly a "+"-joined stack) plus BreakHammer.
func scenarioTestConfig(d scenario.Defense, channels int) Config {
	cfg := FastConfig()
	cfg.TargetInsts = 40_000
	cfg.BHWindow = 200_000
	cfg.Channels = channels
	cfg.Mechanism = d.Mechanism
	cfg.NRH = 256
	cfg.BreakHammer = d.BH
	return cfg
}

// runScenarioOnce simulates one adaptive-strategy mix and returns the
// full Result as JSON (the byte-level determinism identity).
func runScenarioOnce(t *testing.T, cfg Config, strategy string) []byte {
	t.Helper()
	mix, err := scenario.Mix(strategy, cfg.NRH, 9)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(sys.Run())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// scenarioBehaviorConfig is the scale at which the strategies' adaptive
// behaviour plays out within a test budget: graphene's refresh threshold
// is 64, so crossing trains and throttling windows both happen several
// times per run.
func scenarioBehaviorConfig() Config {
	cfg := FastConfig()
	cfg.TargetInsts = 150_000
	cfg.BHWindow = 250_000
	cfg.Mechanism = "graphene"
	cfg.NRH = 256
	cfg.BreakHammer = true
	return cfg
}

// runScenarioResult simulates one strategy mix and returns the Result.
func runScenarioResult(t *testing.T, cfg Config, strategy string) Result {
	t.Helper()
	mix, err := scenario.Mix(strategy, cfg.NRH, 9)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run()
}

// blameShares splits BreakHammer's cumulative attributed score into the
// benign and attacker fractions.
func blameShares(res Result) (benign, attacker float64) {
	var total float64
	for i, b := range res.Benign {
		total += res.BH.AttributedScore[i]
		if b {
			benign += res.BH.AttributedScore[i]
		} else {
			attacker += res.BH.AttributedScore[i]
		}
	}
	if total == 0 {
		return 0, 0
	}
	return benign / total, attacker / total
}

// TestProbeEvadesSuspectIdentification: under graphene+BH the plain
// hammer is marked and throttled while the threshold-probing strategy —
// which hovers under the throttling score — triggers preventive actions
// yet never accumulates a suspect window.
func TestProbeEvadesSuspectIdentification(t *testing.T) {
	cfg := scenarioBehaviorConfig()
	hammer := runScenarioResult(t, cfg, scenario.StrategyHammer)
	probe := runScenarioResult(t, cfg, scenario.StrategyProbe)

	var hammerWins int64
	for i, b := range hammer.Benign {
		if !b {
			hammerWins += hammer.BH.SuspectWindows[i]
		}
	}
	if hammerWins == 0 {
		t.Fatal("plain hammer was never marked suspect — the comparison scale is too small to prove anything")
	}
	if probe.Actions == 0 {
		t.Fatal("probe triggered no preventive actions — it never hammered")
	}
	for i, b := range probe.Benign {
		if !b && probe.BH.SuspectWindows[i] != 0 {
			t.Errorf("probe thread %d spent %d window(s) throttled, want 0 (score hovering failed)",
				i, probe.BH.SuspectWindows[i])
		}
	}
}

// TestDecoyShiftsBlameOntoBenignThreads: the decoy's prime-and-poke
// pattern makes preventive actions fire when benign threads dominate the
// attribution window, so the benign share of the cumulative attributed
// score far exceeds the plain hammer's, while the decoy threads stay
// unmarked.
func TestDecoyShiftsBlameOntoBenignThreads(t *testing.T) {
	cfg := scenarioBehaviorConfig()
	hammer := runScenarioResult(t, cfg, scenario.StrategyHammer)
	decoy := runScenarioResult(t, cfg, scenario.StrategyDecoy)

	if decoy.Actions == 0 {
		t.Fatal("decoy triggered no preventive actions — nothing was laundered")
	}
	hammerBenign, _ := blameShares(hammer)
	decoyBenign, _ := blameShares(decoy)
	if decoyBenign <= hammerBenign {
		t.Errorf("decoy benign blame share %.3f not above hammer's %.3f", decoyBenign, hammerBenign)
	}
	if decoyBenign < 0.5 {
		t.Errorf("decoy benign blame share %.3f: benign threads should absorb the majority of the blame", decoyBenign)
	}
	for i, b := range decoy.Benign {
		if !b && decoy.BH.SuspectWindows[i] != 0 {
			t.Errorf("decoy thread %d spent %d window(s) throttled, want 0", i, decoy.BH.SuspectWindows[i])
		}
	}
}

// TestScenarioFingerprintSeparatesStrategies: two strategy mixes (and
// the same strategy at two parameterisations) must never share a content
// address.
func TestScenarioFingerprintSeparatesStrategies(t *testing.T) {
	cfg := FastConfig()
	fps := map[string]string{}
	for _, strategy := range scenario.Strategies() {
		mix, err := scenario.Mix(strategy, 256, 9)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := Fingerprint(cfg, []workload.Mix{mix})
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := fps[string(fp)]; dup {
			t.Errorf("strategies %s and %s share a fingerprint", prev, strategy)
		}
		fps[string(fp)] = strategy
	}
	// Same strategy, different modelled trigger: distinct fingerprints.
	a, err := scenario.Mix(scenario.StrategyDecoy, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Mix(scenario.StrategyDecoy, 1024, 9)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := Fingerprint(cfg, []workload.Mix{a})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Fingerprint(cfg, []workload.Mix{b})
	if err != nil {
		t.Fatal(err)
	}
	if string(fa) == string(fb) {
		t.Error("decoy mixes with different trigger args share a fingerprint")
	}
}
