package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"breakhammer/internal/results"
	"breakhammer/internal/scenario"
)

// scenarioTestOptions shrinks the adversarial grid to a test budget: two
// adaptive strategies against two defenses at one threshold.
func scenarioTestOptions() Options {
	o := QuickOptions()
	o.Base.TargetInsts = 40_000
	o.Base.BHWindow = 200_000
	o.NRHs = []int{256}
	o.Strategies = []string{scenario.StrategyProbe, scenario.StrategyDecoy}
	o.Defenses = []scenario.Defense{
		{Mechanism: "graphene", BH: true},
		{Mechanism: "none"},
	}
	return o
}

// TestScenariosWarmRerunSimulatesNothing is the scenario-grid acceptance
// criterion: a repeated frontier build against a persistent cache
// directory performs zero simulations and reproduces the table
// byte-identically.
func TestScenariosWarmRerunSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	opts := scenarioTestOptions()

	store1, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunnerWithStore(opts, store1)
	first, err := r1.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Executed() == 0 {
		t.Fatal("cold scenario grid executed no simulations")
	}

	store2, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunnerWithStore(opts, store2)
	second, err := r2.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Executed(); got != 0 {
		t.Errorf("warm scenario grid executed %d simulations, want 0", got)
	}
	if st := store2.Stats(); st.Misses != 0 {
		t.Errorf("warm scenario grid missed the cache %d times, want 0", st.Misses)
	}
	if first.CSV() != second.CSV() {
		t.Errorf("warm frontier table differs from the cold one:\ncold:\n%s\nwarm:\n%s",
			first.CSV(), second.CSV())
	}
}

// TestScenariosGoldenDigest pins the two-channel frontier table (a
// SHA-256 over its CSV): the scenario feedback loop runs through the
// multi-channel cycle batch, so a change to batch timing or drain order
// fails here. Regenerate only with a SchemaVersion-bumping change.
func TestScenariosGoldenDigest(t *testing.T) {
	opts := scenarioTestOptions()
	opts.Base.Channels = 2
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewRunnerWithStore(opts, store).Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(tab.CSV()))
	if got, want := hex.EncodeToString(sum[:]), "0736db07d76423fbbd72385cb80dba9b5488f1cc7172e475494466b4fdef5561"; got != want {
		t.Errorf("frontier digest %s, want %s\n%s", got, want, tab.CSV())
	}
}

// TestScenarioPointsFor: the "scenarios" selector enumerates the full
// strategy x defense grid, pinned to the lowest configured threshold.
func TestScenarioPointsFor(t *testing.T) {
	opts := scenarioTestOptions()
	opts.NRHs = []int{1024, 256}
	r := NewRunner(opts)
	points := r.PointsFor([]string{"scenarios"})
	want := len(opts.Strategies) * len(opts.Defenses)
	if len(points) != want {
		t.Fatalf("scenarios selector yields %d points, want %d", len(points), want)
	}
	for _, p := range points {
		if p.Scenario == "" {
			t.Errorf("point %s has no scenario", p)
		}
		if p.NRH != 256 {
			t.Errorf("point %s runs at NRH %d, want the minimum 256", p, p.NRH)
		}
	}
}

// TestOptionSpecScenarioValidation: strategy and defense overrides fail
// loudly with errors naming the offending token.
func TestOptionSpecScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		sp   OptionSpec
		want string // "" = must resolve
	}{
		{"valid", OptionSpec{Strategies: "probe, decoy", Defenses: "graphene+bh, none"}, ""},
		{"unknown strategy", OptionSpec{Strategies: "probe,warble"}, "warble"},
		{"unknown defense mechanism", OptionSpec{Defenses: "grapheen+bh"}, "grapheen"},
		{"duplicate defense", OptionSpec{Defenses: "graphene+bh,bh+graphene"}, "duplicate"},
		{"unstackable defense", OptionSpec{Defenses: "none+graphene"}, "stacked"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, err := c.sp.Resolve()
			if c.want == "" {
				if err != nil {
					t.Fatalf("Resolve() errored: %v", err)
				}
				if len(o.Strategies) != 2 || o.Strategies[0] != "probe" {
					t.Errorf("strategies = %v, want [probe decoy]", o.Strategies)
				}
				if len(o.Defenses) != 2 || o.Defenses[0].String() != "graphene+bh" {
					t.Errorf("defenses = %v, want [graphene+bh none]", o.Defenses)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Resolve() = %v, want error containing %q", err, c.want)
			}
		})
	}
}
