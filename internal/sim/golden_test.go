package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"breakhammer/internal/scenario"
	"breakhammer/internal/workload"
)

// The golden digests below are SHA-256 sums of complete simulation
// outcomes: the JSON encoding of the whole Result (merged and
// per-channel controller stats, cache stats, BreakHammer stats, latency
// histograms, energy) or, for the event-order pin, the full cross-
// channel observer streams. They pin the multi-channel cycle-batch
// timing (results SchemaVersion 2): a change that reorders the batch
// drain, re-times a channel or perturbs any counter fails here.
// Regenerate a digest ONLY for an intentional, SchemaVersion-bumping
// behavior change; the failure message prints the new value.

// multiChannelTestConfig returns a small multi-channel configuration
// that still exercises the full callback surface: a trigger-based
// mechanism (Graphene) paired with BreakHammer, so activate hooks,
// observer signals, LLC fills and latency reports all cross the channel
// boundary.
func multiChannelTestConfig(channels int) Config {
	cfg := FastConfig()
	cfg.TargetInsts = 40_000
	cfg.BHWindow = 200_000
	cfg.Channels = channels
	cfg.Mechanism = "graphene"
	cfg.NRH = 256
	cfg.BreakHammer = true
	return cfg
}

// runOnce simulates mixName under cfg and returns the full Result
// serialized to JSON — the byte-level identity the determinism contract
// is stated in.
func runOnce(t *testing.T, cfg Config, mixName string) []byte {
	t.Helper()
	mix, err := workload.ParseMix(mixName, 5)
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

// checkDigest compares the SHA-256 of raw against want.
func checkDigest(t *testing.T, raw []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("digest %s, want %s\noutput: %.400s", got, want, raw)
	}
}

// TestMultiChannelGoldenDigests pins exact skip-ahead runs at every
// supported channel count, for both an attack and a benign mix.
func TestMultiChannelGoldenDigests(t *testing.T) {
	golden := map[string]string{
		"channels=1/mix=HLMA": "87375997c577ae655e4d9aa4c89247620ff1c5b47c66e6622889475a9a1fe9c6",
		"channels=1/mix=HML":  "b4b9b6c3565e00df3e4c0be5c2d6f3fee6d44b2e41646b13aa3a4bf913afc97e",
		"channels=2/mix=HLMA": "93f13b788b5b64fce357b4629c8881026886cf0d00a58c4c83eed0a79d29e997",
		"channels=2/mix=HML":  "bc0b28da10b6d68dd4ad89035ec38ff9801f02dac3671b0ac4dc0ee415489f80",
		"channels=4/mix=HLMA": "05fdddfe40e1a70efc2821b9589c2d254b06a71b527800e726534be5aa4e0f7c",
		"channels=4/mix=HML":  "ace2fe44e55e47e83a15140c31a4628fd1ee97b3272914be5d43fff488ea7acc",
		"channels=8/mix=HLMA": "232ee5dc7fe35f94e37bf9de98342a13582af9761020e8fe12a4d4e1fc2cdc96",
		"channels=8/mix=HML":  "199961dc04d78e22b1b3f48e1d525f6353fe56889d8f73344783ca1da81b0b37",
	}
	for _, channels := range []int{1, 2, 4, 8} {
		for _, mixName := range []string{"HLMA", "HML"} {
			name := fmt.Sprintf("channels=%d/mix=%s", channels, mixName)
			t.Run(name, func(t *testing.T) {
				checkDigest(t, runOnce(t, multiChannelTestConfig(channels), mixName), golden[name])
			})
		}
	}
}

// TestEveryCycleLoopGoldenDigest pins the gated every-cycle path:
// BlockHammer's ActGate forces it, and the gate runs inside each
// channel's tick of the cycle batch.
func TestEveryCycleLoopGoldenDigest(t *testing.T) {
	cfg := multiChannelTestConfig(4)
	cfg.Mechanism = "blockhammer"
	cfg.BreakHammer = false
	checkDigest(t, runOnce(t, cfg, "HLMA"), "5bc12d0a8ae008c97ab0e8ce38f20d09792a37b6d5737bc449ac5eae90dad0f1")
}

// TestSampledGoldenDigests extends the pin to the sampled driver: mode
// switches, functional replay and window aggregation over a multi-
// channel batch.
func TestSampledGoldenDigests(t *testing.T) {
	golden := map[string]string{
		"channels=1/mix=HLMA": "4c95a08a2e0507a637d808dd9b9d71d6dfc0c0c194c7365bb66a5e7141bf9324",
		"channels=1/mix=HML":  "1bb168649499fdc76780de501376d29a748d7ad1997a207ce7e1228e457d1e19",
		"channels=2/mix=HLMA": "825279b9e75e051fe1449864e07b6b8aa119705a6b0b4e68de56eb487286183f",
		"channels=2/mix=HML":  "44eda3bb0832c3d0bc49c3dcc8e80a7c9b4b10ec85ef5d5b9fea5f26a26f1b13",
		"channels=4/mix=HLMA": "af6959ec5f51e87031e1f57880368662951adac2efd7a4c7886b86897028e470",
		"channels=4/mix=HML":  "dd7914d3e3f2dc16ae50f345cd266f6e979d7bc7991e04bc6ff6eb66f440247a",
	}
	for _, channels := range []int{1, 2, 4} {
		for _, mixName := range []string{"HLMA", "HML"} {
			name := fmt.Sprintf("channels=%d/mix=%s", channels, mixName)
			t.Run(name, func(t *testing.T) {
				checkDigest(t, runOnce(t, sampledTestConfig(channels), mixName), golden[name])
			})
		}
	}
}

// TestScenarioGoldenDigests pins the adaptive scenario engine on two
// channels: two adaptive strategies against two composed defenses (one
// of them a genuine mechanism stack), so feedback delivery and strategy
// adaptation are covered by the batch-timing pin.
func TestScenarioGoldenDigests(t *testing.T) {
	golden := map[string]string{
		"probe/graphene+bh": "b4406843853bd4e194a437c004f66786219cb09a7a3ed1d9697bab9f9a573cc2",
		"probe/prac+rfm+bh": "ca07a798cc9c16aa9c1e45b92bad7269b34c8e9436e4bbe41a8d9dfeb329a07b",
		"decoy/graphene+bh": "5f17ab5e1174dc57d72e93fef524d3c5be1b1bd5522ee04f06b495239eb9951e",
		"decoy/prac+rfm+bh": "bf241846e72511829d267ab627bf316141e1cee3720c58e8da7b3d3e96656521",
	}
	defenses := []scenario.Defense{
		{Mechanism: "graphene", BH: true},
		{Mechanism: "prac+rfm", BH: true},
	}
	for _, strategy := range []string{scenario.StrategyProbe, scenario.StrategyDecoy} {
		for _, d := range defenses {
			name := fmt.Sprintf("%s/%s", strategy, d)
			t.Run(name, func(t *testing.T) {
				checkDigest(t, runScenarioOnce(t, scenarioTestConfig(d, 2), strategy), golden[name])
			})
		}
	}
}

// TestCrossChannelEventOrderGolden pins the batch-drain contract stated
// in DESIGN.md: cross-channel observers — BreakHammer's attribution hook
// and the latency sink — see every event in channel-index order at the
// end of each cycle batch. The digest covers both full sequences
// (values and order).
func TestCrossChannelEventOrderGolden(t *testing.T) {
	mix, err := workload.ParseMix("HLMA", 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(multiChannelTestConfig(4), mix)
	if err != nil {
		t.Fatal(err)
	}
	// The recording hook is appended after BreakHammer's and the
	// mechanisms', so it sees the drained stream in the order they do;
	// the recording sink replaces the histogram recorder.
	var events strings.Builder
	channels := map[int]bool{}
	sys.Memory().AddActivateHook(func(channel, bank, row, thread int, now int64) {
		channels[channel] = true
		fmt.Fprintf(&events, "act ch%d b%d r%d t%d @%d\n", channel, bank, row, thread, now)
	})
	sys.Memory().SetLatencySink(func(thread int, cycles int64) {
		fmt.Fprintf(&events, "lat t%d %d\n", thread, cycles)
	})
	sys.Run()
	// The streams came from several channels, or the test proves nothing
	// about cross-channel ordering.
	if len(channels) < 2 {
		t.Fatalf("activation stream touched only %d channel(s)", len(channels))
	}
	checkDigest(t, []byte(events.String()), "48b87a5e1d88f3d1fe49544b1b87ef4ea201cefae31645cf57b7861c4d81b1cf")
}
