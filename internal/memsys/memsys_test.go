package memsys

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"breakhammer/internal/dram"
	"breakhammer/internal/memctrl"
)

func testConfig(channels int) Config {
	return Config{
		Channels: channels,
		DRAM:     dram.Default(),
		Timing:   dram.DDR5(),
		MC:       memctrl.DefaultConfig(),
	}
}

func TestValidateRejectsBadChannelCounts(t *testing.T) {
	for _, n := range []int{-1, 3, 6, 12} {
		cfg := testConfig(n)
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("Channels=%d accepted", n)
		}
	}
	for _, n := range []int{0, 1, 2, 8} {
		cfg := testConfig(n)
		m, err := New(cfg, 1)
		if err != nil {
			t.Fatalf("Channels=%d rejected: %v", n, err)
		}
		want := n
		if want == 0 {
			want = 1
		}
		if m.Channels() != want {
			t.Errorf("Channels=%d built %d controllers", n, m.Channels())
		}
	}
}

func TestRoutingFollowsMapper(t *testing.T) {
	m, err := New(testConfig(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, 2)
	for line := uint64(0); line < 256; line++ {
		if !m.EnqueueRead(line, 0) {
			break // queue full; enough traffic enqueued
		}
		want[m.Mapper().Map(line).Channel]++
	}
	for ch := 0; ch < 2; ch++ {
		reads, _ := m.Channel(ch).QueueOccupancy()
		if reads != want[ch] {
			t.Errorf("channel %d holds %d reads, mapper routed %d", ch, reads, want[ch])
		}
	}
	if want[0] == 0 || want[1] == 0 {
		t.Error("consecutive lines did not spread across both channels")
	}
}

func TestMergedStatsSumChannels(t *testing.T) {
	m, err := New(testConfig(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	fills := 0
	m.SetFillFunc(func(line uint64) { fills++ })
	for line := uint64(0); line < 64; line++ {
		if !m.EnqueueRead(line, int(line)%2) {
			t.Fatalf("enqueue %d rejected", line)
		}
	}
	for cycle := int64(0); cycle < 20000; cycle++ {
		m.Tick(cycle)
	}
	if fills != 64 {
		t.Fatalf("completed %d of 64 reads", fills)
	}
	merged := m.Stats()
	var perChannel memctrl.Stats
	for ch := 0; ch < m.Channels(); ch++ {
		perChannel.Add(m.ChannelStats(ch))
	}
	if merged.TotalACTs != perChannel.TotalACTs || merged.TotalACTs == 0 {
		t.Errorf("merged ACTs %d != channel sum %d", merged.TotalACTs, perChannel.TotalACTs)
	}
	for tid := range merged.ReadsDone {
		if merged.ReadsDone[tid] != perChannel.ReadsDone[tid] {
			t.Errorf("thread %d: merged reads %d != channel sum %d",
				tid, merged.ReadsDone[tid], perChannel.ReadsDone[tid])
		}
	}
	var total int64
	for _, n := range merged.ReadsDone {
		total += n
	}
	if total != 64 {
		t.Errorf("merged ReadsDone total = %d, want 64", total)
	}
}

func TestActivateHookSeesEveryChannel(t *testing.T) {
	m, err := New(testConfig(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	hits := make(map[int]int)
	m.AddActivateHook(func(channel, bank, row, thread int, now int64) {
		hits[channel]++
	})
	for line := uint64(0); line < 64; line++ {
		m.EnqueueRead(line, 0)
	}
	for cycle := int64(0); cycle < 20000; cycle++ {
		m.Tick(cycle)
	}
	if hits[0] == 0 || hits[1] == 0 {
		t.Errorf("activate hook coverage per channel = %v, want both channels", hits)
	}
}

func TestNextWakeCoversResponsesAndRefresh(t *testing.T) {
	m, err := New(testConfig(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Idle system: the only wake-up is the first refresh deadline.
	w := m.NextWake(0)
	refi := dram.DDR5().REFI
	if w <= 0 || w > refi {
		t.Errorf("idle NextWake = %d, want within the first tREFI %d", w, refi)
	}
	// With an in-flight read, the wake-up must not sit past the data
	// arrival: tick until the command issues, then check.
	m.EnqueueRead(0, 0)
	delivered := false
	m.SetFillFunc(func(uint64) { delivered = true })
	for cycle := int64(0); cycle < 1000 && !delivered; cycle++ {
		if !m.Tick(cycle) {
			wake := m.NextWake(cycle)
			if wake <= cycle {
				t.Fatalf("NextWake(%d) = %d, not in the future", cycle, wake)
			}
			if wake > cycle+1000 {
				t.Fatalf("NextWake(%d) = %d, unreachably far with a read in flight", cycle, wake)
			}
		}
	}
	if !delivered {
		t.Fatal("read never completed")
	}
}

// driveBatch exercises one Interleaved with a deterministic request
// pattern and records every externally observable event — fills,
// latencies and activate-hook notifications — as one interleaved
// sequence.
func driveBatch(t *testing.T, channels int) string {
	t.Helper()
	m, err := New(testConfig(channels), 2)
	if err != nil {
		t.Fatal(err)
	}
	var events strings.Builder
	m.SetFillFunc(func(line uint64) {
		fmt.Fprintf(&events, "fill %#x\n", line)
	})
	m.SetLatencySink(func(thread int, cycles int64) {
		fmt.Fprintf(&events, "lat t%d %d\n", thread, cycles)
	})
	m.AddActivateHook(func(channel, bank, row, thread int, now int64) {
		fmt.Fprintf(&events, "act ch%d b%d r%d t%d @%d\n", channel, bank, row, thread, now)
	})
	next := uint64(0)
	for cycle := int64(0); cycle < 30000; cycle++ {
		// Keep a trickle of traffic flowing so every channel stays busy
		// and responses from different channels interleave.
		if cycle%7 == 0 {
			m.EnqueueRead(next*37, int(next)%2)
			next++
		}
		if !m.Tick(cycle) && m.NextWake(cycle) <= cycle {
			t.Fatalf("NextWake(%d) not in the future on an idle tick", cycle)
		}
	}
	return events.String()
}

// TestBatchDrainGolden pins the memsys-level cycle-batch contract: the
// channel-index-order drain yields exactly this event sequence (a
// SHA-256 over the full stream). A change to the drain order, or to
// when a channel's side effects become visible, fails here; regenerate
// only with a SchemaVersion-bumping timing change.
func TestBatchDrainGolden(t *testing.T) {
	golden := map[int]string{
		2: "09754871e3b048982fe123fd34901a28172121c2b1eb08555737d1069591be10",
		4: "b5dcaeb55bfc107a8565ba0b60b754bfe1078c7f8568e94ff9bae868dca18a20",
		8: "8d041d26ae470f5976a6cf935448520058d592ce1da47b33d01432daf5eefe96",
	}
	for _, channels := range []int{2, 4, 8} {
		events := driveBatch(t, channels)
		if events == "" {
			t.Fatalf("channels=%d: no events recorded", channels)
		}
		sum := sha256.Sum256([]byte(events))
		if got := hex.EncodeToString(sum[:]); got != golden[channels] {
			t.Errorf("channels=%d: event digest %s, want %s", channels, got, golden[channels])
		}
	}
}
