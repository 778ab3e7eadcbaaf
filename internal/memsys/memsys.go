// Package memsys implements the multi-channel memory subsystem: N
// memctrl.Controller + dram.Device pairs behind one Interleaved value.
// The cache hierarchy talks to it as a single backend (cache.Backend);
// the subsystem decodes each line address once with a channel-aware
// mapper and routes the request to the owning channel. Activate hooks,
// latency sinks and LLC fills from every channel are fanned back
// through the same value, so thread-attribution layers
// (BreakHammer, the mitigation mechanisms) see a coherent cross-channel
// event stream, and per-channel controller statistics are lifted into
// merged system-level stats.
package memsys

import (
	"fmt"

	"breakhammer/internal/dram"
	"breakhammer/internal/memctrl"
)

// ChannelActivateHook observes demand row activations anywhere in the
// memory system, with the originating channel made explicit.
type ChannelActivateHook func(channel, bank, row, thread int, now int64)

// Config describes the memory subsystem: the per-channel topology and
// timing, the controller configuration shared by all channels, and the
// channel-interleaved address layout.
type Config struct {
	Channels   int // memory channels (0 means 1); must be a power of two
	DRAM       dram.Config
	Timing     dram.Timing
	MC         memctrl.Config
	AddressMap string // "" or "mop" (MOP-across-channels), "rowint" (RoBaRaCoCh)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	n := c.Channels
	if n < 0 {
		return fmt.Errorf("memsys: Channels must be >= 0, got %d", n)
	}
	if n > 0 && n&(n-1) != 0 {
		return fmt.Errorf("memsys: Channels must be a power of two, got %d", n)
	}
	switch c.AddressMap {
	case "", "mop", "rowint":
	default:
		return fmt.Errorf("memsys: AddressMap must be \"mop\" or \"rowint\", got %q", c.AddressMap)
	}
	return nil
}

// Interleaved is the cache hierarchy's view of main memory: N identical
// channels with a channel-interleaved address layout. It is a request
// sink (cache.Backend), a clocked component with skip-ahead support, and
// an observation surface for mitigation and throttling mechanisms.
type Interleaved struct {
	cfg    Config
	mapper memctrl.AddressMapper
	ctrls  []*memctrl.Controller
	devs   []*dram.Device
}

// New builds the memory subsystem. threads is the hardware thread count
// for per-thread accounting in every channel controller.
func New(cfg Config, threads int) (*Interleaved, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Channels
	if n == 0 {
		n = 1
	}
	var mapper memctrl.AddressMapper
	if cfg.AddressMap == "rowint" {
		mapper = memctrl.NewChannelRowInterleavedMapper(cfg.DRAM, n)
	} else {
		mapper = memctrl.NewChannelMOPMapper(cfg.DRAM, n)
	}
	m := &Interleaved{cfg: cfg, mapper: mapper}
	for ch := 0; ch < n; ch++ {
		dev, err := dram.NewDevice(cfg.DRAM, cfg.Timing)
		if err != nil {
			return nil, err
		}
		mc := memctrl.New(cfg.MC, dev, threads)
		mc.SetMapper(mapper)
		m.devs = append(m.devs, dev)
		m.ctrls = append(m.ctrls, mc)
	}
	if n > 1 {
		// Single-channel systems keep inline callback delivery (there is
		// nothing to order against). Multi-channel systems attach one
		// event buffer per channel and drain them in channel-index order
		// after each cycle batch (see Tick), so the LLC, latency sinks and
		// cross-channel activate hooks observe one deterministic event
		// stream.
		for _, c := range m.ctrls {
			// Pre-grown: a cycle batch emits at most a few events per
			// channel (one command plus drained responses), so 256 keeps
			// the batch loop allocation-free from the first tick.
			c.SetEventBuffer(memctrl.NewEventBuffer(256))
		}
	}
	return m, nil
}

// Channels reports the channel count.
func (m *Interleaved) Channels() int { return len(m.ctrls) }

// Channel returns one channel's controller (per-channel mechanism
// wiring, tests, characterisation).
func (m *Interleaved) Channel(i int) *memctrl.Controller { return m.ctrls[i] }

// Device returns one channel's DRAM device.
func (m *Interleaved) Device(i int) *dram.Device { return m.devs[i] }

// Mapper returns the system-level channel-aware address mapper.
func (m *Interleaved) Mapper() memctrl.AddressMapper { return m.mapper }

// EnqueueRead implements cache.Backend: the line decodes to exactly one
// channel, which accepts the request or rejects it when its queue is
// full.
func (m *Interleaved) EnqueueRead(line uint64, thread int) bool {
	addr := m.mapper.Map(line)
	return m.ctrls[addr.Channel].EnqueueReadAddr(line, thread, addr)
}

// EnqueueWrite implements cache.Backend.
func (m *Interleaved) EnqueueWrite(line uint64, thread int) bool {
	addr := m.mapper.Map(line)
	return m.ctrls[addr.Channel].EnqueueWriteAddr(line, thread, addr)
}

// SetFillFunc makes every channel deliver read data into the same LLC
// fill path.
func (m *Interleaved) SetFillFunc(fill func(line uint64)) {
	for _, c := range m.ctrls {
		c.SetFillFunc(fill)
	}
}

// SetLatencySink makes read latencies from every channel feed one
// per-thread recorder.
func (m *Interleaved) SetLatencySink(sink memctrl.LatencySink) {
	for _, c := range m.ctrls {
		c.SetLatencySink(sink)
	}
}

// AddActivateHook installs a hook that observes demand activations on
// every channel, tagged with the channel index, so cross-channel
// attribution (BreakHammer's per-thread scores) sees the full
// activation stream.
func (m *Interleaved) AddActivateHook(h ChannelActivateHook) {
	for i, c := range m.ctrls {
		ch := i
		c.AddActivateHook(func(bank, row, thread int, now int64) {
			h(ch, bank, row, thread, now)
		})
	}
}

// Tick advances every channel one command-bus cycle and reports
// whether any channel made progress. With more than one channel the
// cycle is a batch: channels tick in index order with cross-component
// side effects (LLC fills, latency reports, activate hooks) buffered,
// then the buffers drain in channel-index order — so a channel never
// reads another channel's mid-cycle state, and every observer outside
// the channels sees one deterministic event stream.
func (m *Interleaved) Tick(now int64) bool {
	if len(m.ctrls) == 1 {
		return m.ctrls[0].Tick(now)
	}
	var progress bool
	for _, c := range m.ctrls {
		if c.Tick(now) {
			progress = true
		}
	}
	for _, c := range m.ctrls {
		c.ReplayEvents()
	}
	return progress
}

// NextWake returns a sound lower bound on the next cycle any channel
// could make progress, assuming the preceding Tick made none.
func (m *Interleaved) NextWake(now int64) int64 {
	next := int64(1) << 62
	for _, c := range m.ctrls {
		if w := c.NextWake(now); w < next {
			next = w
		}
	}
	return next
}

// Stats returns every channel's controller counters summed into one
// system-level view.
func (m *Interleaved) Stats() memctrl.Stats {
	var agg memctrl.Stats
	for _, c := range m.ctrls {
		agg.Add(c.Stats())
	}
	return agg
}

// ChannelStats exposes one channel's own controller counters.
func (m *Interleaved) ChannelStats(i int) *memctrl.Stats { return m.ctrls[i].Stats() }

// EnergyNJ returns DRAM energy summed over channels
// (each channel contributes its own background power).
func (m *Interleaved) EnergyNJ(durationNs float64) float64 {
	var total float64
	for _, d := range m.devs {
		total += d.Energy().TotalNJ(durationNs, m.cfg.DRAM.Ranks)
	}
	return total
}
