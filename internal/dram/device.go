package dram

import "fmt"

// neverIssued marks a timestamp "long ago" so that all constraints measured
// against it are trivially satisfied at cycle 0.
const neverIssued = int64(-1 << 40)

// bankState tracks the row buffer and timing history of one bank.
type bankState struct {
	openRow   int  // -1 when precharged
	hasOpen   bool // row buffer valid
	actAt     int64
	preReady  int64 // earliest cycle an ACT may issue (after tRP / RFM / VRR)
	lastRD    int64
	lastWRend int64 // cycle when the last write burst finished on the data bus
	blocked   int64 // bank unavailable until this cycle (RFM/VRR/MIG/REF)
}

// rankState tracks rank-level constraints (tRRD, tFAW, refresh).
type rankState struct {
	lastACT      int64
	lastACTGroup int // bank group of the most recent ACT
	actWindow    [4]int64
	actWindowIdx int
	refUntil     int64 // rank blocked by REF until this cycle
}

// Device is a cycle-level model of all DRAM chips behind one channel.
// It validates command timing, tracks row-buffer state, and accumulates
// energy. The Device does not schedule: the memory controller decides what
// to issue and when; the Device answers "is this legal now?".
type Device struct {
	cfg    Config
	timing Timing

	banks []bankState
	ranks []rankState

	// Per-bank decode lookup tables (avoid div/mod on the hot path).
	rankOf  []int
	groupOf []int
	keyOf   []int // channel-unique bank-group key

	// Channel-level data-bus occupancy and command-group history.
	busFreeAt   int64
	lastRD      int64 // most recent RD command cycle on the channel
	lastRDGroup int   // rank*groups+group key of that RD
	lastWR      int64
	lastWRGroup int
	lastWRend   int64 // channel-wide write-data end (for tWTR)

	energy EnergyCounter

	// Release queue behind NextRelease; tracked turns on at the first
	// NextRelease call, so a device that is never asked pays nothing.
	rel     releaseQueue
	tracked bool

	// issueHook, when set, observes every issued command. It exists for
	// auditing (independent re-verification of timing invariants over a
	// whole simulation) and characterisation; it is nil in normal runs.
	issueHook func(cmd Command, addr Addr, now int64)
}

// SetIssueHook installs an observer of every issued command.
func (d *Device) SetIssueHook(h func(cmd Command, addr Addr, now int64)) { d.issueHook = h }

// NewDevice constructs a Device with the given topology and timing.
func NewDevice(cfg Config, timing Timing) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg, timing: timing}
	d.banks = make([]bankState, cfg.TotalBanks())
	d.ranks = make([]rankState, cfg.Ranks)
	d.rankOf = make([]int, cfg.TotalBanks())
	d.groupOf = make([]int, cfg.TotalBanks())
	d.keyOf = make([]int, cfg.TotalBanks())
	for b := 0; b < cfg.TotalBanks(); b++ {
		rank, group, _ := cfg.BankOf(b)
		d.rankOf[b] = rank
		d.groupOf[b] = group
		d.keyOf[b] = rank*cfg.BankGroups + group
	}
	for i := range d.banks {
		d.banks[i] = bankState{
			openRow:   -1,
			actAt:     neverIssued,
			preReady:  0,
			lastRD:    neverIssued,
			lastWRend: neverIssued,
			blocked:   neverIssued,
		}
	}
	for i := range d.ranks {
		d.ranks[i] = rankState{
			lastACT:      neverIssued,
			lastACTGroup: -1,
			refUntil:     neverIssued,
		}
		for j := range d.ranks[i].actWindow {
			d.ranks[i].actWindow[j] = neverIssued
		}
	}
	d.busFreeAt = 0
	d.lastRD, d.lastWR, d.lastWRend = neverIssued, neverIssued, neverIssued
	return d, nil
}

// Config returns the device topology.
func (d *Device) Config() Config { return d.cfg }

// Timing returns the device timing constraints.
func (d *Device) Timing() Timing { return d.timing }

// Energy returns the accumulated energy counters.
func (d *Device) Energy() *EnergyCounter { return &d.energy }

// OpenRow reports the currently open row in a bank, or (0, false) if the
// bank is precharged.
func (d *Device) OpenRow(bank int) (int, bool) {
	b := &d.banks[bank]
	if !b.hasOpen {
		return 0, false
	}
	return b.openRow, true
}

// groupKey builds a channel-unique bank-group identifier.
func (d *Device) groupKey(bank int) int { return d.keyOf[bank] }

// RankOf returns the rank of a global bank index (lookup, no division).
func (d *Device) RankOf(bank int) int { return d.rankOf[bank] }

// CanIssue reports whether cmd to addr satisfies every timing constraint at
// cycle now.
func (d *Device) CanIssue(cmd Command, addr Addr, now int64) bool {
	if addr.Bank < 0 || addr.Bank >= len(d.banks) {
		return false
	}
	b := &d.banks[addr.Bank]
	rank := d.rankOf[addr.Bank]
	r := &d.ranks[rank]
	t := &d.timing

	if now < r.refUntil || now < b.blocked {
		// Rank under refresh or bank blocked by RFM/VRR/MIG: only nothing
		// may issue (the blocking command already owns the bank).
		return false
	}

	switch cmd {
	case CmdACT:
		if b.hasOpen {
			return false
		}
		if now < b.preReady {
			return false
		}
		// tRRD same/different bank group.
		if r.lastACT != neverIssued {
			group := d.groupOf[addr.Bank]
			gap := t.RRDS
			if group == r.lastACTGroup {
				gap = t.RRDL
			}
			if now < r.lastACT+gap {
				return false
			}
		}
		// tFAW: at most 4 ACTs per rank per window.
		oldest := r.actWindow[r.actWindowIdx]
		if oldest != neverIssued && now < oldest+t.FAW {
			return false
		}
		return true

	case CmdPRE:
		if !b.hasOpen {
			return true // PRE to a precharged bank is a harmless no-op; allow.
		}
		if now < b.actAt+t.RAS {
			return false
		}
		if b.lastRD != neverIssued && now < b.lastRD+t.RTP {
			return false
		}
		if b.lastWRend != neverIssued && now < b.lastWRend+t.WR {
			return false
		}
		return true

	case CmdRD:
		if !b.hasOpen || b.openRow != addr.Row {
			return false
		}
		if now < b.actAt+t.RCD {
			return false
		}
		if !d.columnGapOK(now, addr.Bank, false) {
			return false
		}
		return now+t.CL >= d.busFreeAt

	case CmdWR:
		if !b.hasOpen || b.openRow != addr.Row {
			return false
		}
		if now < b.actAt+t.RCD {
			return false
		}
		if !d.columnGapOK(now, addr.Bank, true) {
			return false
		}
		return now+t.CWL >= d.busFreeAt

	case CmdREF:
		// All banks in the rank must be precharged and idle.
		base := rank * d.cfg.BanksPerRank()
		for i := base; i < base+d.cfg.BanksPerRank(); i++ {
			bb := &d.banks[i]
			if bb.hasOpen || now < bb.preReady || now < bb.blocked {
				return false
			}
		}
		return true

	case CmdRFM, CmdVRR, CmdAUX:
		return !b.hasOpen && now >= b.preReady

	case CmdMIG:
		return !b.hasOpen && now >= b.preReady

	default:
		return false
	}
}

// columnGapOK checks CCD (same-command) and turnaround (RD<->WR, WR->RD)
// constraints for a column command at cycle now.
func (d *Device) columnGapOK(now int64, bank int, isWrite bool) bool {
	t := &d.timing
	key := d.groupKey(bank)
	if isWrite {
		if d.lastWR != neverIssued {
			gap := t.CCDS
			if key == d.lastWRGroup {
				gap = t.CCDL
			}
			if now < d.lastWR+gap {
				return false
			}
		}
		if d.lastRD != neverIssued && now < d.lastRD+t.RTW {
			return false
		}
		return true
	}
	if d.lastRD != neverIssued {
		gap := t.CCDS
		if key == d.lastRDGroup {
			gap = t.CCDL
		}
		if now < d.lastRD+gap {
			return false
		}
	}
	if d.lastWRend != neverIssued {
		gap := t.WTRS
		if key == d.lastWRGroup {
			gap = t.WTRL
		}
		if now < d.lastWRend+gap {
			return false
		}
	}
	return true
}

// IssueResult reports side effects of a command issue.
type IssueResult struct {
	DataAt int64 // cycle the data burst completes (RD/WR), 0 otherwise
	DoneAt int64 // cycle the command's blocking effect ends
}

// Issue applies cmd to the device state. The caller must have validated the
// command with CanIssue; Issue panics on an illegal command to surface
// scheduler bugs immediately.
func (d *Device) Issue(cmd Command, addr Addr, now int64) IssueResult {
	if !d.CanIssue(cmd, addr, now) {
		panic(fmt.Sprintf("dram: illegal %v to %v at cycle %d", cmd, addr, now))
	}
	if d.issueHook != nil {
		d.issueHook(cmd, addr, now)
	}
	res := d.apply(cmd, addr, now)
	if d.tracked {
		d.trackIssue(cmd, addr.Bank, now)
	}
	return res
}

// apply performs the state change of a validated command.
func (d *Device) apply(cmd Command, addr Addr, now int64) IssueResult {
	b := &d.banks[addr.Bank]
	rank := d.rankOf[addr.Bank]
	r := &d.ranks[rank]
	t := &d.timing

	switch cmd {
	case CmdACT:
		b.hasOpen = true
		b.openRow = addr.Row
		b.actAt = now
		b.lastRD = neverIssued
		b.lastWRend = neverIssued
		r.lastACT = now
		r.lastACTGroup = d.groupOf[addr.Bank]
		r.actWindow[r.actWindowIdx] = now
		r.actWindowIdx = (r.actWindowIdx + 1) % len(r.actWindow)
		d.energy.Add(CmdACT, 1)
		return IssueResult{DoneAt: now + t.RCD}

	case CmdPRE:
		if b.hasOpen {
			d.energy.Add(CmdPRE, 1)
		}
		b.hasOpen = false
		b.openRow = -1
		b.preReady = now + t.RP
		return IssueResult{DoneAt: now + t.RP}

	case CmdRD:
		b.lastRD = now
		d.lastRD = now
		d.lastRDGroup = d.groupKey(addr.Bank)
		dataEnd := now + t.CL + t.BL
		d.busFreeAt = dataEnd
		d.energy.Add(CmdRD, 1)
		return IssueResult{DataAt: dataEnd, DoneAt: dataEnd}

	case CmdWR:
		dataEnd := now + t.CWL + t.BL
		b.lastWRend = dataEnd
		d.lastWR = now
		d.lastWRGroup = d.groupKey(addr.Bank)
		d.lastWRend = dataEnd
		d.busFreeAt = dataEnd
		d.energy.Add(CmdWR, 1)
		return IssueResult{DataAt: dataEnd, DoneAt: dataEnd}

	case CmdREF:
		until := now + t.RFC
		r.refUntil = until
		base := rank * d.cfg.BanksPerRank()
		for i := base; i < base+d.cfg.BanksPerRank(); i++ {
			d.banks[i].preReady = until
		}
		d.energy.Add(CmdREF, 1)
		return IssueResult{DoneAt: until}

	case CmdRFM:
		until := now + t.RFM
		b.blocked = until
		b.preReady = until
		d.energy.Add(CmdRFM, 1)
		return IssueResult{DoneAt: until}

	case CmdVRR:
		// A targeted refresh internally activates and precharges the victim
		// row: the bank is busy for a full row cycle.
		until := now + t.RC
		b.blocked = until
		b.preReady = until
		d.energy.Add(CmdVRR, 1)
		return IssueResult{DoneAt: until}

	case CmdAUX:
		// A metadata access (e.g. Hydra's in-DRAM row-count table) costs a
		// full row cycle on the bank: ACT + burst + PRE.
		until := now + t.RC
		b.blocked = until
		b.preReady = until
		d.energy.Add(CmdAUX, 1)
		return IssueResult{DoneAt: until}

	case CmdMIG:
		// Row migration copies a full row through the internal datapath:
		// ACT + column stream + PRE on both source and destination. We model
		// it as one blocking interval covering two row cycles plus the
		// column transfer time.
		cols := int64(d.cfg.ColumnsPerRow)
		until := now + 2*t.RC + cols*t.CCDL
		b.blocked = until
		b.preReady = until
		d.energy.Add(CmdMIG, 1)
		return IssueResult{DoneAt: until}
	}
	panic("dram: unhandled command " + cmd.String())
}

// BankBlockedUntil reports when a bank becomes available again (the later of
// refresh, RFM/VRR/MIG blocking, and precharge recovery).
func (d *Device) BankBlockedUntil(bank int) int64 {
	until := d.banks[bank].blocked
	if r := d.ranks[d.rankOf[bank]].refUntil; r > until {
		until = r
	}
	return until
}

// NextRelease returns the earliest cycle strictly after now at which any
// timing constraint held by the device expires — a sound lower bound on
// the next cycle a command that is illegal now could become legal, given
// that no further commands issue in between. Every CanIssue check compares
// now against a timestamp derived from device state, so with the state
// frozen, legality can only change at one of these expiry moments. The
// skip-ahead simulation loop jumps to this cycle when the whole system
// stalls. Returns a very large value when no constraint is pending.
//
// The answer comes from the release queue (see slotAt), seeded from the
// full device state on the first call. now must not decrease across one
// device's Issue and NextRelease calls: a release at or before now is
// dropped for good.
func (d *Device) NextRelease(now int64) int64 {
	if !d.tracked {
		d.seed(now)
	}
	d.settle(now)
	if len(d.rel) == 0 {
		return horizon
	}
	return d.rel[len(d.rel)-1].at
}

// horizon is NextRelease's answer when no constraint is pending.
const horizon = int64(1) << 62

// Release tracking. Every timestamp NextRelease reads lives in a slot:
// a slot kind (a device field plus the timing constraint added to it) at
// a bank or rank index. slotAt reads a slot's current value.
//
// The device keeps a priority queue of (value, slot) releases. Issue
// pushes the slots its command moved. NextRelease pops releases at or
// before now and releases whose slot has moved on since the push, so the
// earliest remaining release is the earliest pending value of any slot:
// every slot with a pending value has a release of that value queued.
// Issue pops too, which keeps the queue to the releases of the last few
// hundred cycles.

// Slot kinds, grouped per bank, per rank and per channel. Each comment
// names the slot's value; a bank slot guarded by an open row, or a gap
// after a command that never issued, holds no pending release.
const (
	slotPreReady = iota // bank preReady
	slotBlocked         // bank blocked
	slotRCD             // bank actAt+tRCD
	slotRAS             // bank actAt+tRAS
	slotRTP             // bank lastRD+tRTP
	slotWR              // bank lastWRend+tWR
	slotRefUntil        // rank refUntil
	slotRRDS            // rank lastACT+tRRD_S
	slotRRDL            // rank lastACT+tRRD_L
	slotFAW0            // rank actWindow[j]+tFAW at slotFAW0+j
	slotFAW1
	slotFAW2
	slotFAW3
	slotBusRD // channel busFreeAt-tCL
	slotBusWR // channel busFreeAt-tCWL
	slotRDRDS // channel lastRD+tCCD_S
	slotRDRDL // channel lastRD+tCCD_L
	slotRTW   // channel lastRD+tRTW
	slotWRWRS // channel lastWR+tCCD_S
	slotWRWRL // channel lastWR+tCCD_L
	slotWTRS  // channel lastWRend+tWTR_S
	slotWTRL  // channel lastWRend+tWTR_L
	numSlotKinds

	firstRankSlot    = slotRefUntil
	firstChannelSlot = slotBusRD
)

// slotAt returns the current value of slot kind k at bank or rank idx
// and whether that release is pending at all.
func (d *Device) slotAt(k, idx int) (int64, bool) {
	t := &d.timing
	switch k {
	case slotPreReady:
		return d.banks[idx].preReady, true
	case slotBlocked:
		return d.banks[idx].blocked, true
	case slotRCD:
		b := &d.banks[idx]
		return b.actAt + t.RCD, b.hasOpen
	case slotRAS:
		b := &d.banks[idx]
		return b.actAt + t.RAS, b.hasOpen
	case slotRTP:
		b := &d.banks[idx]
		return b.lastRD + t.RTP, b.hasOpen && b.lastRD != neverIssued
	case slotWR:
		b := &d.banks[idx]
		return b.lastWRend + t.WR, b.hasOpen && b.lastWRend != neverIssued
	case slotRefUntil:
		return d.ranks[idx].refUntil, true
	case slotRRDS:
		r := &d.ranks[idx]
		return r.lastACT + t.RRDS, r.lastACT != neverIssued
	case slotRRDL:
		r := &d.ranks[idx]
		return r.lastACT + t.RRDL, r.lastACT != neverIssued
	case slotFAW0, slotFAW1, slotFAW2, slotFAW3:
		ts := d.ranks[idx].actWindow[k-slotFAW0]
		return ts + t.FAW, ts != neverIssued
	case slotBusRD:
		return d.busFreeAt - t.CL, true
	case slotBusWR:
		return d.busFreeAt - t.CWL, true
	case slotRDRDS:
		return d.lastRD + t.CCDS, d.lastRD != neverIssued
	case slotRDRDL:
		return d.lastRD + t.CCDL, d.lastRD != neverIssued
	case slotRTW:
		return d.lastRD + t.RTW, d.lastRD != neverIssued
	case slotWRWRS:
		return d.lastWR + t.CCDS, d.lastWR != neverIssued
	case slotWRWRL:
		return d.lastWR + t.CCDL, d.lastWR != neverIssued
	case slotWTRS:
		return d.lastWRend + t.WTRS, d.lastWRend != neverIssued
	case slotWTRL:
		return d.lastWRend + t.WTRL, d.lastWRend != neverIssued
	}
	panic(fmt.Sprintf("dram: unknown release slot kind %d", k))
}

// track pushes slot kind k at idx if it holds a release after now.
func (d *Device) track(k, idx int, now int64) {
	if at, ok := d.slotAt(k, idx); ok && at > now {
		d.rel.push(release{at: at, kind: int32(k), idx: int32(idx)})
	}
}

// seed starts release tracking from the full device state.
func (d *Device) seed(now int64) {
	d.tracked = true
	d.rel = d.rel[:0]
	for b := range d.banks {
		for k := 0; k < firstRankSlot; k++ {
			d.track(k, b, now)
		}
	}
	for r := range d.ranks {
		for k := firstRankSlot; k < firstChannelSlot; k++ {
			d.track(k, r, now)
		}
	}
	for k := firstChannelSlot; k < numSlotKinds; k++ {
		d.track(k, 0, now)
	}
}

// trackIssue pushes the slots a just-applied command moved, latest
// release first under DDR4 and DDR5 timing, so each push shifts fewer
// queued releases; the order does not change the answer. A REF sets its
// banks' preReady, and RFM/VRR/AUX/MIG set their bank's preReady, to the
// same value as the refUntil or blocked slot pushed here. That one
// release covers them: refUntil moves only on the rank's next REF and
// blocked only on the bank's next RFM/VRR/AUX/MIG, and each of those
// moves the preReady values with it.
func (d *Device) trackIssue(cmd Command, bank int, now int64) {
	d.settle(now)
	rank := d.rankOf[bank]
	switch cmd {
	case CmdACT:
		r := &d.ranks[rank]
		last := (r.actWindowIdx + len(r.actWindow) - 1) % len(r.actWindow)
		d.track(slotRAS, bank, now)
		d.track(slotRCD, bank, now)
		d.track(slotFAW0+last, rank, now)
		d.track(slotRRDL, rank, now)
		d.track(slotRRDS, rank, now)
	case CmdPRE:
		d.track(slotPreReady, bank, now)
	case CmdRD:
		d.track(slotRTP, bank, now)
		d.track(slotRTW, 0, now)
		d.track(slotRDRDL, 0, now)
		d.track(slotBusWR, 0, now)
		d.track(slotBusRD, 0, now)
		d.track(slotRDRDS, 0, now)
	case CmdWR:
		d.track(slotWR, bank, now)
		d.track(slotWTRL, 0, now)
		d.track(slotWTRS, 0, now)
		d.track(slotWRWRL, 0, now)
		d.track(slotWRWRS, 0, now)
		d.track(slotBusWR, 0, now)
		d.track(slotBusRD, 0, now)
	case CmdREF:
		d.track(slotRefUntil, rank, now)
	case CmdRFM, CmdVRR, CmdAUX, CmdMIG:
		d.track(slotBlocked, bank, now)
	}
}

// settle pops releases at or before now and releases whose slot has
// moved since the push, leaving the earliest pending release last.
func (d *Device) settle(now int64) {
	for len(d.rel) > 0 {
		top := d.rel[len(d.rel)-1]
		if top.at > now {
			at, ok := d.slotAt(int(top.kind), int(top.idx))
			if ok && at == top.at {
				return
			}
		}
		d.rel.pop()
	}
}

// release is one pending timestamp on the release queue: the value at of
// slot kind at bank or rank idx when it was pushed.
type release struct {
	at        int64
	kind, idx int32
}

// releaseQueue holds pending releases sorted by at in descending order,
// so the earliest release is the last element and popping it is O(1).
// It rarely holds more than a few dozen releases, and a new release
// usually lands near the end, so the insertion shift is short; on the
// recorded command stream of BenchmarkNextRelease this beat a binary
// heap.
type releaseQueue []release

func (q *releaseQueue) push(e release) {
	s := append(*q, e)
	i := len(s) - 1
	for i > 0 && s[i-1].at < e.at {
		s[i] = s[i-1]
		i--
	}
	s[i] = e
	*q = s
}

// pop removes the earliest release.
func (q *releaseQueue) pop() { *q = (*q)[:len(*q)-1] }
