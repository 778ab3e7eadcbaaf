package dram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(Default(), DDR5())
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

// earliest returns the first cycle >= from at which cmd becomes legal,
// scanning up to a bound to keep tests fast.
func earliest(t *testing.T, d *Device, cmd Command, addr Addr, from int64) int64 {
	t.Helper()
	for c := from; c < from+100000; c++ {
		if d.CanIssue(cmd, addr, c) {
			return c
		}
	}
	t.Fatalf("%v to %v never became legal after %d", cmd, addr, from)
	return -1
}

func TestActivateThenReadTiming(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	addr := Addr{Bank: 0, Row: 42, Col: 3}

	if !d.CanIssue(CmdACT, addr, 0) {
		t.Fatal("ACT should be legal at cycle 0 on a fresh device")
	}
	d.Issue(CmdACT, addr, 0)

	if d.CanIssue(CmdRD, addr, tm.RCD-1) {
		t.Errorf("RD legal at %d, before tRCD=%d", tm.RCD-1, tm.RCD)
	}
	if !d.CanIssue(CmdRD, addr, tm.RCD) {
		t.Errorf("RD illegal at tRCD=%d", tm.RCD)
	}
	res := d.Issue(CmdRD, addr, tm.RCD)
	if want := tm.RCD + tm.CL + tm.BL; res.DataAt != want {
		t.Errorf("RD DataAt = %d, want %d", res.DataAt, want)
	}
}

func TestReadWrongRowIllegal(t *testing.T) {
	d := newTestDevice(t)
	d.Issue(CmdACT, Addr{Bank: 0, Row: 10}, 0)
	if d.CanIssue(CmdRD, Addr{Bank: 0, Row: 11}, 1000) {
		t.Error("RD to a different row than the open one must be illegal")
	}
}

func TestActivateOpenBankIllegal(t *testing.T) {
	d := newTestDevice(t)
	d.Issue(CmdACT, Addr{Bank: 0, Row: 10}, 0)
	if d.CanIssue(CmdACT, Addr{Bank: 0, Row: 11}, 1000) {
		t.Error("ACT to a bank with an open row must be illegal without PRE")
	}
}

func TestPrechargeRespectsRASAndRTP(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	addr := Addr{Bank: 3, Row: 7}
	d.Issue(CmdACT, addr, 0)

	if d.CanIssue(CmdPRE, addr, tm.RAS-1) {
		t.Errorf("PRE legal at %d, before tRAS=%d", tm.RAS-1, tm.RAS)
	}
	rd := earliest(t, d, CmdRD, addr, 0)
	d.Issue(CmdRD, addr, rd)
	pre := earliest(t, d, CmdPRE, addr, rd)
	if pre < rd+tm.RTP {
		t.Errorf("PRE at %d violates tRTP after RD at %d", pre, rd)
	}
	if pre < tm.RAS {
		t.Errorf("PRE at %d violates tRAS", pre)
	}
	d.Issue(CmdPRE, addr, pre)
	act := earliest(t, d, CmdACT, addr, pre)
	if act != pre+tm.RP {
		t.Errorf("re-ACT at %d, want PRE+tRP=%d", act, pre+tm.RP)
	}
}

func TestWriteRecoveryBeforePrecharge(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	addr := Addr{Bank: 1, Row: 9}
	d.Issue(CmdACT, addr, 0)
	wr := earliest(t, d, CmdWR, addr, 0)
	res := d.Issue(CmdWR, addr, wr)
	dataEnd := res.DataAt
	if dataEnd != wr+tm.CWL+tm.BL {
		t.Fatalf("WR DataAt = %d, want %d", dataEnd, wr+tm.CWL+tm.BL)
	}
	pre := earliest(t, d, CmdPRE, addr, wr)
	if pre < dataEnd+tm.WR {
		t.Errorf("PRE at %d violates tWR (data end %d + tWR %d)", pre, dataEnd, tm.WR)
	}
}

func TestRRDSameVsDifferentBankGroup(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	cfg := d.Config()

	// Bank 0 and bank 1 share bank group 0; bank 0 and bank 2 differ.
	sameGroup := Addr{Bank: cfg.GlobalBank(0, 0, 1), Row: 5}
	diffGroup := Addr{Bank: cfg.GlobalBank(0, 1, 0), Row: 5}

	d.Issue(CmdACT, Addr{Bank: 0, Row: 1}, 0)
	if d.CanIssue(CmdACT, sameGroup, tm.RRDL-1) {
		t.Errorf("same-group ACT legal before tRRD_L=%d", tm.RRDL)
	}
	if !d.CanIssue(CmdACT, diffGroup, tm.RRDS) {
		t.Errorf("different-group ACT illegal at tRRD_S=%d", tm.RRDS)
	}
}

func TestFAWLimitsFourActivates(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	cfg := d.Config()

	// Issue 4 ACTs to different bank groups of rank 0 as fast as legal.
	var last int64
	for i := 0; i < 4; i++ {
		addr := Addr{Bank: cfg.GlobalBank(0, i, 0), Row: 1}
		at := earliest(t, d, CmdACT, addr, last)
		d.Issue(CmdACT, addr, at)
		last = at
	}
	fifth := Addr{Bank: cfg.GlobalBank(0, 4, 0), Row: 1}
	at := earliest(t, d, CmdACT, fifth, last)
	if at < tm.FAW {
		t.Errorf("5th ACT at %d, violates tFAW=%d window", at, tm.FAW)
	}
	// A different rank is not constrained by rank 0's tFAW.
	otherRank := Addr{Bank: cfg.GlobalBank(1, 0, 0), Row: 1}
	if !d.CanIssue(CmdACT, otherRank, last+tm.RRDS) {
		t.Error("ACT on rank 1 should not be blocked by rank 0's tFAW")
	}
}

func TestRefreshBlocksRank(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	cfg := d.Config()

	if !d.CanIssue(CmdREF, Addr{Bank: 0}, 0) {
		t.Fatal("REF should be legal on an idle precharged rank")
	}
	d.Issue(CmdREF, Addr{Bank: 0}, 0)
	rank0 := Addr{Bank: 0, Row: 1}
	if d.CanIssue(CmdACT, rank0, tm.RFC-1) {
		t.Errorf("ACT legal during tRFC (%d)", tm.RFC)
	}
	if !d.CanIssue(CmdACT, rank0, tm.RFC) {
		t.Errorf("ACT illegal after tRFC")
	}
	// Other rank unaffected.
	rank1 := Addr{Bank: cfg.GlobalBank(1, 0, 0), Row: 1}
	if !d.CanIssue(CmdACT, rank1, 1) {
		t.Error("rank 1 must not be blocked by rank 0 REF")
	}
}

func TestRefreshRequiresAllBanksPrecharged(t *testing.T) {
	d := newTestDevice(t)
	d.Issue(CmdACT, Addr{Bank: 5, Row: 1}, 0)
	if d.CanIssue(CmdREF, Addr{Bank: 0}, 10) {
		t.Error("REF must be illegal while a bank in the rank has an open row")
	}
}

func TestVictimRefreshBlocksBankForRC(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	addr := Addr{Bank: 2, Row: 100}
	d.Issue(CmdVRR, addr, 0)
	if d.CanIssue(CmdACT, Addr{Bank: 2, Row: 5}, tm.RC-1) {
		t.Errorf("ACT legal during VRR blocking window (tRC=%d)", tm.RC)
	}
	if !d.CanIssue(CmdACT, Addr{Bank: 2, Row: 5}, tm.RC+tm.RRDS) {
		t.Error("ACT should be legal after VRR completes")
	}
	if got := d.Energy().Count(CmdVRR); got != 1 {
		t.Errorf("VRR energy count = %d, want 1", got)
	}
}

func TestRFMBlocksOnlyTargetBank(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	d.Issue(CmdRFM, Addr{Bank: 4}, 0)
	if d.CanIssue(CmdACT, Addr{Bank: 4, Row: 1}, tm.RFM-1) {
		t.Error("ACT legal on bank during tRFM")
	}
	if !d.CanIssue(CmdACT, Addr{Bank: 6, Row: 1}, 1) {
		t.Error("RFM must not block other banks")
	}
}

func TestMigrationBlocksLongerThanVRR(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	res := d.Issue(CmdMIG, Addr{Bank: 0, Row: 1}, 0)
	if res.DoneAt <= 2*tm.RC {
		t.Errorf("MIG DoneAt = %d, want > 2*tRC = %d (full-row copy)", res.DoneAt, 2*tm.RC)
	}
	if d.CanIssue(CmdACT, Addr{Bank: 0, Row: 2}, res.DoneAt-1) {
		t.Error("ACT legal during migration")
	}
}

func TestIssueIllegalCommandPanics(t *testing.T) {
	d := newTestDevice(t)
	defer func() {
		if recover() == nil {
			t.Error("Issue of an illegal command must panic")
		}
	}()
	d.Issue(CmdRD, Addr{Bank: 0, Row: 3}, 0) // no row open
}

func TestOpenRowTracking(t *testing.T) {
	d := newTestDevice(t)
	if _, open := d.OpenRow(0); open {
		t.Error("fresh bank reports an open row")
	}
	d.Issue(CmdACT, Addr{Bank: 0, Row: 77}, 0)
	row, open := d.OpenRow(0)
	if !open || row != 77 {
		t.Errorf("OpenRow = (%d,%v), want (77,true)", row, open)
	}
	pre := earliest(t, d, CmdPRE, Addr{Bank: 0}, 0)
	d.Issue(CmdPRE, Addr{Bank: 0}, pre)
	if _, open := d.OpenRow(0); open {
		t.Error("bank reports open row after PRE")
	}
}

func TestCCDGapBetweenReads(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	cfg := d.Config()
	a := Addr{Bank: 0, Row: 1, Col: 0}
	b := Addr{Bank: cfg.GlobalBank(0, 1, 0), Row: 1, Col: 0}
	d.Issue(CmdACT, a, 0)
	actB := earliest(t, d, CmdACT, b, 0)
	d.Issue(CmdACT, b, actB)

	rd1 := earliest(t, d, CmdRD, a, 0)
	d.Issue(CmdRD, a, rd1)
	rd2 := earliest(t, d, CmdRD, b, rd1)
	if rd2 < rd1+tm.CCDS {
		t.Errorf("second RD at %d violates tCCD_S after RD at %d", rd2, rd1)
	}
	// Same-bank back-to-back read obeys the long gap.
	rd3 := earliest(t, d, CmdRD, a, rd2)
	if rd3 < rd1+tm.CCDL {
		t.Errorf("same-group RD at %d violates tCCD_L", rd3)
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	addr := Addr{Bank: 0, Row: 1}
	d.Issue(CmdACT, addr, 0)
	wr := earliest(t, d, CmdWR, addr, 0)
	res := d.Issue(CmdWR, addr, wr)
	rd := earliest(t, d, CmdRD, addr, wr+1)
	if rd < res.DataAt+tm.WTRL {
		t.Errorf("RD at %d violates tWTR_L (write data end %d)", rd, res.DataAt)
	}
}

// Property: on a single bank, any legal trace of ACT/RD/PRE commands never
// allows two ACTs closer than tRC.
func TestActToActSameBankNeverUnderRC(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	addr := Addr{Bank: 0, Row: 1}
	var acts []int64
	now := int64(0)
	for i := 0; i < 20; i++ {
		at := earliest(t, d, CmdACT, addr, now)
		d.Issue(CmdACT, addr, at)
		acts = append(acts, at)
		pre := earliest(t, d, CmdPRE, addr, at)
		d.Issue(CmdPRE, addr, pre)
		now = pre
	}
	for i := 1; i < len(acts); i++ {
		if gap := acts[i] - acts[i-1]; gap < tm.RC {
			t.Fatalf("ACT gap %d < tRC %d at index %d", gap, tm.RC, i)
		}
	}
}

func TestEnergyCounterProperty(t *testing.T) {
	f := func(acts, rds uint8) bool {
		var e EnergyCounter
		e.Add(CmdACT, int64(acts))
		e.Add(CmdRD, int64(rds))
		want := float64(acts)*EnergyACT + float64(rds)*EnergyRD
		diff := e.DynamicNJ() - want
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyTotalIncludesBackground(t *testing.T) {
	var e EnergyCounter
	total := e.TotalNJ(1000, 2) // 1 us, 2 ranks
	want := PowerBkgnd * 2 * 1000
	if total != want {
		t.Errorf("TotalNJ = %g, want background-only %g", total, want)
	}
	e.Add(CmdACT, 1)
	if e.TotalNJ(1000, 2) <= total {
		t.Error("adding a command must increase total energy")
	}
}

func TestEnergyReset(t *testing.T) {
	var e EnergyCounter
	e.Add(CmdACT, 5)
	e.Reset()
	if e.DynamicNJ() != 0 || e.Count(CmdACT) != 0 {
		t.Error("Reset did not clear counters")
	}
}

// nextReleaseScan is the rescan NextRelease replaced, kept as its oracle:
// the earliest timestamp after now over every bank, rank and channel
// constraint, read straight from the device state.
func nextReleaseScan(d *Device, now int64) int64 {
	next := horizon
	take := func(ts int64) {
		if ts > now && ts < next {
			next = ts
		}
	}
	t := &d.timing
	for i := range d.banks {
		b := &d.banks[i]
		take(b.preReady)
		take(b.blocked)
		if b.hasOpen {
			take(b.actAt + t.RCD) // RD/WR become legal
			take(b.actAt + t.RAS) // PRE becomes legal
			if b.lastRD != neverIssued {
				take(b.lastRD + t.RTP)
			}
			if b.lastWRend != neverIssued {
				take(b.lastWRend + t.WR)
			}
		}
	}
	for i := range d.ranks {
		r := &d.ranks[i]
		take(r.refUntil)
		if r.lastACT != neverIssued {
			take(r.lastACT + t.RRDS)
			take(r.lastACT + t.RRDL)
		}
		for _, ts := range r.actWindow {
			if ts != neverIssued {
				take(ts + t.FAW)
			}
		}
	}
	// Channel-level column constraints: data-bus release and CCD/turnaround.
	take(d.busFreeAt - t.CL)
	take(d.busFreeAt - t.CWL)
	if d.lastRD != neverIssued {
		take(d.lastRD + t.CCDS)
		take(d.lastRD + t.CCDL)
		take(d.lastRD + t.RTW)
	}
	if d.lastWR != neverIssued {
		take(d.lastWR + t.CCDS)
		take(d.lastWR + t.CCDL)
	}
	if d.lastWRend != neverIssued {
		take(d.lastWRend + t.WTRS)
		take(d.lastWRend + t.WTRL)
	}
	return next
}

// streamCmds maps a pick to a command, weighted towards demand traffic.
var streamCmds = [...]Command{
	CmdACT, CmdACT, CmdACT, CmdACT, CmdPRE, CmdPRE, CmdRD, CmdRD, CmdRD,
	CmdWR, CmdWR, CmdREF, CmdRFM, CmdVRR, CmdAUX, CmdMIG,
}

// driveStream issues steps random commands to d, each after a random
// cycle gap and only when CanIssue allows it; pick(n) draws from [0, n).
// A REF first precharges its rank's open banks where that is legal. From
// step queryFrom on, it checks NextRelease against nextReleaseScan on
// every cycle, before and after each issue. It returns the number of
// commands issued per command.
func driveStream(tb testing.TB, d *Device, steps, queryFrom int, pick func(n int) int) map[Command]int {
	tb.Helper()
	issued := map[Command]int{}
	var now int64
	query := func(step int) {
		if step < queryFrom {
			return
		}
		if got, want := d.NextRelease(now), nextReleaseScan(d, now); got != want {
			tb.Fatalf("step %d, cycle %d: NextRelease = %d, scan = %d", step, now, got, want)
		}
	}
	issue := func(cmd Command, addr Addr) {
		if d.CanIssue(cmd, addr, now) {
			d.Issue(cmd, addr, now)
			issued[cmd]++
		}
	}
	cfg := d.Config()
	for step := 0; step < steps; step++ {
		gap := pick(8)
		if gap == 7 {
			gap = pick(1024)
		}
		for end := now + int64(gap); now < end; {
			now++
			query(step)
		}
		cmd := streamCmds[pick(len(streamCmds))]
		addr := Addr{Bank: pick(cfg.TotalBanks()), Row: pick(4), Col: pick(cfg.ColumnsPerRow)}
		switch cmd {
		case CmdRD, CmdWR:
			if row, open := d.OpenRow(addr.Bank); open {
				addr.Row = row
			}
		case CmdREF:
			base := d.RankOf(addr.Bank) * cfg.BanksPerRank()
			for b := base; b < base+cfg.BanksPerRank(); b++ {
				if _, open := d.OpenRow(b); open {
					issue(CmdPRE, Addr{Bank: b})
				}
			}
		}
		issue(cmd, addr)
		query(step)
	}
	return issued
}

// skewedTiming is DDR5 with three gaps nudged so that no two releases one
// command sets coincide, as RTW and tCCD_L do on DDR5: a slot Issue fails
// to push cannot hide behind another slot's equal value.
func skewedTiming() Timing {
	t := DDR5()
	t.CCDS = 7
	t.RTW = 13
	t.RTP = 19
	return t
}

// TestNextReleaseMatchesScan drives seeded random command streams over
// both ranks and every bank group and requires the release heap to give
// the rescan's answer on every cycle. The mid-stream variant seeds the
// heap lazily after thousands of untracked issues.
func TestNextReleaseMatchesScan(t *testing.T) {
	const steps = 4000
	for _, timing := range []Timing{DDR5(), DDR4(), skewedTiming()} {
		for seed := int64(1); seed <= 4; seed++ {
			for _, queryFrom := range []int{0, steps / 2} {
				d, err := NewDevice(Default(), timing)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				issued := driveStream(t, d, steps, queryFrom, rng.Intn)
				for _, cmd := range []Command{CmdACT, CmdPRE, CmdRD, CmdWR, CmdREF, CmdRFM, CmdVRR, CmdAUX, CmdMIG} {
					if issued[cmd] == 0 {
						t.Errorf("seed %d: the stream never issued %v", seed, cmd)
					}
				}
			}
		}
	}
}

// FuzzNextRelease drives driveStream from the fuzzer's bytes: the first
// byte picks the timing and the step at which queries (and the heap)
// start, and each
// later byte feeds one draw of a command, bank, row, column or gap.
func FuzzNextRelease(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 7, 200, 0, 5, 1, 6, 0, 0, 0, 9, 2, 11, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 6, 6, 6, 6, 6, 6, 15, 15, 15, 7, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		timing := []Timing{DDR5(), DDR4(), skewedTiming()}[data[0]%3]
		queryFrom, data := int(data[0]/3%16), data[1:]
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			if n > 256 {
				v = v * n / 256
			}
			return v % n
		}
		d, err := NewDevice(Default(), timing)
		if err != nil {
			t.Fatal(err)
		}
		driveStream(t, d, len(data)/2+1, queryFrom, pick)
	})
}
