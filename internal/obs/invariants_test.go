package obs

import (
	"strings"
	"testing"
)

// TestCheckerFairnessRedThenGreen seeds a Theorem 3.2 fairness-band
// exit and checks the checker catches it, stays quiet while it
// persists (edge triggering), and re-fires after a recovery.
func TestCheckerFairnessRedThenGreen(t *testing.T) {
	c := NewCollector(2)
	k := NewChecker()
	c.SetChecker(k)
	c.SetQuantum(0, 100)
	c.SetQuantum(1, 100)
	c.SetRound(1)

	// Green: balanced striping, inside the band.
	c.OnStriped(0, 100)
	c.OnStriped(1, 100)
	c.RunChecks()
	if n := k.ViolationCount(); n != 0 {
		t.Fatalf("healthy run violated %d times", n)
	}

	// Red: pile bytes onto channel 0 without advancing the round. The
	// discrepancy |K*Q - bytes_0| = 4800 busts the Max + 2*Quantum band.
	for i := 0; i < 48; i++ {
		c.OnStriped(0, 100)
	}
	c.RunChecks()
	if n := k.ViolationCount(); n != 1 {
		t.Fatalf("seeded fairness break: %d violations, want 1", n)
	}
	v := k.Violations()[0]
	if v.Check != "fairness" || v.Value <= 0 || !strings.Contains(v.Detail, "Theorem 3.2") {
		t.Fatalf("violation: %+v", v)
	}
	if !strings.Contains(v.String(), "invariant fairness") {
		t.Fatalf("String: %q", v.String())
	}

	// Still broken: edge-triggered, no second finding.
	c.RunChecks()
	if n := k.ViolationCount(); n != 1 {
		t.Fatalf("persistent break re-fired: %d", n)
	}

	// Recover: catch the other channel up and advance the round so the
	// discrepancy collapses to zero.
	for i := 0; i < 48; i++ {
		c.OnStriped(1, 100)
	}
	c.SetRound(50)
	c.RunChecks()
	if n := k.ViolationCount(); n != 1 {
		t.Fatalf("recovered state counted as violation: %d", n)
	}

	// Break again: the edge re-arms after recovery.
	for i := 0; i < 50; i++ {
		c.OnStriped(0, 100)
	}
	c.RunChecks()
	if n := k.ViolationCount(); n != 2 {
		t.Fatalf("second break: %d violations, want 2", n)
	}
}

// TestCheckerRoundMonotone checks the round-regression invariant.
func TestCheckerRoundMonotone(t *testing.T) {
	c := NewCollector(1)
	k := NewChecker()
	c.SetChecker(k)

	c.SetRound(10)
	c.RunChecks()
	c.SetRound(11)
	c.RunChecks()
	if n := k.ViolationCount(); n != 0 {
		t.Fatalf("monotone rounds violated %d times", n)
	}
	c.SetRound(5)
	c.RunChecks()
	vs := k.Violations()
	if len(vs) != 1 || vs[0].Check != "round" || vs[0].Value != 6 {
		t.Fatalf("regression finding: %+v", vs)
	}
}

// TestCheckerCreditConservation seeds a broken credit ledger through a
// CreditSource and checks both failure directions are caught.
func TestCheckerCreditConservation(t *testing.T) {
	c := NewCollector(2)
	k := NewChecker()
	c.SetChecker(k)

	ledger := []CreditAccount{
		{Channel: 0, Granted: 1000, Consumed: 400, Window: 1000},
		{Channel: 1, Granted: 1000, Consumed: 900, Window: 1000},
	}
	c.SetCreditSource(func() []CreditAccount { return ledger })

	c.RunChecks()
	if n := k.ViolationCount(); n != 0 {
		t.Fatalf("healthy ledger violated %d times", n)
	}

	// Channel 0 mints credit (debt > window), channel 1 destroys it
	// (consumed more than granted).
	ledger[0].Granted = 3000
	ledger[1].Consumed = 1200
	c.RunChecks()
	vs := k.Violations()
	if len(vs) != 2 {
		t.Fatalf("broken ledger: %+v", vs)
	}
	for _, v := range vs {
		if v.Check != "credit" {
			t.Fatalf("finding: %+v", v)
		}
	}
	if vs[0].Channel == vs[1].Channel {
		t.Fatalf("per-channel edge triggers collided: %+v", vs)
	}
}

// TestRunChecksQuietZeroAlloc pins that the checker costs no allocation
// while nothing fires: RunChecks runs on every engine flush, and a
// Violation (with its formatted detail) is built only when a check
// newly enters a violated state.
func TestRunChecksQuietZeroAlloc(t *testing.T) {
	c := NewCollector(2)
	c.SetChecker(NewChecker())
	c.SetQuantum(0, 100)
	c.SetQuantum(1, 100)
	ledger := []CreditAccount{
		{Channel: 0, Granted: 1000, Consumed: 400, Window: 1000},
		{Channel: 1, Granted: 1000, Consumed: 900, Window: 1000},
	}
	c.SetCreditSource(func() []CreditAccount { return ledger })
	round := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		round++
		c.SetRound(round)
		c.OnStriped(0, 100)
		c.OnStriped(1, 100)
		c.RunChecks()
	})
	if allocs != 0 {
		t.Fatalf("quiet RunChecks allocates %.1f times, want 0", allocs)
	}
	if n := c.Checker().ViolationCount(); n != 0 {
		t.Fatalf("healthy run violated %d times", n)
	}
}

// TestCheckerCallbackAndEvents checks violations surface as
// KindInvariantViolation events, through OnViolation, and in the
// collector snapshot.
func TestCheckerCallbackAndEvents(t *testing.T) {
	c := NewCollector(1)
	ring := NewRingSink(8)
	c.AddSink(ring)
	k := NewChecker()
	var got []Violation
	k.OnViolation = func(v Violation) { got = append(got, v) }
	c.SetChecker(k)

	c.SetRound(10)
	c.RunChecks()
	c.SetRound(3)
	c.RunChecks()

	if len(got) != 1 || got[0].Check != "round" {
		t.Fatalf("callback saw %+v", got)
	}
	evs := ring.Events()
	if len(evs) != 1 || evs[0].Kind != KindInvariantViolation {
		t.Fatalf("events: %+v", evs)
	}
	if evs[0].At == 0 {
		t.Fatalf("event missing timebase stamp: %+v", evs[0])
	}
	s := c.Snapshot()
	if s.InvariantViolations != 1 || len(s.Violations) != 1 {
		t.Fatalf("snapshot: violations=%d %+v", s.InvariantViolations, s.Violations)
	}
	if s.Events["invariant_violation"] != 1 {
		t.Fatalf("event counter: %v", s.Events)
	}
}

// TestCheckerNilSafety checks nil checkers and empty attachments.
func TestCheckerNilSafety(t *testing.T) {
	var k *Checker
	if k.ViolationCount() != 0 || k.Violations() != nil {
		t.Fatal("nil checker not inert")
	}
	var c *Collector
	c.SetChecker(nil)
	c.SetCreditSource(nil)
	c.RunChecks()

	c2 := NewCollector(1)
	c2.RunChecks() // no checker attached
	c2.SetChecker(NewChecker())
	c2.SetChecker(nil) // detach
	c2.RunChecks()
	if c2.Checker() != nil {
		t.Fatal("detach failed")
	}
}

// TestCheckerWithFlightRecorder wires the checker and the flight
// recorder to one collector and trips an invariant: the recorder's dump
// path re-enters the collector for a snapshot, which reads the checker
// back — this must complete without deadlock and the dump must carry
// the violation.
func TestCheckerWithFlightRecorder(t *testing.T) {
	c := NewCollector(1)
	fr := NewFlightRecorder(c, FlightRecorderConfig{})
	c.AddSink(fr)
	k := NewChecker()
	c.SetChecker(k)

	c.SetRound(10)
	c.RunChecks()
	c.SetRound(2)
	c.RunChecks() // trips "round"; recorder dumps synchronously

	d, ok := fr.LastDump()
	if !ok {
		t.Fatal("no dump")
	}
	if d.Reason != "invariant violation" || d.Trigger.Kind != KindInvariantViolation {
		t.Fatalf("dump: reason=%q trigger=%+v", d.Reason, d.Trigger)
	}
	if d.Snapshot.InvariantViolations != 1 || len(d.Snapshot.Violations) != 1 {
		t.Fatalf("dump snapshot: %+v", d.Snapshot.Violations)
	}
}
