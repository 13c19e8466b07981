// Runtime invariant checking: the paper's theorems, asserted
// continuously on the live system instead of only in offline tests.
//
// A Checker attached to a Collector runs three checks every time an
// engine flushes its batched counters (Collector.RunChecks is called
// from the striper's SyncObs, under the engine mutex — never from the
// HTTP scrape path):
//
//   - Theorem 3.2 fairness: |K·Quantum_i − bytes_i| ≤ Max + 2·Quantum
//     for every channel, using the collector's live fairness gauge.
//   - Credit conservation: for every channel the gate's outstanding
//     grant satisfies 0 ≤ granted − consumed ≤ window. The receiver
//     grants exactly delivered + lost + window (flowcontrol.Manager),
//     so granted − consumed = window − in-flight: a value outside
//     [0, window] means bytes were minted or destroyed.
//   - Monotone rounds: the sender's global round G never decreases
//     between flushes (an SRR round, once completed, stays completed).
//
// Checks are edge-triggered: entering a violated state records one
// Violation and fires one KindInvariantViolation event; staying broken
// does not re-fire until the invariant recovers first, so a persistent
// break cannot storm the sinks.
package obs

import (
	"fmt"
	"sync"
)

// Violation is one invariant-checker finding.
type Violation struct {
	At      int64  // nanoseconds since the process timebase
	Check   string // "fairness", "credit", "round"
	Channel int    // offending channel, -1 when global
	Round   uint64 // sender round at detection
	Value   int64  // magnitude in the invariant's unit (see Detail)
	Detail  string // human-readable statement of the broken inequality
}

func (v Violation) String() string {
	return fmt.Sprintf("invariant %s channel=%d round=%d: %s", v.Check, v.Channel, v.Round, v.Detail)
}

// CreditAccount is one channel's flow-control ledger as seen by the
// sender's gate, provided to the checker by a CreditSource.
type CreditAccount struct {
	Channel  int
	Granted  int64 // cumulative bytes the receiver has granted
	Consumed int64 // cumulative bytes the sender has charged against it
	Window   int64 // configured credit window W
	// Retired marks an account torn down by dynamic membership (the
	// channel left the live set and its outstanding credit was
	// returned). Conservation is not asserted on retired accounts: the
	// teardown clamps granted to consumed by design, and the peer's
	// in-flight grants are ignored rather than folded in, so the ledger
	// is intentionally frozen, not leaking.
	Retired bool
}

// CreditSource supplies the current per-channel credit ledgers. It is
// called from RunChecks, i.e. under the same mutex as the engine flush
// that triggered it, so implementations may read engine state directly.
// The checker reads the returned slice only during that call, so a
// source may refill one slice every time. Register one with
// Collector.SetCreditSource.
type CreditSource func() []CreditAccount

// Checker evaluates protocol invariants on every engine flush. Create
// with NewChecker, attach with Collector.SetChecker. All methods are
// safe for concurrent use and safe on a nil receiver.
type Checker struct {
	// OnViolation, when non-nil, is called synchronously for every new
	// violation — tests hook it to fail immediately. Set before
	// attaching the checker.
	OnViolation func(Violation)

	mu        sync.Mutex
	lastRound uint64
	roundSeen bool
	inViol    map[checkKey]bool // edge-trigger state; only violated checks are present
	recent    []Violation       // bounded, oldest first
	next      int
	count     int64
}

// checkKey names one edge-triggered check: the invariant, and the
// channel it is evaluated on (-1 for global checks).
type checkKey struct {
	check   string
	channel int
}

// maxRecentViolations bounds the retained violation history.
const maxRecentViolations = 64

// NewChecker returns an invariant checker.
func NewChecker() *Checker {
	return &Checker{inViol: make(map[checkKey]bool)}
}

// ViolationCount returns the number of violations ever recorded.
func (k *Checker) ViolationCount() int64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.count
}

// Violations returns the retained findings, oldest first.
func (k *Checker) Violations() []Violation {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]Violation, 0, len(k.recent))
	out = append(out, k.recent[k.next:]...)
	out = append(out, k.recent[:k.next]...)
	return out
}

// run evaluates all checks against c. Called by Collector.RunChecks.
// New violations are recorded under the checker mutex but emitted to
// sinks only after it is released: a sink (e.g. the flight recorder)
// may respond by taking a full Snapshot, which reads the checker back.
// A Violation is built only when a check newly fires, so a run where
// nothing fires allocates nothing.
func (k *Checker) run(c *Collector, src CreditSource) {
	var fired []Violation
	k.mu.Lock()

	round := c.round.Load()

	// Theorem 3.2: the striped-byte discrepancy must stay inside the
	// Max + 2·Quantum band.
	disc, bound := c.Fairness()
	if k.fires(checkKey{"fairness", -1}, bound > 0 && disc > bound) {
		k.record(&fired, Violation{
			Check: "fairness", Channel: -1, Round: round, Value: disc - bound,
			Detail: fmt.Sprintf("|K*Quantum - bytes| = %d > bound %d (Theorem 3.2)", disc, bound),
		})
	}

	// Monotone rounds: G may stall but never regress.
	regressed := k.roundSeen && round < k.lastRound
	if k.fires(checkKey{"round", -1}, regressed) {
		k.record(&fired, Violation{
			Check: "round", Channel: -1, Round: round, Value: int64(k.lastRound - round),
			Detail: fmt.Sprintf("sender round regressed %d -> %d", k.lastRound, round),
		})
	}
	if !regressed {
		k.lastRound, k.roundSeen = round, true
	}

	// Credit conservation: granted = consumed + lost + in-flight, i.e.
	// the outstanding grant stays within [0, window] on every channel.
	if src != nil {
		for _, a := range src() {
			debt := a.Granted - a.Consumed
			// A retired account is never in violation; evaluating it as
			// healthy also clears any edge-trigger state from before the
			// teardown.
			if k.fires(checkKey{"credit", a.Channel}, !a.Retired && (debt < 0 || debt > a.Window)) {
				k.record(&fired, Violation{
					Check: "credit", Channel: a.Channel, Round: round, Value: debt,
					Detail: fmt.Sprintf("granted-consumed = %d-%d = %d outside [0, window %d]",
						a.Granted, a.Consumed, debt, a.Window),
				})
			}
		}
	}

	cb := k.OnViolation
	k.mu.Unlock()

	for _, v := range fired {
		c.emit(KindInvariantViolation, v.Channel, v.Round, v.Value)
		if cb != nil {
			cb(v)
		}
	}
}

// fires applies the edge trigger for one check: it records whether the
// check is broken now and reports whether it just entered that state.
// Caller holds k.mu.
func (k *Checker) fires(key checkKey, broken bool) bool {
	if k.inViol[key] == broken {
		return false
	}
	if broken {
		k.inViol[key] = true
	} else {
		delete(k.inViol, key)
	}
	return broken
}

// record stores a newly fired violation and queues it for emission.
// Caller holds k.mu.
func (k *Checker) record(fired *[]Violation, v Violation) {
	v.At = sinceEpoch()
	k.count++
	if cap(k.recent) == 0 {
		k.recent = make([]Violation, 0, maxRecentViolations)
	}
	if len(k.recent) < cap(k.recent) {
		k.recent = append(k.recent, v)
	} else {
		k.recent[k.next] = v
		k.next = (k.next + 1) % cap(k.recent)
	}
	*fired = append(*fired, v)
}

// --- Collector integration ---------------------------------------------

// SetChecker attaches an invariant checker; RunChecks evaluates it. A
// nil checker detaches.
func (c *Collector) SetChecker(k *Checker) {
	if c == nil {
		return
	}
	if k == nil {
		c.checker.Store(nil)
		return
	}
	c.checker.Store(k)
}

// Checker returns the attached invariant checker, or nil.
func (c *Collector) Checker() *Checker {
	if c == nil {
		return nil
	}
	return c.checker.Load()
}

// SetCreditSource registers the credit ledger supplier the checker's
// conservation check reads (typically a closure over the session's
// flow-control gate, registered by NewSession). A nil source clears it.
func (c *Collector) SetCreditSource(src CreditSource) {
	if c == nil {
		return
	}
	if src == nil {
		c.creditSrc.Store(nil)
		return
	}
	c.creditSrc.Store(&src)
}

// RunChecks evaluates the attached invariant checker, if any, and
// gives the windowed-telemetry rollup its fold opportunity. Engines
// call it at flush boundaries (marker cadence), under the same mutex
// that guards the state the checker's CreditSource reads.
func (c *Collector) RunChecks() {
	if c == nil {
		return
	}
	if w := c.windows.Load(); w != nil {
		w.maybeFold()
	}
	if k := c.checker.Load(); k != nil {
		var src CreditSource
		if p := c.creditSrc.Load(); p != nil {
			src = *p
		}
		k.run(c, src)
	}
}
