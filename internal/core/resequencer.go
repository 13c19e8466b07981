package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"stripe/internal/obs"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// Mode selects the receive discipline.
type Mode uint8

const (
	// ModeLogical is the paper's scheme: per-channel buffering plus
	// receiver simulation of the sender automaton, giving quasi-FIFO
	// delivery with unmodified packets and marker-based recovery.
	ModeLogical Mode = iota
	// ModeNone performs no resequencing: packets are delivered in
	// physical arrival order. This is the "no logical reception"
	// baseline of Figure 15.
	ModeNone
	// ModeSequence resequences on explicit per-packet sequence numbers
	// (requires the striper's AddSeq). Delivery is guaranteed FIFO; a
	// sequence gap is declared lost once every channel's head has moved
	// past it (per-channel FIFO makes that sound).
	ModeSequence
)

// ResequencerConfig configures a receiver engine.
type ResequencerConfig struct {
	// Sched is the receiver's copy of the sender automaton, in the
	// common start state. Required for ModeLogical (unless CausalSched
	// is given); ignored otherwise.
	Sched sched.RoundBased
	// CausalSched enables logical reception for causal schedulers
	// without round structure (for example the randomized RFQ of
	// Section 3.4). Theorem 4.1 needs only causality, so FIFO delivery
	// works; the round/deficit marker recovery of Section 5 does not
	// apply, so resynchronization after loss requires a reset. Ignored
	// when Sched is set.
	CausalSched sched.Causal
	// N is the channel count; required for ModeNone and ModeSequence
	// (ModeLogical takes it from Sched).
	N int
	// Mode selects the receive discipline.
	Mode Mode
	// OnMarker, when non-nil, observes every structurally valid marker
	// (in any mode). The flow controller uses it to read piggybacked
	// credits.
	OnMarker func(ch int, m packet.MarkerBlock)
	// OnMembership, when non-nil, observes membership transitions the
	// receiver applies: joined=true when channel c is (re)admitted,
	// false when its retirement completes. Sessions use it to mirror the
	// peer's membership onto their own transmit side and to recompute
	// derived sizing (buffer caps) for the new live set.
	OnMembership func(c int, joined bool)
	// OnTelemetry, when non-nil, observes every structurally valid
	// telemetry block arriving from the peer. Sessions feed it into an
	// obs.PeerView; without a handler telemetry packets are counted and
	// dropped.
	OnTelemetry func(t packet.TelemetryBlock)
	// Now supplies the receiver clock (nanoseconds) used to stamp marker
	// arrivals for the telemetry plane's one-way delay samples. Nil
	// selects time.Now. Deterministic harnesses inject a virtual clock.
	Now func() int64
	// SelfHealGap tunes the self-stabilization detector: a marker counts
	// as evidence of state corruption only when it is stale by more than
	// this many rounds. Legitimate staleness (markers buffered behind
	// data while overdrafted channels are skipped) is bounded by roughly
	// Max/min(Quantum) rounds, so the default of 256 never fires for
	// sane configurations. Zero selects the default; negative disables
	// self-healing.
	SelfHealGap int64
	// MaxBuffered caps the total packets held across the receiver's
	// buffers, making resequencer memory hard-bounded. Above the cap
	// the receiver escalates instead of growing: ordering is abandoned
	// for the backlog (forced delivery, the same medicine a reset
	// applies to ordering state) until occupancy falls to half the cap,
	// and while occupancy exceeds twice the cap, arrivals other than
	// resets are dropped — indistinguishable from channel loss, which
	// the marker protocol already recovers from. Zero means unbounded
	// (the seed behaviour).
	MaxBuffered int
	// Obs, when non-nil, receives per-channel metrics and protocol
	// events (resync, skip, reset, self-heal, fast-forward). A nil
	// collector disables instrumentation at the cost of one pointer
	// test per packet.
	Obs *obs.Collector
}

// ResequencerStats counts receiver events.
type ResequencerStats struct {
	Delivered      int64 // data packets handed to the application
	DeliveredBytes int64
	Markers        int64 // valid markers consumed
	BadMarkers     int64 // markers dropped as corrupt
	Resyncs        int64 // markers that changed receiver state (r_c or DC)
	Skips          int64 // channel visits skipped under the r_c > G rule
	Resets         int64 // epoch resets applied
	OldEpochDrops  int64 // packets discarded while waiting out a reset
	SelfHeals      int64 // self-stabilization events (state adopted from markers)
	FastForwards   int64 // round fast-forwards while every channel was skip-listed
	EagerMarkers   int64 // markers consumed eagerly at arrival (no data precedes them)
	Overflows      int64 // buffer-cap overflow escalations
	OverflowDrops  int64 // arrivals discarded at the hard buffer cap
	MemberJoins    int64 // channels (re)admitted to the live set
	MemberDrains   int64 // channel retirements completed
	MemberLost     int64 // buffered data packets declared lost at retirement
	MemberDrops    int64 // arrivals discarded on removed channels
	BadMembers     int64 // membership announcements dropped as corrupt
	Telemetry      int64 // telemetry blocks consumed
	BadTelemetry   int64 // telemetry blocks dropped as corrupt
	UnknownKinds   int64 // arrivals dropped for unrecognized codepoints
	BadFrames      int64 // frames a read pump dropped as undecodable (set by stripe.Receiver)
}

// Resequencer is the receiver engine. Drive it by pushing packets from
// each channel with Arrive and pulling in-order deliveries with Next.
// It is a pure state machine: not safe for concurrent use.
type Resequencer struct {
	mode   Mode
	s      sched.RoundBased
	cs     sched.Causal // round-less causal simulation (no markers)
	csInit sched.State  // cs start state, for resets
	n      int
	bufs   []pktFIFO
	arrivq pktFIFO // ModeNone delivery queue

	// Marker state (ModeLogical).
	expect   []uint64
	marked   []bool
	onMarker func(int, packet.MarkerBlock)
	// Pending marker slots for eager draining (round-based ModeLogical):
	// a marker popped from the head of its buffer at arrival has its
	// (round, deficit) staged here and applied when the scan next visits
	// the channel — the same stream position a buffered marker would
	// have been applied at, so scheduler-state conventions (mid-service
	// adjustments in particular) are undisturbed. Later markers
	// supersede earlier ones, so the slot bounds idle-direction marker
	// memory at one per channel.
	pending    []packet.MarkerBlock
	pendingHas []bool

	// skip is the skipRule method value, bound once here so the
	// per-delivery scan does not allocate a fresh closure for it.
	skip func(c int) bool

	// Sequence state (ModeSequence).
	nextSeq uint64

	// Reset/epoch state.
	epoch     uint64
	resetting bool
	passed    []bool

	stats ResequencerStats
	// Per-channel delivered byte counts, used by credit-based flow
	// control to compute cumulative grants.
	deliveredOn []int64
	// Per-channel cumulative data bytes physically arrived, the
	// receiver half of the marker-position reconciliation: Sent (from
	// the marker) minus arrivedOn is exactly the loss on the channel.
	arrivedOn []int64
	obs       *obs.Collector

	// Telemetry-plane state, harvested at physical marker arrival and
	// reported back to the sender by TelemetryBlock. resyncsOn
	// attributes resync events to the channel whose marker (or sequence
	// gap) triggered them; peerLost is the monotone max-fold of each
	// marker's Sent position minus arrivedOn — exact cumulative loss,
	// because channels are FIFO; markerTxNs/markerRxNs hold the latest
	// stamped marker's (sender tx, receiver rx) clock pair, one one-way
	// delay sample. telemetryBuf is the per-channel section every
	// TelemetryBlock report is cut into.
	resyncsOn    []int64
	peerLost     []int64
	markerTxNs   []int64
	markerRxNs   []int64
	now          func() int64
	telemetrySeq uint64
	telemetryBuf []packet.TelemetryChannel
	onTelemetry  func(packet.TelemetryBlock)

	// Memory bound state.
	maxBuffered int  // 0 = unbounded
	overflow    bool // escalated: deliver despite gaps until backlog halves
	// maxSeenID tracks the highest striper-assigned packet ID delivered
	// so far; a delivery below it is late by the difference, which is
	// the reordering displacement the collector histograms.
	maxSeenID int64

	// Self-stabilization state (Section 5's closing remark). A marker
	// whose round is *behind* the receiver's global round is "stale".
	// Transient staleness is normal (old markers still in flight), but
	// when every channel's latest marker is stale and no packet has been
	// delivered in between, the receiver's state cannot be a consistent
	// continuation of the sender's — it was corrupted (or wedged, which
	// deserves the same medicine). The receiver then adopts the state
	// the markers themselves declare, which resynchronizes in O(1)
	// without a round trip.
	staleRound   []uint64
	staleDeficit []int64
	staleHas     []bool
	staleCount   int
	healGap      uint64 // 0 = disabled

	// Dynamic membership (receive side). A channel leaves in two steps:
	// draining (departure announced or observed, buffered packets still
	// being delivered in order) then removed (buffer empty, slot disabled
	// in the simulation, further arrivals on it dropped). The universe is
	// never renumbered, preserving condition C2.
	mem     sched.Membership // non-nil when the simulated scheduler supports it
	leaving []bool           // draining: out of the live set, buffer not yet empty
	left    []bool           // removed
	// delimited marks channels whose data stream is known complete: a
	// membership block arrived on the channel itself while excluding it,
	// and per-channel FIFO puts that block after every packet the sender
	// transmitted before retiring the slot. A draining delimited channel
	// retires the moment its buffer empties without losing anything that
	// was in flight; an undelimited one waits for its delimiter, or for
	// RemoveChannel to declare the link dead.
	delimited    []bool
	leavingN     int
	memberSeq    uint64 // last applied announcement sequence number
	onMembership func(c int, joined bool)
}

// NewResequencer validates the configuration and returns a receiver.
func NewResequencer(cfg ResequencerConfig) (*Resequencer, error) {
	n := cfg.N
	var cs sched.Causal
	if cfg.Mode == ModeLogical {
		switch {
		case cfg.Sched != nil:
			n = cfg.Sched.N()
		case cfg.CausalSched != nil:
			cs = cfg.CausalSched
			n = cs.N()
		default:
			return nil, errors.New("core: ModeLogical requires a scheduler")
		}
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: need a positive channel count, got %d", n)
	}
	healGap := uint64(256)
	switch {
	case cfg.SelfHealGap > 0:
		healGap = uint64(cfg.SelfHealGap)
	case cfg.SelfHealGap < 0:
		healGap = 0
	}
	if cfg.Obs != nil && cfg.Obs.N() != n {
		return nil, fmt.Errorf("core: collector sized for %d channels, want %d", cfg.Obs.N(), n)
	}
	if cfg.MaxBuffered < 0 {
		return nil, fmt.Errorf("core: negative buffer cap %d", cfg.MaxBuffered)
	}
	rr := &Resequencer{
		mode:         cfg.Mode,
		s:            cfg.Sched,
		cs:           cs,
		n:            n,
		healGap:      healGap,
		obs:          cfg.Obs,
		maxSeenID:    -1,
		maxBuffered:  cfg.MaxBuffered,
		bufs:         make([]pktFIFO, n),
		expect:       make([]uint64, n),
		marked:       make([]bool, n),
		pending:      make([]packet.MarkerBlock, n),
		pendingHas:   make([]bool, n),
		passed:       make([]bool, n),
		onMarker:     cfg.OnMarker,
		deliveredOn:  make([]int64, n),
		arrivedOn:    make([]int64, n),
		staleRound:   make([]uint64, n),
		staleDeficit: make([]int64, n),
		staleHas:     make([]bool, n),
		leaving:      make([]bool, n),
		left:         make([]bool, n),
		delimited:    make([]bool, n),
		onMembership: cfg.OnMembership,
		resyncsOn:    make([]int64, n),
		peerLost:     make([]int64, n),
		markerTxNs:   make([]int64, n),
		markerRxNs:   make([]int64, n),
		telemetryBuf: make([]packet.TelemetryChannel, n),
		now:          cfg.Now,
		onTelemetry:  cfg.OnTelemetry,
	}
	if rr.now == nil {
		rr.now = nowNs
	}
	rr.mem, _ = cfg.Sched.(sched.Membership)
	rr.skip = rr.skipRule
	if cs != nil {
		rr.csInit = cs.Snapshot().Clone()
	}
	return rr, nil
}

// N returns the channel count.
func (r *Resequencer) N() int { return r.n }

// Stats returns a copy of the receiver counters.
func (r *Resequencer) Stats() ResequencerStats { return r.stats }

// DeliveredBytesOn returns the cumulative data bytes delivered that
// arrived on channel c. Credit-based flow control derives cumulative
// grants from it.
func (r *Resequencer) DeliveredBytesOn(c int) int64 { return r.deliveredOn[c] }

// ArrivedBytesOn returns the cumulative data bytes physically received
// on channel c, whether delivered, still buffered, or discarded.
// Credit reconciliation subtracts it from a marker-carried sender
// position to compute the channel's exact cumulative loss.
func (r *Resequencer) ArrivedBytesOn(c int) int64 {
	if c < 0 || c >= r.n {
		return 0
	}
	return r.arrivedOn[c]
}

// BufferedBytesOn returns the data payload bytes currently buffered for
// channel c (awaiting their turn in the delivery order).
func (r *Resequencer) BufferedBytesOn(c int) int64 {
	if c < 0 || c >= r.n {
		return 0
	}
	return r.bufs[c].dataBytes
}

// Buffered returns the total number of packets waiting in per-channel
// buffers (plus, in ModeNone, the delivery queue).
func (r *Resequencer) Buffered() int {
	t := r.arrivq.len()
	for i := range r.bufs {
		t += r.bufs[i].len()
	}
	return t
}

// Arrive accepts a packet physically received on channel c. Packets are
// buffered; ordering decisions happen in Next. Arrive owns every control
// packet it is handed, resets included, and releases it to the pool
// once consumed or dropped (see release); data belongs to whoever
// receives it from Next.
//
//stripe:hotpath
func (r *Resequencer) Arrive(c int, p *packet.Packet) {
	r.arrive(c, p)
	if r.obs != nil {
		r.obs.SetBuffered(int64(r.Buffered()))
	}
}

func (r *Resequencer) arrive(c int, p *packet.Packet) {
	if c < 0 || c >= r.n {
		return // unknown channel: drop defensively
	}
	if p.Kind == packet.Data {
		// Count every physical data arrival, delivered or not: the
		// reconciliation identity loss = Sent − arrived needs the raw
		// arrival position, and bytes later discarded (old epochs,
		// overflow) must still be credited back to the sender.
		r.arrivedOn[c] += int64(p.Len())
		r.obs.TraceArrive(traceKey(p), c)
	}
	if r.resetting && !r.passed[c] {
		// Waiting for this channel's reset boundary: everything before
		// it belongs to the old epoch.
		if p.Kind == packet.Reset && resetEpoch(p) == r.epoch {
			r.passed[c] = true
			if r.allPassed() {
				r.resetting = false
			}
		} else {
			r.stats.OldEpochDrops++
			r.obs.OnOldEpochDrops(1)
		}
		release(p)
		return
	}
	if p.Kind == packet.Member {
		// Membership announcements apply eagerly: they are full-bitmap and
		// sequenced, so applying one out of stream order is harmless, and
		// a draining channel keeps delivering until its buffer empties
		// regardless of when the announcement was seen.
		if m, err := packet.MemberOf(p); err == nil {
			r.applyMember(m)
			if int(m.N) == r.n && !m.ActiveChannel(c) {
				// The block arrived on a channel it excludes: it is the
				// departure's FIFO delimiter (or a later probe), so every
				// packet the sender put on c before retiring the slot has
				// already arrived. A draining c may now retire as soon as
				// its buffer drains, losing nothing in flight.
				r.delimited[c] = true
				if r.leaving[c] && r.bufs[c].len() == 0 {
					r.retire(c)
				}
			}
		} else {
			r.stats.BadMembers++
		}
		release(p)
		return
	}
	if p.Kind == packet.Telemetry {
		// Telemetry is advisory control traffic for the local sender; it
		// never enters the delivery order or the simulation.
		r.consumeTelemetry(p)
		release(p)
		return
	}
	if p.Kind > packet.Telemetry {
		// Forward compatibility: an unrecognized codepoint from a newer
		// peer is dropped here, before it can reach the buffers — the
		// delivery scans would otherwise account it against the simulated
		// schedulers and hand it to the application as data, desyncing
		// the two ends over a packet the sender never striped.
		r.stats.UnknownKinds++
		release(p)
		return
	}
	if p.Kind == packet.Marker {
		r.harvestMarker(c, p)
	}
	if r.left[c] {
		// Removed slot. Data is dropped (the arrival accounting above
		// still credits it back to the sender); markers are consumed for
		// their piggybacked credits only, since the slot has no
		// simulation state left to synchronize; resets must still apply
		// so a rejoining channel cannot wedge epoch recovery.
		switch p.Kind {
		case packet.Data:
			r.stats.MemberDrops++
		case packet.Marker:
			r.consumeMarker(c, p)
		case packet.Reset:
			r.applyReset(c, p)
		default:
			release(p)
		}
		return
	}
	switch r.mode {
	case ModeNone:
		switch p.Kind {
		case packet.Data:
			if r.enforceCap(c) {
				return
			}
			// In arrival-order mode delivery is immediate, so the drain
			// accounting used by flow control happens here.
			r.deliveredOn[c] += int64(p.Len())
			r.noteDelivered(c, p)
			r.arrivq.push(p)
		case packet.Marker:
			r.consumeMarker(c, p)
		case packet.Reset:
			r.applyReset(c, p)
		default:
			release(p)
		}
	default:
		if p.Kind != packet.Reset && r.enforceCap(c) {
			release(p)
			return
		}
		r.bufs[c].push(p)
		if p.Kind == packet.Data {
			r.obs.TraceBuffered(traceKey(p))
		}
		r.drainEagerMarkers(c)
	}
}

// enforceCap implements the buffer memory bound. It reports whether an
// arriving packet must be dropped outright (occupancy at twice the
// cap), and crossing the cap itself flips the receiver into overflow
// escalation: Next abandons strict order for the backlog until
// occupancy falls to half the cap. Dropping at the hard cap is safe by
// construction — to the protocol it is indistinguishable from channel
// loss, which markers already recover from — and it is what a real
// finite receive buffer does.
func (r *Resequencer) enforceCap(c int) (drop bool) {
	if r.maxBuffered == 0 {
		return false
	}
	total := r.Buffered()
	if total >= 2*r.maxBuffered {
		r.stats.OverflowDrops++
		r.obs.OnReseqOverflow(c, int64(total), true)
		return true
	}
	if total >= r.maxBuffered && !r.overflow {
		r.overflow = true
		r.stats.Overflows++
		r.obs.OnReseqOverflow(c, int64(total), false)
	}
	return false
}

// drainEagerMarkers consumes control packets sitting at the head of
// channel c's buffer immediately. A marker at the head has no data
// packet preceding it on its own FIFO channel, and consuming a marker
// is not a delivery, so nothing in the delivery order can precede it
// either — buffering it would only delay its synchronization state.
// Without this, an idle-but-markered direction accumulates markers
// without bound on channels the receiver simulation is not visiting.
func (r *Resequencer) drainEagerMarkers(c int) {
	for {
		p, ok := r.bufs[c].peek()
		if !ok {
			return
		}
		switch p.Kind {
		case packet.Marker:
			r.bufs[c].pop()
			m, ok := r.consumeMarker(c, p)
			if !ok {
				continue
			}
			r.stats.EagerMarkers++
			r.obs.OnMarkerDrained(c)
			if r.mode == ModeLogical && r.s != nil {
				// Applying scheduler state here would happen at an
				// arbitrary simulation position; stage it instead for the
				// scan to apply at the marker's true stream position. A
				// newer marker supersedes a staged one: the scan would
				// have applied them back to back with no data in between,
				// and the last application wins.
				r.pending[c] = m
				r.pendingHas[c] = true
			}
		case packet.Credit:
			// Credits belong on the reverse path; tolerate and drop.
			r.bufs[c].pop()
			release(p)
		default:
			return
		}
	}
}

// consumeMarker takes the marker p, already off channel c's stream, out
// of the receive path: it decodes and counts it, hands the block to
// OnMarker, and releases the packet. It reports a valid block, whose
// scheduler state the caller may apply or stage.
func (r *Resequencer) consumeMarker(c int, p *packet.Packet) (packet.MarkerBlock, bool) {
	m, err := packet.MarkerOf(p)
	release(p)
	if err != nil {
		r.stats.BadMarkers++
		r.obs.OnBadMarker()
		return m, false
	}
	r.stats.Markers++
	r.obs.OnMarkerConsumed(c)
	if r.onMarker != nil {
		r.onMarker(c, m)
	}
	return m, true
}

// release is the one place the receiver gives up the control packets
// Arrive owns: each goes back to the pool once consumed or dropped.
// Data belongs to whoever receives it.
func release(p *packet.Packet) {
	if p.Kind != packet.Data {
		p.Release()
	}
}

// noteDelivered records a delivery with the observability layer. It
// does not touch the ResequencerStats counters; callers keep their
// existing accounting (ModeNone, notably, counts delivery at Arrive
// time and never increments stats.Delivered).
func (r *Resequencer) noteDelivered(c int, p *packet.Packet) {
	if r.obs == nil {
		return
	}
	var disp int64
	if id := int64(p.ID); id >= r.maxSeenID {
		r.maxSeenID = id
	} else {
		disp = r.maxSeenID - id
	}
	r.obs.OnDelivered(c, p.Len(), disp)
	r.obs.TraceDeliver(traceKey(p), disp)
}

// traceKey is a packet's lifecycle-tracing identity: the explicit
// sequence number when present (it crosses the wire, so both ends of a
// remote session agree on it), else the striper's in-process ID.
func traceKey(p *packet.Packet) uint64 {
	if p.HasSeq {
		return p.Seq
	}
	return p.ID
}

// WaitingOn returns the channel logical reception is blocked on. It is
// meaningful after Next returned false in ModeLogical.
func (r *Resequencer) WaitingOn() int {
	if r.mode != ModeLogical {
		return -1
	}
	if r.cs != nil {
		return r.cs.Select()
	}
	return r.s.Current()
}

// Next returns the next packet in delivery order, or false if the
// receiver must wait for more arrivals.
//
//stripe:hotpath
func (r *Resequencer) Next() (*packet.Packet, bool) {
	p, ok := r.next()
	if r.obs != nil {
		r.obs.SetBuffered(int64(r.Buffered()))
	}
	return p, ok
}

// NextBatch fills dst with the next packets in delivery order and
// returns how many it delivered (possibly zero, meaning the receiver
// must wait for more arrivals — the same condition as Next returning
// false). One call amortizes the scan machinery over whole service
// runs: once a delivery leaves the simulation mid-service of a
// channel, the run's remaining packets are taken straight off that
// channel without re-running channel selection, which is exactly what
// the scan would do — while the deficit stays positive SelectFor
// cannot move, fast-forward requires a service boundary, and nothing
// staged for the channel may apply before its run position.
//
//stripe:hotpath
func (r *Resequencer) NextBatch(dst []*packet.Packet) int {
	n := 0
	for n < len(dst) {
		p, ok := r.next()
		if !ok {
			break
		}
		dst[n] = p
		n++
		if r.mode == ModeLogical && r.cs == nil && r.leavingN == 0 {
			n += r.drainRun(dst[n:])
		}
	}
	if r.obs != nil {
		r.obs.SetBuffered(int64(r.Buffered()))
	}
	return n
}

// drainRun continues the current service run: while the round-based
// simulation is mid-service of a settled channel (no staged marker, not
// leaving) whose head is a data packet, delivery and deficit accounting
// proceed without the scan. Any other head kind — or the run ending —
// falls back to the full discipline in the caller's loop.
//
//stripe:hotpath
func (r *Resequencer) drainRun(dst []*packet.Packet) int {
	n := 0
	for n < len(dst) && r.s.MidService() {
		c := r.s.Current()
		if r.pendingHas[c] || r.left[c] || r.leaving[c] {
			break
		}
		p, ok := r.bufs[c].peek()
		if !ok || p.Kind != packet.Data {
			break
		}
		r.bufs[c].pop()
		r.s.Account(p.Len())
		r.stats.Delivered++
		r.stats.DeliveredBytes += int64(p.Len())
		r.deliveredOn[c] += int64(p.Len())
		r.noteDelivered(c, p)
		dst[n] = p
		n++
	}
	return n
}

func (r *Resequencer) next() (*packet.Packet, bool) {
	// Overflow escalation ends once the backlog has halved (hysteresis,
	// so a buffer hovering at the cap does not flap in and out of forced
	// delivery).
	if r.overflow && r.Buffered() <= r.maxBuffered/2 {
		r.overflow = false
	}
	for {
		p, ok := r.dispatch()
		if ok {
			return p, true
		}
		// Blocked. Under overflow escalation, blocking is what grows the
		// buffer without bound, so force the discipline past the gap —
		// the same medicine Drain applies at end of stream.
		if !r.overflow || r.Buffered() == 0 || !r.forceAdvance() {
			return nil, false
		}
	}
}

func (r *Resequencer) dispatch() (*packet.Packet, bool) {
	switch r.mode {
	case ModeNone:
		return r.arrivq.pop()
	case ModeSequence:
		return r.nextSequence()
	default:
		if r.cs != nil {
			return r.nextCausal()
		}
		return r.nextLogical()
	}
}

// forceAdvance pushes a blocked delivery discipline past the channel or
// sequence gap it is waiting on, abandoning strict order for the
// backlog. It reports whether another delivery attempt is worthwhile.
// Reordering here is equivalent to unrecovered loss followed by
// quasi-FIFO resumption, which downstream consumers already tolerate.
func (r *Resequencer) forceAdvance() bool {
	switch r.mode {
	case ModeLogical:
		if r.cs != nil {
			// Round-less causal simulation: charge a phantom packet to
			// move the automaton past the exhausted channel.
			r.cs.Account(1)
			return true
		}
		// Abandon the blocked channel's service and clear any skip marks
		// that could spin the scan.
		for i := range r.marked {
			r.marked[i] = false
		}
		r.s.EndService()
		return true
	case ModeSequence:
		// Release the smallest buffered sequence number.
		min, ch := uint64(0), -1
		for c := 0; c < r.n; c++ {
			if p, ok := r.bufs[c].peek(); ok && p.Kind == packet.Data && p.HasSeq {
				if ch == -1 || p.Seq < min {
					min, ch = p.Seq, c
				}
			}
		}
		if ch == -1 {
			// Only control packets remain; consume them.
			advanced := false
			for c := 0; c < r.n; c++ {
				for {
					q, ok := r.bufs[c].pop()
					if !ok {
						break
					}
					release(q)
					advanced = true
				}
			}
			return advanced
		}
		r.nextSeq = min
		return true
	default:
		return false
	}
}

// nextCausal is logical reception for round-less causal schedulers:
// pure sender simulation, no marker protocol.
func (r *Resequencer) nextCausal() (*packet.Packet, bool) {
	for {
		c := r.cs.Select()
		p, ok := r.bufs[c].peek()
		if !ok {
			return nil, false
		}
		switch p.Kind {
		case packet.Marker:
			r.bufs[c].pop()
			r.consumeMarker(c, p)
		case packet.Reset:
			r.bufs[c].pop()
			r.applyReset(c, p)
		case packet.Credit:
			r.bufs[c].pop()
			release(p)
		default:
			r.bufs[c].pop()
			r.cs.Account(p.Len())
			r.stats.Delivered++
			r.stats.DeliveredBytes += int64(p.Len())
			r.deliveredOn[c] += int64(p.Len())
			r.noteDelivered(c, p)
			return p, true
		}
	}
}

// skipRule is the r_c > G rule. It is invoked through the skip field
// (a method value bound once at construction — binding it at the
// SelectFor call site would allocate a closure per scan), so hot
// traversal cannot see through the indirection; it carries its own
// annotation.
//
//stripe:hotpath
func (r *Resequencer) skipRule(c int) bool {
	if r.marked[c] && r.expect[c] > r.s.Round() {
		r.stats.Skips++
		r.obs.OnSkip(c, r.s.Round())
		return true
	}
	return false
}

// maybeFastForward jumps the receiver's round directly to the smallest
// expected round when every channel is skip-listed, so recovery after a
// long outage costs O(channels) instead of O(rounds missed).
func (r *Resequencer) maybeFastForward() {
	if r.s.MidService() {
		return
	}
	min := uint64(0)
	have := false
	for c := 0; c < r.n; c++ {
		if r.left[c] {
			continue // removed slots neither block nor bound the jump
		}
		if !r.marked[c] || r.expect[c] <= r.s.Round() {
			return
		}
		if !have || r.expect[c] < min {
			min = r.expect[c]
			have = true
		}
	}
	if !have {
		return
	}
	from := r.s.Round()
	r.s.AdvanceRoundTo(min)
	r.stats.FastForwards++
	r.obs.OnFastForward(from, min)
}

func (r *Resequencer) nextLogical() (*packet.Packet, bool) {
	for {
		if r.leavingN > 0 {
			r.sweepLeaving()
		}
		r.maybeFastForward()
		c := r.s.SelectFor(r.skip)
		if r.pendingHas[c] {
			// An eagerly drained marker staged for this channel: the scan
			// has now consumed everything that preceded it, which is the
			// position its scheduler state speaks about.
			r.pendingHas[c] = false
			r.applyMarker(c, r.pending[c])
			continue
		}
		p, ok := r.bufs[c].peek()
		if !ok {
			// Logical reception blocks here until channel c produces the
			// packet the simulation says comes next. A draining c blocks
			// too: its in-flight tail may still arrive, and only the
			// leave delimiter (or RemoveChannel, for a link observed
			// dead) proves it will not — sweepLeaving then retires it.
			return nil, false
		}
		switch p.Kind {
		case packet.Marker:
			r.bufs[c].pop()
			if m, ok := r.consumeMarker(c, p); ok {
				r.applyMarker(c, m)
			}
		case packet.Reset:
			r.bufs[c].pop()
			r.applyReset(c, p)
		case packet.Credit:
			// Credits belong on the reverse path; tolerate and drop.
			r.bufs[c].pop()
			release(p)
		default:
			r.bufs[c].pop()
			r.s.Account(p.Len())
			r.stats.Delivered++
			r.stats.DeliveredBytes += int64(p.Len())
			r.deliveredOn[c] += int64(p.Len())
			r.noteDelivered(c, p)
			return p, true
		}
	}
}

// applyMarker adopts the sender state (r_c, DC_c) carried by a marker
// for channel c. It is invoked from the scan, where channel c is the
// one under service, so the receiver may be mid-service of c.
func (r *Resequencer) applyMarker(c int, m packet.MarkerBlock) {
	// Condition C2: adopt the sender's numbering of the channel. The
	// engines index channels identically by construction, so a
	// disagreement indicates mis-wiring; the marker is ignored rather
	// than corrupting another channel's state.
	if int(m.Channel) != c {
		r.stats.BadMarkers++
		r.obs.OnBadMarker()
		return
	}
	g := r.s.Round()
	switch {
	case m.Round > g:
		// The sender's next packet on c is rounds ahead: the receiver
		// has been consuming too eagerly (losses upstream). Close the
		// channel's service and skip it until G catches up.
		if r.s.MidService() && r.s.Current() == c {
			r.s.SetDeficit(c, m.Deficit)
			r.s.EndService()
		} else {
			r.s.SetDeficit(c, m.Deficit)
		}
		if !r.marked[c] || r.expect[c] != m.Round {
			r.stats.Resyncs++
			r.resyncsOn[c]++
			r.obs.OnResync(c, m.Round, m.Deficit)
		}
		r.marked[c] = true
		r.expect[c] = m.Round
	case m.Round == g:
		// In the current round. If the channel is mid-service the
		// quantum has already been granted on top of the marker's
		// pre-service deficit.
		d := m.Deficit
		if r.s.MidService() && r.s.Current() == c {
			d += r.s.QuantumOf(c)
		}
		if r.s.Deficit(c) != d {
			r.stats.Resyncs++
			r.resyncsOn[c]++
			r.obs.OnResync(c, m.Round, d)
			r.s.SetDeficit(c, d)
		}
		r.marked[c] = true
		r.expect[c] = m.Round
	default:
		// Stale marker from a round the receiver already passed. Mild
		// staleness is routine: a marker can sit buffered behind data
		// while its channel is overdraft-skipped, so the receiver's
		// round moves past it legitimately. But a marker stale by far
		// more than any overdraft horizon on *every* channel, with no
		// fresh marker in between, means the receiver's round ran ahead
		// of anything the sender ever declared — corrupt state — and the
		// markers themselves are the authoritative state to adopt.
		if r.healGap == 0 || g-m.Round <= r.healGap {
			return
		}
		r.staleRound[c] = m.Round
		r.staleDeficit[c] = m.Deficit
		if !r.staleHas[c] {
			r.staleHas[c] = true
		}
		r.staleCount++
		if r.staleCount >= 2*r.n && r.allStale() {
			r.selfHeal()
		}
		return
	}
	// A current or future marker clears the self-stabilization alarm.
	r.clearStale()
}

func (r *Resequencer) allStale() bool {
	for c, ok := range r.staleHas {
		if !ok && !r.left[c] {
			return false
		}
	}
	return true
}

func (r *Resequencer) clearStale() {
	if r.staleCount == 0 {
		return
	}
	r.staleCount = 0
	for i := range r.staleHas {
		r.staleHas[i] = false
	}
}

// selfHeal adopts the per-channel states declared by the latest (stale)
// markers: the receiver restarts its simulation at the earliest round
// any channel expects, with every channel's deficit and expected round
// taken from its marker, and lets the ordinary skip rule do the rest.
//
//stripe:allowescape cold self-stabilization path: fires only after healGap-stale markers on every channel, and restoring scheduler state allocates
func (r *Resequencer) selfHeal() {
	min, have := uint64(0), false
	for c, v := range r.staleRound {
		if r.left[c] {
			continue // removed slots carry no marker evidence
		}
		if !have || v < min {
			min, have = v, true
		}
	}
	if !have {
		return
	}
	r.s.Restore(sched.State{
		Current:  0,
		Round:    min,
		Began:    false,
		Deficits: append([]int64(nil), r.staleDeficit...),
	})
	for c := 0; c < r.n; c++ {
		if r.left[c] {
			continue
		}
		r.marked[c] = true
		r.expect[c] = r.staleRound[c]
	}
	r.stats.SelfHeals++
	r.stats.Resyncs++
	r.obs.OnSelfHeal(min)
	r.clearStale()
}

func (r *Resequencer) nextSequence() (*packet.Packet, bool) {
scan:
	for {
		if r.leavingN > 0 {
			r.sweepLeaving()
		}
		// Deliver any head matching the expected sequence number.
		allHeads := true
		minSeq := uint64(0)
		minCh := -1
		for c := 0; c < r.n; c++ {
			if r.left[c] {
				continue // removed slots neither hold heads nor block gaps
			}
			p, ok := r.bufs[c].peek()
			if !ok {
				// Same rule as the logical scan: an empty channel, draining
				// or not, may still deliver the expected number.
				allHeads = false
				continue
			}
			switch p.Kind {
			case packet.Data:
				if !p.HasSeq {
					// Not stamped: cannot be ordered; deliver eagerly.
					r.bufs[c].pop()
					r.stats.Delivered++
					r.stats.DeliveredBytes += int64(p.Len())
					r.deliveredOn[c] += int64(p.Len())
					r.noteDelivered(c, p)
					return p, true
				}
				if p.Seq == r.nextSeq {
					r.bufs[c].pop()
					r.nextSeq++
					r.stats.Delivered++
					r.stats.DeliveredBytes += int64(p.Len())
					r.deliveredOn[c] += int64(p.Len())
					r.noteDelivered(c, p)
					return p, true
				}
				if minCh == -1 || p.Seq < minSeq {
					minSeq = p.Seq
					minCh = c
				}
			case packet.Marker:
				r.bufs[c].pop()
				r.consumeMarker(c, p)
				continue scan
			case packet.Reset:
				r.bufs[c].pop()
				r.applyReset(c, p)
				continue scan
			default:
				r.bufs[c].pop()
				release(p)
				continue scan
			}
		}
		if !allHeads {
			// Some channel is empty; the expected sequence number may
			// still arrive there (per-channel FIFO guarantees each
			// channel's sequence numbers are increasing).
			return nil, false
		}
		if minCh == -1 {
			return nil, false
		}
		// Every channel has a data head and all exceed nextSeq: the gap
		// [nextSeq, minSeq) was lost. Declare it and resume at minSeq.
		r.stats.Resyncs++
		r.resyncsOn[minCh]++
		r.obs.OnResync(minCh, 0, int64(minSeq))
		r.nextSeq = minSeq
	}
}

//stripe:allowescape reset path: runs once per crash-recovery epoch change, and flushing buffers and restoring scheduler state may allocate
func (r *Resequencer) applyReset(c int, p *packet.Packet) {
	e := resetEpoch(p)
	release(p)
	if e <= r.epoch {
		return // duplicate or stale reset
	}
	r.epoch = e
	r.resetting = true
	r.stats.Resets++
	r.obs.OnReset(e)
	for i := range r.passed {
		r.passed[i] = false
		r.marked[i] = false
		r.expect[i] = 0
		r.pendingHas[i] = false // staged markers are from the old epoch
	}
	r.nextSeq = 0
	r.overflow = false // the flush below empties the buffers
	if r.s != nil {
		r.s.Reset()
	}
	if r.cs != nil {
		r.cs.Restore(r.csInit.Clone())
	}
	r.arrivq.clear()
	// The channel the reset arrived on is past its boundary; the others
	// flush buffered old-epoch packets, keeping anything after their own
	// reset boundary.
	r.passed[c] = true
	for i := range r.bufs {
		if i == c {
			continue
		}
		for {
			q, ok := r.bufs[i].pop()
			if !ok {
				break
			}
			if q.Kind == packet.Reset && resetEpoch(q) == e {
				r.passed[i] = true
				release(q)
				break
			}
			r.stats.OldEpochDrops++
			r.obs.OnOldEpochDrops(1)
			release(q)
		}
	}
	// Channels outside the live set never carry the new epoch's reset
	// boundary, so do not wait on them. A draining channel finishes its
	// retirement here: the flush above already discarded its backlog as
	// old-epoch traffic, so there is nothing left to deliver in order.
	for i := 0; i < r.n; i++ {
		if r.leaving[i] {
			r.retire(i)
		}
		if r.left[i] {
			r.passed[i] = true
		}
	}
	if r.allPassed() {
		r.resetting = false
	}
}

func (r *Resequencer) allPassed() bool {
	for _, ok := range r.passed {
		if !ok {
			return false
		}
	}
	return true
}

func resetEpoch(p *packet.Packet) uint64 {
	if len(p.Payload) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(p.Payload[:8])
}

// Drain empties the receive buffers at end of stream, best effort: it
// keeps running the normal discipline, and whenever the discipline
// blocks on an empty channel it force-advances past it. The tail of a
// finite transfer is therefore delivered without waiting for traffic
// that will never come. Reordering at the drained tail is possible after
// unrecovered loss, exactly like quasi-FIFO.
func (r *Resequencer) Drain() []*packet.Packet {
	var out []*packet.Packet
	for r.Buffered() > 0 {
		p, ok := r.Next()
		if ok {
			out = append(out, p)
			continue
		}
		if !r.forceAdvance() {
			return out
		}
	}
	return out
}

// pktFIFO is a slice-backed packet FIFO with amortised O(1) pop.
type pktFIFO struct {
	buf  []*packet.Packet
	head int
	// dataBytes tracks the payload bytes of buffered Data packets, so
	// flow-control reconciliation can read per-channel buffered bytes in
	// O(1).
	dataBytes int64
}

//stripe:allowescape buffer growth is amortized O(1): append doubles capacity, and the backing array is reused after drain
func (f *pktFIFO) push(p *packet.Packet) {
	if p.Kind == packet.Data {
		f.dataBytes += int64(len(p.Payload))
	}
	f.buf = append(f.buf, p)
}

func (f *pktFIFO) len() int { return len(f.buf) - f.head }

func (f *pktFIFO) peek() (*packet.Packet, bool) {
	if f.head == len(f.buf) {
		return nil, false
	}
	return f.buf[f.head], true
}

func (f *pktFIFO) pop() (*packet.Packet, bool) {
	if f.head == len(f.buf) {
		return nil, false
	}
	p := f.buf[f.head]
	if p.Kind == packet.Data {
		f.dataBytes -= int64(len(p.Payload))
	}
	f.buf[f.head] = nil
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head > 256 && f.head*2 > len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		for i := n; i < len(f.buf); i++ {
			f.buf[i] = nil
		}
		f.buf = f.buf[:n]
		f.head = 0
	}
	return p, true
}

func (f *pktFIFO) clear() {
	f.buf = f.buf[:0]
	f.head = 0
	f.dataBytes = 0
}
