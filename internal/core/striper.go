package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"stripe/internal/channel"
	"stripe/internal/obs"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// MarkerPolicy controls when the sender cuts synchronization markers.
type MarkerPolicy struct {
	// Every is the marker period in rounds: a marker batch (one marker
	// per channel) is cut every `Every` rounds. Zero disables markers.
	Every uint64
	// Position is the channel index the round-robin pointer must rest on
	// when the batch is cut: 0 places markers at the beginning of a
	// round, N-1 near its end. Section 6.3 studies how this placement
	// affects the number of out-of-order deliveries.
	Position int
}

// StriperConfig configures a sender engine.
type StriperConfig struct {
	// Sched is the causal scheduling automaton; the receiver must be
	// built from an automaton with identical parameters. Required
	// unless CausalSched is given.
	Sched sched.RoundBased
	// CausalSched stripes with a round-less causal scheduler (for
	// example RFQ). Markers are unavailable — the Section 5 protocol is
	// round-based — so configure Markers only with Sched.
	CausalSched sched.Causal
	// Channels are the transmit sides of the striped channels, indexed
	// exactly as the receiver indexes them (condition C2). Required.
	Channels []channel.Sender
	// Markers configures periodic synchronization markers.
	Markers MarkerPolicy
	// AddSeq makes the striper stamp an explicit sequence number on
	// every data packet — the "with header" protocol variants of
	// Table 1. The default (false) transmits data packets unmodified.
	AddSeq bool
	// Gate, when non-nil, is consulted before each transmission; it
	// implements per-channel flow control (credits). A nil gate admits
	// everything.
	Gate Gate
	// MarkerCredits, when non-nil, fills the Credits field of each
	// outgoing marker with the cumulative flow-control grant for the
	// *reverse* direction's channel c — the paper's observation that
	// credits piggyback naturally on the periodic marker traffic.
	MarkerCredits func(c int) uint64
	// Obs, when non-nil, receives per-channel metrics and protocol
	// events. A nil collector disables instrumentation at the cost of
	// one pointer test per packet.
	Obs *obs.Collector
	// Now supplies the sender clock (nanoseconds) stamped into each
	// marker's TxNs field for the peer telemetry plane's one-way delay
	// estimation. Nil selects time.Now. Deterministic harnesses inject
	// a virtual clock.
	Now func() int64
}

// Gate is the hook the credit-based flow controller plugs into.
type Gate interface {
	// Admit reports whether a packet of the given size may currently be
	// sent on channel c.
	Admit(c int, size int) bool
	// Consume records that a packet of the given size was sent on c.
	Consume(c int, size int)
}

// creditReader is optionally implemented by gates that expose their
// remaining per-channel credit (flowcontrol.Gate does). SendBatch
// needs it to predict how many packets of a run the gate will admit
// without calling Admit for packets it has not yet committed; a gate
// without it limits runs to one packet.
type creditReader interface {
	Remaining(c int) int64
}

// costModel is optionally implemented by schedulers that expose what a
// packet charges against a deficit counter (sched.SRR does, covering
// the SRR/RR/GRR family). SendBatch uses it to predict how long the
// selected channel's service lasts without mutating the automaton;
// without it runs degrade to single packets.
type costModel interface {
	CostOf(size int) int64
}

// bulkAccounter is optionally implemented by schedulers that can charge
// a whole predicted run in one step (sched.SRR does). Valid only for a
// fully transmitted run whose interior packets provably could not end
// the service — exactly what run prediction guarantees — so the bulk
// charge lands in the same state per-packet Account calls would.
type bulkAccounter interface {
	AccountCost(cost int64)
}

// ErrGated is returned by Send when flow control blocks the selected
// channel. The caller retries after credits arrive; the scheduler state
// is untouched, so the retry goes to the same channel (anything else
// would break the receiver's simulation).
var ErrGated = errors.New("core: selected channel out of credits")

// Striper is the sender engine: it accepts a single FIFO stream of
// packets and pushes each to the channel chosen by the causal automaton,
// cutting periodic markers. It is a pure state machine — not safe for
// concurrent use; wrap it in one goroutine (as package stripe does).
type Striper struct {
	s             sched.Scheduler  // send-path automaton (rb or cs)
	rb            sched.RoundBased // non-nil for round-based scheduling
	cs            sched.Causal     // non-nil for round-less causal scheduling
	csInit        sched.State      // cs start state, for resets
	mem           sched.Membership // non-nil when the scheduler supports dynamic membership
	out           []channel.Sender
	batchOut      []channel.BatchSender // batch-capable views of out (nil where unsupported)
	coster        costModel             // scheduler cost model for run prediction (nil disables)
	bulkAcct      bulkAccounter         // scheduler bulk accounting for committed runs (nil disables)
	creditRem     creditReader          // gate credit view for run prediction (nil disables)
	one           [1]*packet.Packet     // Send's batch of one, alias-free between calls
	policy        MarkerPolicy
	addSeq        bool
	gate          Gate
	markerCredits func(c int) uint64
	obs           *obs.Collector
	nextMark      uint64 // round at/after which the next marker batch is due
	nextSeq       uint64
	nextID        uint64
	clock         int64
	epoch         uint64
	now           func() int64
	stampTick     uint64 // marker batches cut; every 4th carries a TxNs stamp
	telemetryChan int    // next channel SendTelemetry rotates onto

	// Dynamic membership (see membership.go). The channel universe is
	// fixed at construction — slots are enabled and disabled, never
	// renumbered, preserving condition C2's identical numbering on both
	// ends across arbitrary join/leave histories.
	active       []bool
	activeN      int
	memberSeq    uint64
	lastAnnounce packet.MemberBlock
	announceLeft int      // marker batches that still piggyback the announcement
	errStreak    []int64  // consecutive transport errors per channel
	pendingJoin  []uint64 // announced join round per slot awaiting its round boundary (0 = none)
	pendingJoins int      // count of non-zero pendingJoin entries

	// Counters.
	sentData    int64
	sentBytes   int64
	sentMarkers int64
	sentOn      []int64 // data bytes per channel
	sentPktsOn  []int64 // data packets per channel

	// Observability batching: the hot path only touches these plain
	// fields; SyncObs publishes them to the collector's atomics at
	// marker cadence (or every obsFlushEvery packets as a backstop).
	obsMaxLen int
	obsLag    int
}

// obsFlushEvery bounds how many packets the collector's counters may
// lag behind the striper when markers are infrequent or disabled.
const obsFlushEvery = 64

// NewStriper validates the configuration and returns a sender engine.
func NewStriper(cfg StriperConfig) (*Striper, error) {
	var s sched.Scheduler
	switch {
	case cfg.Sched != nil:
		s = cfg.Sched
	case cfg.CausalSched != nil:
		if cfg.Markers.Every != 0 {
			return nil, errors.New("core: markers require a round-based scheduler")
		}
		s = cfg.CausalSched
	default:
		return nil, errors.New("core: StriperConfig.Sched is required")
	}
	if len(cfg.Channels) != s.N() {
		return nil, fmt.Errorf("core: %d channels but scheduler expects %d", len(cfg.Channels), s.N())
	}
	if cfg.Sched != nil && (cfg.Markers.Position < 0 || cfg.Markers.Position >= cfg.Sched.N()) {
		if cfg.Markers.Every != 0 {
			return nil, fmt.Errorf("core: marker position %d out of range [0,%d)", cfg.Markers.Position, cfg.Sched.N())
		}
	}
	if cfg.Obs != nil && cfg.Obs.N() != len(cfg.Channels) {
		return nil, fmt.Errorf("core: collector sized for %d channels, want %d", cfg.Obs.N(), len(cfg.Channels))
	}
	st := &Striper{
		s:             s,
		rb:            cfg.Sched,
		out:           append([]channel.Sender(nil), cfg.Channels...),
		policy:        cfg.Markers,
		addSeq:        cfg.AddSeq,
		gate:          cfg.Gate,
		markerCredits: cfg.MarkerCredits,
		obs:           cfg.Obs,
		now:           cfg.Now,
	}
	if st.now == nil {
		st.now = nowNs
	}
	if cfg.Sched == nil {
		st.cs = cfg.CausalSched
		st.csInit = st.cs.Snapshot().Clone()
	}
	st.sentOn = make([]int64, len(st.out))
	st.sentPktsOn = make([]int64, len(st.out))
	st.batchOut = make([]channel.BatchSender, len(st.out))
	for c, ch := range st.out {
		st.batchOut[c], _ = ch.(channel.BatchSender)
	}
	st.coster, _ = s.(costModel)
	st.bulkAcct, _ = s.(bulkAccounter)
	if cfg.Gate != nil {
		st.creditRem, _ = cfg.Gate.(creditReader)
	}
	st.mem, _ = s.(sched.Membership)
	st.active = make([]bool, len(st.out))
	for c := range st.active {
		st.active[c] = true
	}
	st.activeN = len(st.out)
	st.errStreak = make([]int64, len(st.out))
	st.pendingJoin = make([]uint64, len(st.out))
	if st.obs != nil && st.rb != nil {
		for c := range st.out {
			st.obs.SetQuantum(c, st.rb.QuantumOf(c))
		}
	}
	if st.policy.Every != 0 {
		st.nextMark = st.policy.Every
	}
	return st, nil
}

// N returns the number of channels.
func (st *Striper) N() int { return len(st.out) }

// Round returns the sender's global round number G (zero for
// round-less causal schedulers).
func (st *Striper) Round() uint64 {
	if st.rb == nil {
		return 0
	}
	return st.rb.Round()
}

// SentData returns the number of data packets transmitted.
func (st *Striper) SentData() int64 { return st.sentData }

// SentBytes returns the number of data payload bytes transmitted.
func (st *Striper) SentBytes() int64 { return st.sentBytes }

// SentMarkers returns the number of marker packets transmitted.
func (st *Striper) SentMarkers() int64 { return st.sentMarkers }

// SentOn returns the data packets and payload bytes sent on channel c,
// for load-sharing observability.
func (st *Striper) SentOn(c int) (packets, bytes int64) {
	return st.sentPktsOn[c], st.sentOn[c]
}

// maybeEmitMarkers cuts a marker batch if one is due and the automaton
// sits at a service boundary at (or past) the configured position.
// Markers bypass the scheduler: they are control traffic, not charged to
// any deficit counter, and the receiver likewise does not charge them.
func (st *Striper) maybeEmitMarkers() {
	if st.rb == nil || st.policy.Every == 0 || st.rb.MidService() {
		return
	}
	r := st.rb.Round()
	if r < st.nextMark {
		return
	}
	// At the due round, wait for the pointer to rest on the configured
	// position; if the round was overshot (the pointer skipped past the
	// position, which can happen when a channel's overdraft forfeits its
	// service), cut the batch at the first boundary available. A disabled
	// (or not-yet-joined) position channel is never rested on, so
	// membership changes fall back to first-boundary cadence rather than
	// stalling the marker clock.
	if r == st.nextMark && st.rb.Current() != st.policy.Position &&
		st.active[st.policy.Position] && st.pendingJoin[st.policy.Position] == 0 {
		return
	}
	st.emitBatch()
	st.nextMark = r + st.policy.Every
}

// EmitMarkers cuts a marker batch immediately, regardless of the
// round-based policy. Kernel implementations send markers from a timer
// so that a stalled sender (for example a window-limited TCP source)
// still resynchronizes the receiver; drive this method from whatever
// clock the embedding has. It is safe mid-service.
func (st *Striper) EmitMarkers() {
	if st.rb == nil {
		return
	}
	st.emitBatch()
	st.SyncObs()
	if st.policy.Every != 0 {
		st.nextMark = st.rb.Round() + st.policy.Every
	}
}

// emitBatch sends one marker per channel carrying the implicit number
// (round, pre-quantum deficit) of the next packet on that channel. If
// the current channel is mid-service its quantum has already been
// granted, so the pre-quantum convention subtracts it back; the
// receiver's marker handling applies the mirror-image adjustment.
//
// Each marker is drawn from the packet pool, encoded into its recycled
// payload, and released once the channel's Send returns (see
// sendControl), so a steady marker cadence allocates nothing.
func (st *Striper) emitBatch() {
	// One delay sample per few marker batches is all the peer's 8-deep
	// min-filter needs, and a clock read per marker is real money at
	// tight marker cadences — so stamp every fourth batch, once for the
	// whole batch (markers cut at the same instant make cross-channel rx
	// differences directly comparable), and leave the rest TxNs=0, which
	// also skips the receiver's clock read on arrival.
	var txNs int64
	if st.stampTick++; st.stampTick&3 == 0 {
		txNs = st.now()
	}
	for c := range st.out {
		if !st.active[c] {
			continue
		}
		mb := packet.MarkerBlock{Channel: uint32(c), Sent: uint64(st.sentOn[c])}
		if j := st.pendingJoin[c]; j != 0 {
			// A joined slot awaiting its round boundary has an exact
			// implicit position already: first service at the join round
			// with a fresh deficit. The scheduler knows nothing useful
			// about the slot yet, but skipping it instead would stop the
			// channel's piggybacked credits — and on an idle direction
			// (rounds never advance, the join never fires) that would
			// starve the peer's reverse-path flow control for good.
			mb.Round = j
		} else {
			d := st.rb.Deficit(c)
			if st.rb.MidService() && st.rb.Current() == c {
				d -= st.rb.QuantumOf(c)
			}
			mb.Round = st.rb.NextServiceRound(c)
			mb.Deficit = d
		}
		if st.markerCredits != nil {
			mb.Credits = st.markerCredits(c)
		}
		mb.TxNs = txNs
		if err := st.sendControl(c, packet.NewMarker(mb)); err == nil {
			st.sentMarkers++
			st.errStreak[c] = 0
			st.obs.OnMarkerEmitted(c)
		} else {
			st.errStreak[c]++
		}
	}
	// Membership announcements ride the marker cadence for a few batches
	// after each transition, so a single lost announcement packet cannot
	// leave the two ends with divergent live sets.
	if st.announceLeft > 0 {
		st.announceLeft--
		st.broadcastMember()
	}
}

// sendControl hands the control packet p, which the striper owns, to
// channel c and releases it once Send returns — on success, error or a
// silent drop alike. Send only borrows control packets; a channel that
// holds one past the call keeps its own pooled copy (channel.Sender).
// Releasing after the outermost Send is what makes this safe through
// any wrapper: one that inspects p after its inner Send still finds it
// intact.
func (st *Striper) sendControl(c int, p *packet.Packet) error {
	err := st.out[c].Send(p)
	p.Release()
	return err
}

// SyncObs publishes the striper's counters, the round gauge, and the
// per-channel surplus gauges to the attached collector. It runs every
// obsFlushEvery packets, from the timer-driven EmitMarkers path, and
// from Stats/Snapshot, so scrapes lag a loaded sender by at most
// obsFlushEvery packets and an idle one by at most a marker interval.
// Flushing the round and byte counters together also keeps the derived
// fairness gauge consistent for the flushed prefix.
//
//stripe:allowescape publishes batched counters and runs invariant checks (which lock) at most once per obsFlushEvery packets or marker interval
func (st *Striper) SyncObs() {
	if st.obs == nil {
		return
	}
	st.obsLag = 0
	for c := range st.out {
		st.obs.SyncStriped(c, st.sentPktsOn[c], st.sentOn[c])
		if st.rb != nil {
			st.obs.SetSurplus(c, st.rb.Deficit(c))
		}
	}
	st.obs.SetMaxPacket(int64(st.obsMaxLen))
	if st.rb != nil {
		st.obs.SetRound(st.rb.Round())
	}
	st.obs.RunChecks()
}

// Send stripes one data packet: a batch of one, so flow-control
// gating, transport-failure accounting, and marker cadence share
// SendBatch's single code path. The packet is transmitted verbatim
// unless AddSeq was configured. ErrGated means flow control vetoed the
// transmission; retry the same packet later.
//
//stripe:hotpath
func (st *Striper) Send(p *packet.Packet) error {
	st.one[0] = p
	_, err := st.SendBatch(st.one[:1])
	st.one[0] = nil
	return err
}

// SendBatch stripes pkts in FIFO order, amortizing scheduler
// selection, credit-gate checks, and channel writes across the batch:
// maximal runs of consecutive packets bound for the same channel are
// predicted against the scheduler's cost model and handed to the
// channel in one BatchSender call (one buffered flush per run on TCP
// channels). It returns the number of packets transmitted; n <
// len(pkts) only alongside a non-nil error — ErrGated when flow
// control vetoed pkts[n] (retry pkts[n:] once credits arrive), or a
// *ChannelSendError when a transport failed. Exactly as with Send, a
// packet the transport did not accept is neither accounted to the
// scheduler nor charged to the gate, so the retry targets the same
// channel until the health monitor evicts it.
//
//stripe:hotpath
func (st *Striper) SendBatch(pkts []*packet.Packet) (int, error) {
	done := 0
	for done < len(pkts) {
		n, err := st.sendRun(pkts[done:])
		done += n
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// sendRun transmits a maximal single-channel prefix of pkts: the
// packets the scheduler provably assigns to the channel it selects for
// pkts[0] before that channel's service ends, bounded by the remaining
// flow-control credit. Packets are stamped before the flush (the wire
// format carries Seq), but all commitment — scheduler accounting, gate
// consumption, counters, traces — happens per packet only after the
// transport accepts it, so a transport failure leaves the automaton
// exactly as a failed Send always has: un-advanced, the failed packets
// re-stamped by their retry.
//
//stripe:hotpath
func (st *Striper) sendRun(pkts []*packet.Packet) (int, error) {
	if st.activeN == 0 {
		return 0, ErrNoActiveChannels
	}
	if st.pendingJoins != 0 {
		st.applyPendingJoins()
	}
	st.maybeEmitMarkers()
	c := st.s.Select()
	if st.gate != nil && !st.gate.Admit(c, pkts[0].Len()) {
		st.obs.OnCreditExhausted(c, pkts[0].Len())
		// The packet has no identity yet (ID/Seq are stamped on the
		// successful send), so trace under the identity it will get.
		if st.addSeq {
			st.obs.TraceGated(st.nextSeq)
		} else {
			st.obs.TraceGated(st.nextID)
		}
		return 0, ErrGated
	}

	// Predict the run length m. pkts[1:m] stay on c exactly while the
	// deficit the scheduler granted survives each packet's cost (the
	// mirror of Account's advance rule: service ends when the counter
	// reaches zero) and while the gate's remaining credit admits each
	// packet (the mirror of Admit; gate state cannot change mid-run —
	// grants arrive under the same lock that serializes sends). A gate
	// that hides its remaining credit, or a scheduler without a cost
	// model, caps runs at one packet rather than risking a divergent
	// prediction.
	m := 1
	runCost := int64(0) // summed scheduler cost of pkts[:m] (0 = unknown)
	if st.coster != nil {
		runCost = st.coster.CostOf(pkts[0].Len())
	}
	if st.coster != nil && st.rb != nil && st.batchOut[c] != nil &&
		(st.gate == nil || st.creditRem != nil) {
		deficit := st.rb.Deficit(c) - runCost
		credit := int64(-1)
		if st.gate != nil {
			credit = st.creditRem.Remaining(c) - int64(pkts[0].Len())
		}
		for m < len(pkts) && deficit > 0 {
			sz := pkts[m].Len()
			if credit >= 0 && int64(sz) > credit {
				break
			}
			cost := st.coster.CostOf(sz)
			deficit -= cost
			runCost += cost
			if credit >= 0 {
				credit -= int64(sz)
			}
			m++
		}
	}

	// Stamp before the flush: Seq rides the wire, so it must be final
	// when the channel encodes the frame. The counters advance only at
	// commit, so a failed tail is freshly re-stamped by its retry.
	for i := 0; i < m; i++ {
		p := pkts[i]
		p.ID = st.nextID + uint64(i)
		p.Ingress = st.clock + int64(i)
		if st.addSeq {
			p.Seq = st.nextSeq + uint64(i)
			p.HasSeq = true
		}
	}

	var sent int
	var err error
	if bs := st.batchOut[c]; bs != nil {
		sent, err = bs.SendBatch(pkts[:m])
	} else if err = st.out[c].Send(pkts[0]); err == nil {
		sent = 1
	}

	// Commit exactly the accepted prefix. Everything additive — counters,
	// gate consumption, scheduler cost — is charged in bulk; only traces
	// are inherently per packet. A fully accepted predicted run takes
	// the scheduler's one-step AccountCost (state-identical, see
	// bulkAccounter); a partial prefix falls back to per-packet Account
	// since the prediction's no-interior-advance guarantee covered the
	// whole run, not the prefix.
	if sent > 0 {
		var runBytes int64
		if st.obs != nil {
			for i := 0; i < sent; i++ {
				p := pkts[i]
				runBytes += int64(p.Len())
				// No atomics here: accounting stays in the striper's plain
				// fields and is published in SyncObs, so an active
				// collector costs two plain-field updates per packet.
				if p.Len() > st.obsMaxLen {
					st.obsMaxLen = p.Len()
				}
				st.obs.TraceSend(traceKey(p), c)
			}
			if st.obsLag += sent; st.obsLag >= obsFlushEvery {
				st.SyncObs()
			}
		} else {
			for i := 0; i < sent; i++ {
				runBytes += int64(pkts[i].Len())
			}
		}
		st.errStreak[c] = 0
		st.nextID += uint64(sent)
		st.clock += int64(sent)
		if st.addSeq {
			st.nextSeq += uint64(sent)
		}
		if st.gate != nil {
			st.gate.Consume(c, int(runBytes))
		}
		st.sentData += int64(sent)
		st.sentBytes += runBytes
		st.sentOn[c] += runBytes
		st.sentPktsOn[c] += int64(sent)
		if sent == m && st.bulkAcct != nil && st.coster != nil {
			st.bulkAcct.AccountCost(runCost)
		} else {
			for i := 0; i < sent; i++ {
				st.s.Account(pkts[i].Len())
			}
		}
	}
	if err != nil {
		return sent, st.sendFailed(c, err)
	}
	st.maybeEmitMarkers()
	return sent, nil
}

// Reset broadcasts a reset packet on every channel and reinitialises the
// striping automaton to its start state. Both ends return to the common
// start state s0, which is how the paper handles node crashes and makes
// the marker scheme self-stabilizing in conjunction with a snapshot.
// The reset carries the new epoch number; the receiver discards traffic
// from older epochs still in flight.
func (st *Striper) Reset() error {
	st.epoch++
	var firstErr error
	for c := range st.out {
		if !st.active[c] {
			continue
		}
		p := packet.Control(packet.Reset)
		p.Payload = binary.BigEndian.AppendUint64(p.Payload, st.epoch)
		if err := st.sendControl(c, p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if st.pendingJoins != 0 {
		// A reset returns both automatons to the common start state, which
		// subsumes any join still waiting on its round boundary: the slot
		// simply starts the new epoch enabled.
		st.flushPendingJoins()
	}
	if st.rb != nil {
		st.rb.Reset()
	} else {
		st.cs.Restore(st.csInit.Clone())
	}
	st.nextMark = st.policy.Every
	st.SyncObs()
	st.obs.OnReset(st.epoch)
	return firstErr
}

// Epoch returns the current reset epoch.
func (st *Striper) Epoch() uint64 { return st.epoch }

// ChannelLoad is the data load placed on one channel.
type ChannelLoad struct {
	Packets int64
	Bytes   int64
}

// StriperStats is a copy of the sender counters, the transmit-side
// mirror of ResequencerStats.
type StriperStats struct {
	DataPackets int64 // data packets transmitted
	DataBytes   int64 // data payload bytes transmitted
	Markers     int64 // marker packets transmitted
	Round       uint64
	Epoch       uint64
	PerChannel  []ChannelLoad // data load striped onto each channel
}

// Stats returns a copy of the sender counters. It also flushes the
// batched observability counters, so a Stats call brings an attached
// collector fully up to date.
func (st *Striper) Stats() StriperStats {
	st.SyncObs()
	s := StriperStats{
		DataPackets: st.sentData,
		DataBytes:   st.sentBytes,
		Markers:     st.sentMarkers,
		Round:       st.Round(),
		Epoch:       st.epoch,
		PerChannel:  make([]ChannelLoad, len(st.out)),
	}
	for c := range st.out {
		s.PerChannel[c] = ChannelLoad{Packets: st.sentPktsOn[c], Bytes: st.sentOn[c]}
	}
	return s
}
