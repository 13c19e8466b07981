package stripe

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"stripe/internal/core"
	"stripe/internal/flowcontrol"
	"stripe/internal/obs"
	"stripe/internal/packet"
)

// SessionConfig configures one end of a bidirectional striped
// connection.
type SessionConfig struct {
	// Config is the striping configuration, identical on both ends.
	Config
	// CreditWindow, when positive, enables credit-based flow control
	// with the given per-channel window in bytes: this end grants the
	// peer credits against its own receive buffers, piggybacked on this
	// end's periodic markers, exactly as Section 6.3 suggests. Sends
	// block while the peer's grant is exhausted.
	CreditWindow int64
	// MarkerInterval, when positive, cuts marker batches from a timer in
	// addition to the round-based policy, so markers (and piggybacked
	// credits) keep flowing when the data stream idles. Default 50ms;
	// negative disables the timer (which also disables the health
	// monitor's periodic checks).
	MarkerInterval time.Duration
	// Health tunes the channel health monitor; the zero value enables
	// send-error eviction with defaults. See HealthConfig.
	Health HealthConfig
}

// HealthConfig tunes the session's channel health monitor, which evicts
// channels that are observably dead and reinstates them on recovery.
// Eviction is a forced membership removal: the scheduler stops
// selecting the channel, its outstanding credit is returned, the
// receive side drains what arrived and declares the missing tail lost,
// and the survivors carry the stream on. The zero value enables
// send-error eviction with the defaults below.
type HealthConfig struct {
	// Disable turns the health monitor off entirely.
	Disable bool
	// EvictAfter is the consecutive transport-error streak on a channel
	// (data, marker, or announcement sends) that triggers eviction.
	// Default 8; negative disables error-based eviction.
	EvictAfter int64
	// MarkerSilence, when positive, evicts a channel that has been
	// marker-silent for this long after having delivered at least one
	// marker. Markers flow at a steady cadence on healthy channels, so
	// prolonged silence means the receive direction is dead even when
	// sends still succeed. Zero disables silence-based eviction.
	MarkerSilence time.Duration
	// ReinstateAfter is the consecutive successful probes (one per
	// marker-timer tick) after which an evicted channel is re-admitted.
	// Default 3; negative disables automatic reinstatement.
	ReinstateAfter int
	// ScoreEvictBelow, when positive, adds evidence-based eviction from
	// the windowed health score: an active channel whose HealthScore
	// stays below this threshold (0-100) for ScoreStreak consecutive
	// rollup windows is evicted. It catches channels that are degrading
	// — heavy loss, resync storms, runaway latency — long before the
	// error-streak rule, which only sees hard transport errors, would
	// fire. Requires a Windows rollup attached to the session's
	// Collector (stripe.NewWindows); without one this setting is inert.
	// Zero disables score-based eviction.
	ScoreEvictBelow int
	// ScoreStreak is the number of consecutive below-threshold rollup
	// windows required before a score eviction. Default 2; values below
	// 1 select the default. Shared by the peer-score rule, where it
	// counts consecutive below-threshold peer reports instead.
	ScoreStreak int
	// PeerScoreEvictBelow, when positive, adds eviction on the peer's
	// evidence: an active channel whose peer-reported score (loss as the
	// *receiver* measured it, plus resync rate) stays below this
	// threshold (0-100) for ScoreStreak consecutive telemetry reports is
	// evicted. This is the rule that catches silent loss — a transport
	// that accepts every send but delivers nothing keeps the local error
	// streak at zero forever; only the peer can report the bytes never
	// arrived. Zero disables peer-score eviction.
	PeerScoreEvictBelow int
}

// Session is one end of a duplex striped connection: a Sender for this
// end's data and a Receiver for the peer's, joined by a coupler that
// carries credits and membership from the receive half to the transmit
// half. Both directions must use the same number of channels. Safe for
// concurrent use.
//
// The halves lock independently. The receive path (Arrive, the Recv
// methods and the resequencer callbacks) never waits on the transmit
// lock: a transmit lock held across a blocked channel write would
// otherwise stop this end's read pumps, and with them the peer's
// sender. The transmit side may read receive state, in this order:
//
//stripe:locks Sender.mu<Receiver.mu<coupler.mu
type Session struct {
	// The peer's direction. Its methods (Arrive, Attach, Recv, TryRecv,
	// RecvBatch, Stats, Drain, Buffered) are the session's receive
	// surface; Close and Snapshot are the Session's own.
	*receiveHalf
	tx   *Sender // this end's direction; tx.mu is the transmit lock
	cpl  *coupler
	peer *obs.PeerView
	mgr  *flowcontrol.Manager // credits granted to the peer; guarded by Receiver.mu

	// Transmit-side state, guarded by tx.mu.
	gate           *flowcontrol.Gate
	n              int
	window         int64
	quanta         []int64
	autoMaxBuf     bool // MaxBuffered was derived; recompute it on membership changes
	health         HealthConfig
	evictAfter     int64   // error streak that evicts (0 = off)
	reinstateAfter int64   // probe streak that reinstates (0 = off)
	evicted        []bool  // health-evicted, candidates for automatic reinstatement
	probeOK        []int64 // consecutive successful probes per evicted channel
	lowScore       []int   // consecutive below-threshold health-score windows
	lastFoldAt     int64   // AtNs of the newest rollup the score check consumed
	peerLow        []int   // consecutive below-threshold peer reports
	lastPeerSeq    uint64  // Seq of the newest peer report the check consumed
	// Drain bound state (boundDrainsLocked), guarded by Receiver.mu.
	drainSeen []int64 // bytes arrived on a draining channel at the last tick
	drainIdle []int   // consecutive ticks a drain saw no arrivals
	// one is Send's batch of one, so the single-packet path rides
	// sendBatchLocked without allocating a slice per call.
	one [1]*packet.Packet

	stop     chan struct{}
	once     sync.Once
	loopDone chan struct{} // closed when transmitLoop exits
}

// receiveHalf is Receiver under an unexported name, so Session embeds
// it without exporting a field: Session.Close is the one shutdown path.
type receiveHalf = Receiver

// NewSession builds one end over this end's transmit channels. Feed it
// the packets received from the peer (on all kinds) with Attach or
// Arrive.
func NewSession(channels []ChannelSender, cfg SessionConfig) (*Session, error) {
	n := len(channels)
	if len(cfg.Quanta) != n {
		return nil, errors.New("stripe: Quanta must have one entry per channel")
	}
	s := &Session{
		cpl:            newCoupler(n),
		peer:           obs.NewPeerView(n),
		n:              n,
		window:         cfg.CreditWindow,
		quanta:         append([]int64(nil), cfg.Quanta...),
		autoMaxBuf:     cfg.MaxBuffered == 0 && cfg.CreditWindow > 0,
		health:         cfg.Health,
		evictAfter:     healthCount(cfg.Health.EvictAfter, 8, cfg.Health.Disable),
		reinstateAfter: healthCount(int64(cfg.Health.ReinstateAfter), 3, cfg.Health.Disable),
		evicted:        make([]bool, n),
		probeOK:        make([]int64, n),
		lowScore:       make([]int, n),
		peerLow:        make([]int, n),
		drainSeen:      make([]int64, n),
		drainIdle:      make([]int, n),
		stop:           make(chan struct{}),
		loopDone:       make(chan struct{}),
	}

	maxBuf := cfg.MaxBuffered
	switch {
	case maxBuf < 0: // explicitly unbounded
		maxBuf = 0
	case s.autoMaxBuf:
		// Flow control bounds legitimate occupancy, so default to the
		// cap it implies instead of unbounded memory.
		maxBuf = DefaultMaxBuffered(n, cfg.CreditWindow, cfg.Quanta)
	}
	rx, err := newReceiver(cfg.Config, core.ResequencerConfig{
		MaxBuffered: maxBuf,
		// Both run on the receive path under Receiver.mu. Membership
		// mirroring is the transmit side's work, so it is only posted.
		OnMembership: s.cpl.post,
		OnTelemetry: func(t packet.TelemetryBlock) {
			s.peer.Apply(t, time.Now().UnixNano())
		},
	})
	if err != nil {
		return nil, err
	}
	s.receiveHalf = rx
	rx.sess = s

	var scfg core.StriperConfig
	if cfg.CreditWindow > 0 {
		gate, err := flowcontrol.NewGate(n, cfg.CreditWindow)
		if err != nil {
			return nil, err
		}
		mgr, err := flowcontrol.NewManager(n, cfg.CreditWindow, rx.rs.DeliveredBytesOn)
		if err != nil {
			return nil, err
		}
		gate.SetObs(cfg.Collector)
		mgr.SetObs(cfg.Collector)
		s.gate, s.mgr = gate, mgr
		scfg.Gate = gate
		// Invoked from the transmit path with tx.mu held; the grant is
		// receive state.
		scfg.MarkerCredits = func(c int) uint64 {
			rx.mu.Lock()
			defer rx.mu.Unlock()
			return uint64(mgr.GrantFor(c))
		}
		// Feed the invariant checker the gate's live credit ledgers. The
		// checker runs from the striper's flush, which holds tx.mu, the
		// lock that guards the gate, so the reads are consistent.
		window := cfg.CreditWindow
		cfg.Collector.SetCreditSource(func() []obs.CreditAccount {
			accts := make([]obs.CreditAccount, n)
			for c := 0; c < n; c++ {
				sent := gate.Sent(c)
				accts[c] = obs.CreditAccount{
					Channel:  c,
					Granted:  sent + gate.Remaining(c),
					Consumed: sent,
					Window:   window,
					Retired:  gate.Retired(c),
				}
			}
			return accts
		})
	}
	// A lifecycle tracer keys packets by the sequence identity they
	// carry; without AddSeq that identity is in-process only and never
	// survives an encoded channel, so every remote lifecycle would be
	// torn. Configuring a tracer therefore implies explicit sequence
	// numbers.
	if cfg.Collector.Tracer() != nil {
		cfg.AddSeq = true
	}
	if s.tx, err = newSender(channels, cfg.Config, scfg); err != nil {
		return nil, err
	}
	// Expose the peer view on the collector, so Snapshot, the health
	// endpoint, and the Prometheus export all carry the peer section.
	cfg.Collector.SetPeerView(s.peer)

	go s.transmitLoop(cfg.MarkerInterval)
	return s, nil
}

// defaultMarkerInterval is SessionConfig.MarkerInterval's default, and
// the tick that bounds drains when the marker timer is disabled.
const defaultMarkerInterval = 50 * time.Millisecond

// transmitLoop is the transmit half's own goroutine: it applies the
// peer membership events the receive half posts, and on every marker
// tick cuts markers, reports telemetry and runs the health checks. With
// the marker timer disabled (interval < 0) it still ticks at the
// default interval to bound drains, so a link that died mid-drain is
// retired all the same.
func (s *Session) transmitLoop(interval time.Duration) {
	defer close(s.loopDone)
	markers := interval >= 0
	if interval <= 0 {
		interval = defaultMarkerInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.cpl.kick:
			s.tx.mu.Lock()
			s.syncLocked()
			s.tx.mu.Unlock()
		case <-t.C:
			if markers {
				s.tick()
			} else {
				s.receiveHalf.mu.Lock()
				s.boundDrainsLocked()
				s.receiveHalf.mu.Unlock()
			}
		}
	}
}

// tick runs one marker-timer tick under the transmit lock.
func (s *Session) tick() {
	s.tx.mu.Lock()
	defer s.tx.mu.Unlock()
	s.syncLocked()
	s.tx.st.EmitMarkers()
	// Report this end's receive-side view back to the peer on the same
	// cadence the markers flow at. A send error feeds the chosen
	// channel's error streak, which the health tick below already
	// consumes; beyond that a lost report is harmless — telemetry is
	// cumulative and the next tick supersedes it.
	s.receiveHalf.mu.Lock()
	t := s.rs.TelemetryBlock()
	s.boundDrainsLocked()
	s.receiveHalf.mu.Unlock()
	_ = s.tx.st.SendTelemetry(t)
	s.healthTick()
}

// ErrSessionClosed is returned by Send after Close.
var ErrSessionClosed = errors.New("stripe: session closed")

// Send stripes one packet toward the peer, blocking while flow control
// holds the selected channel (credits arrive on the peer's markers).
// Transport failures on one channel are retried: the failing channel's
// error streak grows until the health monitor's threshold evicts it,
// after which the packet goes out on a survivor. Send only returns a
// transport error once no eviction can absorb it (health monitoring
// disabled, or down to the last channel).
func (s *Session) Send(p *Packet) error {
	s.tx.mu.Lock()
	defer s.tx.mu.Unlock()
	s.one[0] = p
	_, err := s.sendBatchLocked(s.one[:1])
	s.one[0] = nil
	return err
}

// SendBatch stripes pkts in FIFO order toward the peer, taking the
// transmit lock once for the whole batch and flushing maximal
// same-channel runs in single channel writes. It blocks exactly as Send
// does — while flow control holds the selected channel, and across
// transport-failure retries the health monitor can absorb — and returns
// the number of packets sent. n < len(pkts) only alongside a non-nil
// error (session closed, or a transport error no eviction can absorb);
// pkts[n:] were not sent.
//
// Arrivals (and the credits they carry) are processed on other
// goroutines without the transmit lock, so a batch blocked on credit —
// or on a full transport — never stops this end from receiving; the
// lock is released while waiting for credit.
func (s *Session) SendBatch(pkts []*Packet) (int, error) {
	s.tx.mu.Lock()
	defer s.tx.mu.Unlock()
	return s.sendBatchLocked(pkts)
}

// sendBatchLocked is the session transmit loop: gated waits and
// eviction retries, applied to a batch. Only the time parked waiting
// for credit is charged to the credit-stall clock. Caller holds tx.mu.
func (s *Session) sendBatchLocked(pkts []*packet.Packet) (int, error) {
	var stalled time.Duration
	done := 0
	for done < len(pkts) {
		// Read before the stop check and syncLocked, so a later Close or
		// grant ends the wait below.
		seen := s.cpl.seq.Load()
		select {
		case <-s.stop:
			s.col.AddCreditStall(stalled)
			return done, ErrSessionClosed
		default:
		}
		s.syncLocked()
		n, err := s.tx.st.SendBatch(pkts[done:])
		done += n
		if err == core.ErrGated {
			start := time.Now()
			s.cpl.wait(&s.tx.mu, seen)
			stalled += time.Since(start)
			continue
		}
		var cse *core.ChannelSendError
		if errors.As(err, &cse) && s.evictAfter > 0 && s.tx.st.ActiveN() > 1 {
			// The failed send was not accounted to the scheduler, so the
			// retry targets the same channel until its streak trips the
			// eviction threshold; after eviction it goes to a survivor.
			if s.tx.st.ErrStreak(cse.Channel) >= s.evictAfter {
				s.evictLocked(cse.Channel, s.tx.st.ErrStreak(cse.Channel))
			}
			continue
		}
		if err != nil {
			s.col.AddCreditStall(stalled)
			return done, err
		}
	}
	s.col.AddCreditStall(stalled)
	return done, nil
}

// SendBytes stripes a payload.
func (s *Session) SendBytes(payload []byte) error { return s.Send(Data(payload)) }

// arrive is the Receiver's arrive hook, run under Receiver.mu for every
// packet before the resequencer sees it. Piggybacked credit state is
// processed here rather than when the marker is consumed in scan
// order: grants and reconciled positions are monotone, so reading them
// early is safe, and it keeps the transmit side live even when the
// application is slow to Recv.
func (s *Session) arrive(c int, p *Packet) {
	if p.Kind != KindMarker {
		return
	}
	m, err := packet.MarkerOf(p)
	if err != nil || int(m.Channel) != c || c < 0 || c >= s.n {
		return
	}
	s.cpl.markerAt[c].Store(time.Now().UnixNano())
	// Reconcile before the resequencer sees the marker: right now the
	// per-channel FIFO guarantees every data byte the peer sent before
	// cutting this marker has either arrived or is lost, so Sent −
	// arrived is the channel's exact cumulative loss and the peer's
	// window can be re-granted past it.
	if s.mgr != nil {
		s.mgr.Reconcile(c, int64(m.Sent), s.rs.ArrivedBytesOn(c), s.rs.BufferedBytesOn(c))
	}
	if s.gate != nil && m.Credits > 0 {
		if g := int64(m.Credits); g < 0 {
			s.col.OnCreditRejected(c)
		} else {
			s.cpl.grant(c, g)
		}
	}
}

// syncLocked folds in what the receive half handed over since the last
// call: peer credit grants into the gate, and peer membership onto the
// transmit set, so either end removing (or re-adding) a channel
// retires (or restores) the full duplex link. The mirror terminates:
// re-applying an applied transition is a no-op and announces nothing.
// Caller holds tx.mu.
func (s *Session) syncLocked() {
	k := s.cpl
	if k.granted.Load() && k.granted.Swap(false) {
		for c := range k.grants {
			g := k.grants[c].Load()
			if g > 0 && s.gate.ApplyGrant(c, g) != nil {
				s.col.OnCreditRejected(c)
				// Drop it, so it cannot mask the valid grants after it.
				k.grants[c].CompareAndSwap(g, 0)
			}
		}
	}
	if k.mirrored.Load() && k.mirrored.Swap(false) {
		for c := range k.mirror {
			switch k.mirror[c].Swap(0) {
			case mirrorJoin:
				if s.tx.st.Member(c) == core.MemberRemoved {
					_ = s.admitTxLocked(c, nil)
				}
			case mirrorLeave:
				if s.tx.st.Member(c) == core.MemberActive {
					_ = s.removeTxLocked(c)
				}
			}
		}
	}
}

// EmitMarkers cuts a marker batch (with piggybacked credits) now.
func (s *Session) EmitMarkers() { s.tx.EmitMarkers() }

// Close unblocks Send and Recv, and stops the marker timer and the read
// pumps started by Attach, waiting for them to exit.
func (s *Session) Close() {
	s.once.Do(func() { close(s.stop) })
	s.cpl.notify() // parked senders wake and see stop
	s.receiveHalf.Close()
	<-s.loopDone
}

// SendStats returns this end's transmit counters, including the
// per-channel data load.
func (s *Session) SendStats() SenderStats { return s.tx.Stats() }

// Snapshot returns the attached Collector's metrics (the zero Snapshot
// when no Collector was configured). It briefly takes the transmit lock
// to flush the batched transmit counters first, so the snapshot is
// exact as of this call.
func (s *Session) Snapshot() Snapshot { return s.tx.Snapshot() }

// PeerView returns the session's peer telemetry view: the remote
// resequencer's reported loss, occupancy, and marker timestamp pairs,
// folded into per-channel scores and one-way delay estimates. The view
// is live (it updates as reports arrive) and safe for concurrent use;
// before the first report Latest returns nil.
func (s *Session) PeerView() *obs.PeerView { return s.peer }

// CreditRemaining reports the unused grant for channel c (0 when flow
// control is disabled).
func (s *Session) CreditRemaining(c int) int64 {
	s.tx.mu.Lock()
	defer s.tx.mu.Unlock()
	if s.gate == nil {
		return 0
	}
	s.syncLocked()
	return s.gate.Remaining(c)
}

// --- Dynamic membership -------------------------------------------------

// ActiveChannels returns the number of channels currently in this end's
// transmit live set.
func (s *Session) ActiveChannels() int {
	s.tx.mu.Lock()
	defer s.tx.mu.Unlock()
	s.syncLocked()
	return s.tx.st.ActiveN()
}

// ChannelState reports channel c's lifecycle state on this end's
// transmit side and receive side. The two can differ transiently while
// a membership change propagates (for example tx removed, rx still
// draining the peer's in-flight tail).
func (s *Session) ChannelState(c int) (tx, rx MemberState) {
	s.tx.mu.Lock()
	s.syncLocked()
	tx = s.tx.st.Member(c)
	s.tx.mu.Unlock()
	s.receiveHalf.mu.Lock()
	defer s.receiveHalf.mu.Unlock()
	return tx, s.rs.MemberState(c)
}

// RemoveChannel gracefully retires channel c from this end's transmit
// set: a final marker batch fixes the channel's position, the departure
// is announced to the peer (which mirrors it onto its own transmit
// side), outstanding credit is returned, and the survivors carry the
// stream on with the fairness band re-formed over them. The receive
// side of c keeps draining the peer's in-flight tail in order and
// retires once the peer's mirrored removal completes. The last active
// channel cannot be removed.
func (s *Session) RemoveChannel(c int) error {
	s.tx.mu.Lock()
	defer s.tx.mu.Unlock()
	s.syncLocked()
	err := s.removeTxLocked(c)
	if err == nil && c >= 0 && c < s.n {
		// Manual removals are not reinstatement candidates.
		s.evicted[c] = false
	}
	return err
}

// AddChannel (re)admits channel c into this end's transmit set,
// optionally replacing its transport with tx (nil reuses the existing
// one). The join is announced to the peer, which re-admits its receive
// side at the announced join round and mirrors the join onto its own
// transmit side, restoring the full duplex link; FIFO delivery over the
// grown set resumes within one marker period.
func (s *Session) AddChannel(c int, tx ChannelSender) error {
	s.tx.mu.Lock()
	defer s.tx.mu.Unlock()
	s.syncLocked()
	return s.admitTxLocked(c, tx)
}

// removeTxLocked retires c from the transmit set and tears down its
// flow-control account. Caller holds tx.mu.
func (s *Session) removeTxLocked(c int) error {
	if err := s.tx.st.RemoveChannel(c); err != nil {
		return err
	}
	var returned int64
	if s.gate != nil {
		// Teardown returns the outstanding grant; the account is frozen at
		// granted == consumed so the conservation checker sees no leak.
		returned = s.gate.Retire(c)
	}
	s.col.OnMemberDrain(c, s.tx.st.Round(), returned)
	s.recomputeMaxBufLocked()
	// Senders parked on the removed channel's credit must re-Select.
	s.cpl.notify()
	return nil
}

// admitTxLocked (re)admits c into the transmit set with a fresh credit
// window. Caller holds tx.mu.
func (s *Session) admitTxLocked(c int, tx ChannelSender) error {
	wasActive := s.tx.st.Member(c) == core.MemberActive
	join, err := s.tx.st.AddChannel(c, tx)
	if err != nil {
		return err
	}
	if wasActive {
		return nil // transport swap only
	}
	if s.gate != nil {
		s.gate.Readmit(c)
	}
	s.evicted[c] = false
	s.probeOK[c] = 0
	s.cpl.markerAt[c].Store(0) // silence detection restarts at the first marker
	// Flush the batched byte counters first so the fairness baseline
	// rebases to an exact byte position.
	s.tx.st.SyncObs()
	s.col.RebaseFairness(c, join)
	s.col.OnMemberJoin(c, join)
	s.recomputeMaxBufLocked()
	s.cpl.notify()
	return nil
}

// evictLocked force-removes channel c after the health monitor (or the
// Send retry loop) observed it dead: transmit removal plus local
// receive-side retirement — a dead link will never complete the
// peer-mirrored drain, and the missing tail is declared lost so the
// stream resumes FIFO on the survivors. Caller holds tx.mu.
func (s *Session) evictLocked(c int, value int64) {
	if s.removeTxLocked(c) != nil {
		return
	}
	s.receiveHalf.mu.Lock()
	_ = s.rs.RemoveChannel(c)
	s.receiveHalf.mu.Unlock()
	s.cond.Broadcast()
	s.evicted[c] = true
	s.probeOK[c] = 0
	s.col.OnMemberEvict(c, value)
}

// drainIdleTicks bounds a receive-side drain that waits for its leave
// delimiter: a channel the peer announced as leaving that receives no
// data for this many marker ticks (of the default interval when the
// marker timer is off) is declared dead and retired, its missing tail
// lost. A healthy link delivers its tail and delimiter well within one
// tick, so the bound only ever fires on a dead one.
const drainIdleTicks = 8

// boundDrainsLocked applies drainIdleTicks for one tick. It is
// receive-side work: caller holds Receiver.mu, and needs no transmit
// lock.
func (s *Session) boundDrainsLocked() {
	for c := 0; c < s.n; c++ {
		if s.rs.MemberState(c) != MemberDraining {
			s.drainIdle[c] = 0
			continue
		}
		if a := s.rs.ArrivedBytesOn(c); a != s.drainSeen[c] {
			s.drainSeen[c], s.drainIdle[c] = a, 0
		} else if s.drainIdle[c]++; s.drainIdle[c] >= drainIdleTicks {
			// Marks the stream complete, as the delimiter would have; a
			// slot still holding packets retires once they are delivered.
			// The survivors' packets may be deliverable now: wake Recv.
			_ = s.rs.RemoveChannel(c)
			s.drainIdle[c] = 0
			s.cond.Broadcast()
		}
	}
}

// healthCount resolves a HealthConfig count: positive as given, zero
// the default, negative (or a disabled monitor) off, reported as 0.
func healthCount(v, def int64, disabled bool) int64 {
	switch {
	case disabled || v < 0:
		return 0
	case v == 0:
		return def
	default:
		return v
	}
}

// scoreTick runs the evidence-based eviction check: an active channel
// whose windowed health score stays below HealthConfig.ScoreEvictBelow
// for ScoreStreak consecutive rollup windows is evicted, with the
// score as the eviction value. Each published rollup advances a
// channel's streak at most once (the marker timer ticks faster than
// the rollup folds). Caller holds tx.mu.
func (s *Session) scoreTick() {
	if s.health.ScoreEvictBelow <= 0 {
		return
	}
	snap := s.col.Windows().Latest()
	if snap == nil || snap.AtNs == s.lastFoldAt {
		return
	}
	s.lastFoldAt = snap.AtNs
	for _, h := range snap.Health {
		s.lowScoreStep(s.lowScore, h.Channel, h.Score, s.health.ScoreEvictBelow)
	}
}

// peerTick runs the peer-evidence eviction check: an active channel
// whose peer-reported score stays below HealthConfig.PeerScoreEvictBelow
// for ScoreStreak consecutive telemetry reports is evicted, with the
// peer score as the eviction value. Each distinct report advances a
// channel's streak at most once (the marker timer can tick faster than
// peer reports arrive). This is the only rule that sees silent loss:
// the transport accepts every send, so the local error streak never
// moves, but the peer's resequencer measured the bytes that never
// arrived. Caller holds tx.mu.
func (s *Session) peerTick() {
	if s.health.PeerScoreEvictBelow <= 0 {
		return
	}
	snap := s.peer.Latest()
	if snap == nil || snap.Seq == s.lastPeerSeq {
		return
	}
	s.lastPeerSeq = snap.Seq
	for _, pc := range snap.Channels {
		s.lowScoreStep(s.peerLow, pc.Channel, pc.Score, s.health.PeerScoreEvictBelow)
	}
}

// lowScoreStep advances channel c's below-threshold streak in low by
// one report and evicts c once the streak reaches ScoreStreak. Caller
// holds tx.mu.
func (s *Session) lowScoreStep(low []int, c, score, threshold int) {
	if c < 0 || c >= s.n {
		return
	}
	if s.tx.st.Member(c) != core.MemberActive || score >= threshold {
		low[c] = 0
		return
	}
	streak := s.health.ScoreStreak
	if streak < 1 {
		streak = 2
	}
	if low[c]++; low[c] >= streak && s.tx.st.ActiveN() > 1 {
		s.evictLocked(c, int64(score))
		low[c] = 0
	}
}

// healthTick runs the periodic health checks: error-streak,
// marker-silence, windowed-health-score, and peer-score eviction for
// active channels, liveness probes and reinstatement for evicted ones.
// Runs on the marker timer with tx.mu held.
func (s *Session) healthTick() {
	if s.health.Disable {
		return
	}
	s.scoreTick()
	s.peerTick()
	now := time.Now()
	for c := 0; c < s.n; c++ {
		switch {
		case s.tx.st.Member(c) == core.MemberActive:
			if s.tx.st.ActiveN() <= 1 {
				continue // never evict the last channel
			}
			if s.evictAfter > 0 && s.tx.st.ErrStreak(c) >= s.evictAfter {
				s.evictLocked(c, s.tx.st.ErrStreak(c))
				continue
			}
			if at := s.cpl.markerAt[c].Load(); s.health.MarkerSilence > 0 && at != 0 {
				if sil := now.Sub(time.Unix(0, at)); sil > s.health.MarkerSilence {
					s.evictLocked(c, int64(sil))
				}
			}
		case s.evicted[c] && s.reinstateAfter > 0:
			// Probe the evicted channel with an idempotent status
			// announcement; a streak of successful sends is the recovery
			// signal.
			if s.tx.st.ProbeChannel(c) == nil {
				if s.probeOK[c]++; s.probeOK[c] >= s.reinstateAfter {
					if s.admitTxLocked(c, nil) == nil {
						s.col.OnMemberReinstate(c)
					}
				}
			} else {
				s.probeOK[c] = 0
			}
		}
	}
}

// recomputeMaxBufLocked re-derives the resequencer's buffer cap for the
// current live set when the cap was derived (not explicitly
// configured): a smaller live set legitimately buffers less, and a
// grown one needs headroom back. Caller holds tx.mu.
func (s *Session) recomputeMaxBufLocked() {
	if !s.autoMaxBuf {
		return
	}
	live := make([]int64, 0, s.n)
	for c := 0; c < s.n; c++ {
		if s.tx.st.Member(c) == core.MemberActive {
			live = append(live, s.quanta[c])
		}
	}
	s.receiveHalf.mu.Lock()
	s.rs.SetMaxBuffered(DefaultMaxBuffered(len(live), s.window, live))
	s.receiveHalf.mu.Unlock()
}

// coupler carries what the receive half hands the transmit half, so
// the receive path never takes the transmit lock: credit grants and
// marker arrival times as monotone per-channel atomics, peer membership
// events through a per-channel mailbox, and an event count that wakes
// credit-stalled senders. Everything is allocated once, at
// construction; nothing allocates per packet or per marker.
type coupler struct {
	grants   []atomic.Int64 // newest peer credit grant per channel
	granted  atomic.Bool    // grants holds one the gate has not folded in
	markerAt []atomic.Int64 // UnixNano of the newest marker arrival per channel (0 = none)
	mirror   []atomic.Int32 // newest unapplied peer membership event per channel
	mirrored atomic.Bool    // mirror holds an event
	kick     chan struct{}  // wakes the transmit loop to apply mirror events

	mu   sync.Mutex
	cond *sync.Cond
	seq  atomic.Uint64 // event count; written under mu
}

// Mailbox events (coupler.mirror).
const (
	mirrorJoin int32 = iota + 1
	mirrorLeave
)

func newCoupler(n int) *coupler {
	k := &coupler{
		grants:   make([]atomic.Int64, n),
		markerAt: make([]atomic.Int64, n),
		mirror:   make([]atomic.Int32, n),
		kick:     make(chan struct{}, 1),
	}
	k.cond = sync.NewCond(&k.mu)
	return k
}

// grant records a peer credit grant for channel c and wakes stalled
// senders. Grants are cumulative, so only a larger one is news.
func (k *coupler) grant(c int, g int64) {
	if g <= k.grants[c].Load() {
		return
	}
	k.grants[c].Store(g)
	k.granted.Store(true)
	k.notify()
}

// post records the receive side's membership transition on channel c
// (the resequencer's OnMembership) for the transmit side to mirror.
// Only the newest event per channel matters: mirroring applies a state,
// and re-applying the current one is a no-op.
func (k *coupler) post(c int, joined bool) {
	ev := mirrorLeave
	if joined {
		ev = mirrorJoin
	}
	k.mirror[c].Store(ev)
	k.mirrored.Store(true)
	select {
	case k.kick <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// notify advances the event count, waking every parked sender.
func (k *coupler) notify() {
	k.mu.Lock()
	k.seq.Add(1)
	k.mu.Unlock()
	k.cond.Broadcast()
}

// wait parks until the event count moves past seen. Like
// sync.Cond.Wait it releases l, the caller's transmit lock, while
// parked and reacquires it before returning. Reading seen before
// checking for credit (and for Close) makes the wait race-free: a
// grant or Close that lands after the check has already advanced the
// count.
func (k *coupler) wait(l sync.Locker, seen uint64) {
	l.Unlock()
	k.mu.Lock()
	for k.seq.Load() == seen {
		k.cond.Wait()
	}
	k.mu.Unlock()
	l.Lock()
}
