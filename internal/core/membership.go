// Dynamic channel membership: lifecycle-aware link sets.
//
// The channel universe is fixed at construction — condition C2 requires
// both ends to number the channels identically, and renumbering a live
// set would tear that identification apart. Membership therefore
// enables and disables *slots* within the fixed universe:
//
//	active ──RemoveChannel/evict──▶ draining ──buffers empty──▶ removed
//	   ▲                                                           │
//	   └──────────────── AddChannel/reinstate ─────────────────────┘
//
// Sender side (Striper): removal cuts one last marker batch while the
// channel is still live (its final Sent position lets the receiver
// reconcile credits for everything transmitted before the departure),
// sends a MemberLeave delimiter down the departing channel itself, then
// disables the slot and announces the new live set on the survivors.
// The scheduler retires the slot's deficit, so by Theorem 3.2 the
// fairness band immediately re-forms over the survivors. Joins enable
// the slot with a zeroed deficit effective at the next round boundary
// and announce that join round, which is exactly the state the receiver
// needs to re-derive the Section 5 skip rule (skip c while r_c > G) for
// the newcomer — a join is a resync, and by the Theorem 5.1 argument
// FIFO delivery over the new set resumes within one marker period. The
// boundary deferral matters: the announcement then FIFO-precedes every
// packet of every service point the receiver must replay before
// reaching the newcomer's first service, so the receiver provably arms
// the skip rule before its simulation can scan past the slot.
//
// Receiver side: see the membership sections of resequencer.go.
//
// Announcements are full-bitmap and sequenced (packet.MemberBlock), and
// ride the marker cadence for a few batches after each transition:
// because every block carries the complete live set, a receiver that
// missed any prefix of announcements is fully repaired by whichever one
// arrives next.
package core

import (
	"errors"
	"fmt"

	"stripe/internal/channel"
	"stripe/internal/packet"
)

// MemberState is one slot's position in the membership lifecycle.
type MemberState uint8

const (
	// MemberActive: the slot is in the live set and scheduled normally.
	MemberActive MemberState = iota
	// MemberDraining: the slot has left the transmit set but the receiver
	// is still delivering packets buffered from it (receive side only —
	// the sender transitions atomically from active to removed).
	MemberDraining
	// MemberRemoved: the slot is out of the live set entirely.
	MemberRemoved
)

// String returns the conventional name of the state.
func (s MemberState) String() string {
	switch s {
	case MemberActive:
		return "active"
	case MemberDraining:
		return "draining"
	case MemberRemoved:
		return "removed"
	default:
		return fmt.Sprintf("memberstate(%d)", uint8(s))
	}
}

// memberAnnounceBatches is how many consecutive marker batches carry a
// re-broadcast of the latest membership announcement. Announcements are
// idempotent (sequenced, full bitmap), so redundancy costs one small
// control packet per channel per batch and buys loss resilience without
// an acknowledgement protocol.
const memberAnnounceBatches = 4

// memberUniverseMax is the largest channel universe dynamic membership
// supports, bounded by the announcement bitmap (packet.MemberBlock).
const memberUniverseMax = 64

// ErrNoActiveChannels is returned by Send when every slot has been
// removed from the live set.
var ErrNoActiveChannels = errors.New("core: no active channels in the live set")

// ErrMembershipUnsupported is returned by the membership methods when
// the configured scheduler cannot change its live set (it does not
// implement sched.Membership, or is round-less so the marker/announce
// machinery that makes membership changes safe is unavailable).
var ErrMembershipUnsupported = errors.New("core: scheduler does not support dynamic membership")

// ErrLastChannel is returned when a removal would empty the live set.
var ErrLastChannel = errors.New("core: cannot remove the last active channel")

// ChannelSendError reports a transport failure on one specific channel.
// Striper.Send wraps channel errors in it so callers (in particular the
// session health monitor) know which link failed without parsing error
// strings; errors.Is/As unwrap to the transport's own error.
type ChannelSendError struct {
	Channel int
	Err     error
}

func (e *ChannelSendError) Error() string {
	return fmt.Sprintf("core: send on channel %d: %v", e.Channel, e.Err)
}

func (e *ChannelSendError) Unwrap() error { return e.Err }

// sendFailed records a transport error against c's streak and wraps it.
//
//stripe:allowescape error wrapping on the channel-failure path only; the packet-delivered path never reaches it
func (st *Striper) sendFailed(c int, err error) error {
	st.errStreak[c]++
	return &ChannelSendError{Channel: c, Err: err}
}

// ActiveN returns the number of channels currently in the live set.
func (st *Striper) ActiveN() int { return st.activeN }

// Member returns slot c's lifecycle state. The sender has no draining
// state: removal retires the slot atomically.
func (st *Striper) Member(c int) MemberState {
	if c >= 0 && c < len(st.out) && st.active[c] {
		return MemberActive
	}
	return MemberRemoved
}

// ErrStreak returns the number of consecutive transport errors observed
// on channel c (data, marker, or announcement sends), reset to zero by
// any successful send. The session health monitor evicts on a
// configurable streak.
func (st *Striper) ErrStreak(c int) int64 {
	if c < 0 || c >= len(st.out) {
		return 0
	}
	return st.errStreak[c]
}

// membershipOK validates that the striper can change its live set.
func (st *Striper) membershipOK(c int) error {
	if st.mem == nil || st.rb == nil {
		return ErrMembershipUnsupported
	}
	if len(st.out) > memberUniverseMax {
		return fmt.Errorf("core: dynamic membership limited to %d channels, have %d", memberUniverseMax, len(st.out))
	}
	if c < 0 || c >= len(st.out) {
		return fmt.Errorf("core: channel %d out of range [0,%d)", c, len(st.out))
	}
	return nil
}

// RemoveChannel retires channel c from the live set: the scheduler
// stops selecting it, markers and resets are no longer cut for it, and
// the departure is announced to the receiver. The final marker batch is
// emitted while c is still live so the receiver holds c's exact final
// (round, deficit, Sent) position; the MemberLeave packet sent down c
// itself is a best-effort FIFO delimiter that lets a receiver on a
// still-healthy channel retire the slot the moment its buffer drains.
// Removing an already-removed channel is a no-op.
func (st *Striper) RemoveChannel(c int) error {
	if err := st.membershipOK(c); err != nil {
		return err
	}
	if !st.active[c] {
		return nil
	}
	if st.activeN <= 1 {
		return ErrLastChannel
	}
	st.emitBatch()
	st.mem.SetEnabled(c, false)
	if st.pendingJoin[c] != 0 {
		st.pendingJoin[c] = 0
		st.pendingJoins--
	}
	st.active[c] = false
	st.activeN--
	st.memberSeq++
	st.lastAnnounce = st.memberBlock(packet.MemberLeave, c, st.rb.Round())
	// Best-effort delimiter on the departing channel; it may already be
	// dead, which is fine — the survivors' announcements carry the same
	// (sequenced, full-bitmap) truth.
	_ = st.sendControl(c, packet.NewMember(st.lastAnnounce))
	st.errStreak[c] = 0
	st.announceLeft = memberAnnounceBatches
	st.broadcastMember()
	// Rounds only advance by serving enabled slots, so a removal must not
	// leave the scheduler empty while joins still wait on their round
	// boundary — they would never take effect. Flush them; the receiver's
	// skip rule absorbs the early first service as marker staleness.
	if st.pendingJoins != 0 && st.mem.ActiveN() == 0 {
		st.flushPendingJoins()
	}
	st.SyncObs()
	return nil
}

// AddChannel (re)admits channel c into the live set, optionally
// replacing its transport with tx (nil keeps the existing one — a
// reinstatement over the recovered link). The slot rejoins with a
// zeroed deficit at the next round boundary; that join round is
// announced so the receiver installs the skip rule for c (skip while
// r_c > G) and resumes FIFO delivery over the grown set within one
// marker period. Adding an already-active channel only swaps the
// transport. Returns the join round.
//
// The join must not take effect mid-round. The receiver's simulation
// runs eagerly on arrivals, so by the time the announcement lands it
// may already have scanned past slot c within the current round; were
// the sender to serve c this round, the receiver would deliver c's
// packets exactly one round late from then on. Deferring service to the
// next round boundary closes the race: every service point the
// receiver must replay before reaching (join, c) is evidenced only by
// packets the sender transmits *after* the announcement, which
// per-channel FIFO order delivers after the announcement — so the
// receiver provably admits the slot before its simulation can reach it
// (see applyPendingJoins).
func (st *Striper) AddChannel(c int, tx channel.Sender) (uint64, error) {
	if err := st.membershipOK(c); err != nil {
		return 0, err
	}
	if tx != nil {
		st.out[c] = tx
		st.batchOut[c], _ = tx.(channel.BatchSender)
	}
	if st.active[c] {
		if j := st.pendingJoin[c]; j != 0 {
			return j, nil
		}
		return st.rb.NextServiceRound(c), nil
	}
	st.active[c] = true
	st.activeN++
	st.errStreak[c] = 0
	join := st.rb.Round() + 1
	st.pendingJoin[c] = join
	st.pendingJoins++
	st.memberSeq++
	st.lastAnnounce = st.memberBlock(packet.MemberJoin, c, join)
	st.announceLeft = memberAnnounceBatches
	// Rebase the slot's fairness baseline to the join before announcing
	// it. A duplex peer mirrors the join back, and the receive half's
	// join hook reactivates the slot on a collector both directions
	// share, so an announcement that overtook the rebase would let the
	// Theorem 3.2 check measure the slot from its old baseline. The
	// flush first makes the baseline's byte position exact.
	st.SyncObs()
	st.obs.RebaseFairness(c, join)
	st.broadcastMember()
	// Cut markers immediately: the survivors' positions resynchronize the
	// receiver and reconcile credits without waiting out the marker
	// period. (The newcomer gets markers once its join round arrives.)
	st.emitBatch()
	st.SyncObs()
	return join, nil
}

// applyPendingJoins enables slots whose announced join round has
// arrived. Send calls it before selecting a channel, so a pending slot
// is enabled at the first service decision of its join round — the scan
// pointer is then at the round boundary, and the slot is served this
// round in its scan position exactly as announced.
func (st *Striper) applyPendingJoins() {
	r := st.rb.Round()
	for c, j := range st.pendingJoin {
		if j != 0 && r >= j {
			st.pendingJoin[c] = 0
			st.pendingJoins--
			st.mem.SetEnabled(c, true)
		}
	}
}

// flushPendingJoins enables every pending slot immediately, forgoing the
// round-boundary deferral. Used where waiting is impossible: a reset
// (both automatons restart at s0) and the removal corner where no other
// slot remains enabled to carry the rounds forward.
func (st *Striper) flushPendingJoins() {
	for c, j := range st.pendingJoin {
		if j != 0 {
			st.pendingJoin[c] = 0
			st.mem.SetEnabled(c, true)
		}
	}
	st.pendingJoins = 0
}

// ProbeChannel sends a MemberStatus announcement down channel c —
// active or not — and reports the transport outcome. The health monitor
// probes evicted channels this way: a status block is idempotent at the
// receiver (same bitmap, newer seq), so probing is side-effect-free,
// and a run of successful probes is the reinstatement signal.
func (st *Striper) ProbeChannel(c int) error {
	if err := st.membershipOK(c); err != nil {
		return err
	}
	st.memberSeq++
	mb := st.memberBlock(packet.MemberStatus, c, st.rb.Round())
	if st.active[c] {
		st.lastAnnounce = mb
	}
	err := st.sendControl(c, packet.NewMember(mb))
	if err != nil {
		st.errStreak[c]++
	} else {
		st.errStreak[c] = 0
	}
	return err
}

// memberBlock assembles an announcement of the current live set.
func (st *Striper) memberBlock(op packet.MemberOp, target int, round uint64) packet.MemberBlock {
	var bits uint64
	for c := range st.out {
		if st.active[c] {
			bits |= uint64(1) << uint(c) // membershipOK bounds the universe to 64 slots
		}
	}
	return packet.MemberBlock{
		Seq:    st.memberSeq,
		Op:     op,
		Target: uint32(target), // validated non-negative and < len(out) by membershipOK
		Round:  round,
		Active: bits,
		N:      uint32(len(st.out)), // bounded by memberUniverseMax
	}
}

// broadcastMember sends the latest announcement on every live channel.
func (st *Striper) broadcastMember() {
	for c := range st.out {
		if !st.active[c] {
			continue
		}
		if err := st.sendControl(c, packet.NewMember(st.lastAnnounce)); err != nil {
			st.errStreak[c]++
		} else {
			st.errStreak[c] = 0
		}
	}
}

// --- Receiver side ------------------------------------------------------

// MemberState returns slot c's lifecycle state as the receiver sees it.
func (r *Resequencer) MemberState(c int) MemberState {
	if c < 0 || c >= r.n || r.left[c] {
		return MemberRemoved
	}
	if r.leaving[c] {
		return MemberDraining
	}
	return MemberActive
}

// SetMaxBuffered retunes the total buffered-packet cap (see
// ResequencerConfig.MaxBuffered; zero means unbounded). Membership
// changes resize the live set, and sessions recompute the derived
// default cap for the surviving channels through this.
func (r *Resequencer) SetMaxBuffered(max int) {
	if max < 0 {
		max = 0
	}
	r.maxBuffered = max
	if max == 0 {
		r.overflow = false
	}
}

// memberOK validates that the receiver can change its live set. The
// round-based simulation needs a scheduler whose membership is mutable;
// the round-less causal simulation has no marker machinery to resync a
// joiner with, so membership is unsupported there. ModeNone and
// ModeSequence track membership without a scheduler.
func (r *Resequencer) memberOK(c int) error {
	if r.mode == ModeLogical && r.mem == nil {
		return ErrMembershipUnsupported
	}
	if c < 0 || c >= r.n {
		return fmt.Errorf("core: channel %d out of range [0,%d)", c, r.n)
	}
	return nil
}

// RemoveChannel locally begins channel c's retirement, without waiting
// for a peer announcement — the health monitor uses it when the link is
// observed dead from this end. Buffered packets still drain in delivery
// order; the slot is retired the moment its buffer empties (anything
// the simulation is still waiting for from c is, by the link being
// dead, lost — the skip rule and retirement declare it so). Removing a
// removed channel is a no-op; removing a draining one marks its stream
// complete so the drain can finish without a delimiter.
func (r *Resequencer) RemoveChannel(c int) error {
	if err := r.memberOK(c); err != nil {
		return err
	}
	if r.left[c] {
		return nil
	}
	// A dead link delivers nothing more, which is exactly what the leave
	// delimiter would have attested.
	r.delimited[c] = true
	if r.leaving[c] {
		if r.bufs[c].len() == 0 {
			r.retire(c)
		}
		return nil
	}
	r.beginLeaving(c)
	return nil
}

// AddChannel locally re-admits channel c, expecting the sender to first
// serve it in joinRound (from the peer's announcement or marker). The
// slot re-enters the simulation with a zeroed deficit and the skip rule
// armed at joinRound, which is exactly the marker-resync state of
// Section 5: FIFO delivery over the grown set resumes within one marker
// period (Theorem 5.1). Adding an active channel is a no-op.
func (r *Resequencer) AddChannel(c int, joinRound uint64) error {
	if err := r.memberOK(c); err != nil {
		return err
	}
	r.admit(c, joinRound)
	return nil
}

// applyMember applies one membership announcement. Blocks are sequenced
// and carry the full live-set bitmap, so only newer blocks apply and
// any single block repairs an arbitrarily long run of missed ones.
//
//stripe:allowescape cold membership control path: runs per announcement (transitions and marker cadence), not per packet
func (r *Resequencer) applyMember(m packet.MemberBlock) {
	if r.mode == ModeLogical && r.mem == nil {
		return // round-less causal simulation: membership unsupported
	}
	if int(m.N) != r.n {
		r.stats.BadMembers++ // foreign universe: mis-wired, do not apply
		return
	}
	if m.Seq <= r.memberSeq {
		return // stale or duplicate (re-broadcast) announcement
	}
	r.memberSeq = m.Seq
	for c := 0; c < r.n; c++ {
		if m.ActiveChannel(c) {
			r.admit(c, m.Round)
		} else if !r.left[c] && !r.leaving[c] {
			r.beginLeaving(c)
		}
	}
}

// admit (re)enters slot c into the live set. No-op when c is already
// active.
//
//stripe:allowescape cold membership control path: join transitions only
func (r *Resequencer) admit(c int, joinRound uint64) {
	if r.leaving[c] {
		// The channel flapped back before its drain completed. The old
		// buffered tail cannot be ordered consistently against the
		// sender's fresh join state, so finish the retirement first and
		// rejoin clean — the discarded tail is ordinary unrecovered loss.
		r.retire(c)
	}
	if !r.left[c] {
		return
	}
	r.left[c] = false
	r.delimited[c] = false
	if r.mem != nil {
		r.mem.SetEnabled(c, true)
	}
	if r.mode == ModeLogical && r.s != nil {
		// The join is a resync: skip c until the announced join round,
		// the same rule a future-round marker installs.
		r.marked[c] = true
		r.expect[c] = joinRound
		r.pendingHas[c] = false
		r.clearStale() // any staleness census spoke about the old set
	}
	r.stats.MemberJoins++
	r.obs.OnMemberJoin(c, joinRound)
	if r.onMembership != nil {
		r.onMembership(c, true)
	}
}

// beginLeaving starts slot c's departure. Modes that buffer drain in
// delivery order first; arrival-order mode retires immediately.
func (r *Resequencer) beginLeaving(c int) {
	if r.mode == ModeNone {
		r.retire(c)
		return
	}
	r.leaving[c] = true
	r.leavingN++
	if r.delimited[c] && r.bufs[c].len() == 0 {
		r.retire(c)
	}
}

// sweepLeaving retires draining slots whose streams are complete and
// whose buffers have emptied. Undelimited slots wait for their
// delimiter — their tail may still be in flight. A link that dies
// mid-drain never sends one; whoever observes it dead completes the
// drain with RemoveChannel (a Session does after a bounded silence).
func (r *Resequencer) sweepLeaving() {
	for c := 0; c < r.n; c++ {
		if r.leaving[c] && r.delimited[c] && r.bufs[c].len() == 0 {
			r.retire(c)
		}
	}
}

// retire completes slot c's removal: remaining buffered control is
// consumed (markers for their piggybacked credits), remaining buffered
// data — unreachable in order once the channel is gone — is declared
// lost, and the slot leaves the simulation. Every packet buffered from
// c is therefore either delivered in order (the drain path) or declared
// lost here; none is ever delivered out of order.
//
//stripe:allowescape cold membership control path: one retirement per departure
func (r *Resequencer) retire(c int) {
	var lost int64
	for {
		p, ok := r.bufs[c].pop()
		if !ok {
			break
		}
		switch p.Kind {
		case packet.Data:
			lost++
		case packet.Marker:
			if m, err := packet.MarkerOf(p); err == nil {
				r.stats.Markers++
				r.obs.OnMarkerConsumed(c)
				if r.onMarker != nil {
					r.onMarker(c, m)
				}
			} else {
				r.stats.BadMarkers++
				r.obs.OnBadMarker()
			}
		}
	}
	if r.leaving[c] {
		r.leaving[c] = false
		r.leavingN--
	}
	r.delimited[c] = false
	r.left[c] = true
	if r.mem != nil {
		r.mem.SetEnabled(c, false)
	}
	if r.mode == ModeLogical && r.s != nil {
		r.marked[c] = false
		r.expect[c] = 0
		r.pendingHas[c] = false
		r.clearStale()
	}
	r.stats.MemberDrains++
	r.stats.MemberLost += lost
	var round uint64
	if r.mode == ModeLogical && r.s != nil {
		round = r.s.Round()
	}
	r.obs.OnMemberDrain(c, round, lost)
	if r.onMembership != nil {
		r.onMembership(c, false)
	}
}
