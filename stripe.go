package stripe

import (
	"errors"
	"sync"
	"time"

	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/netchan"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// Packet is the unit of striping. Payloads are carried verbatim in the
// default (no header) mode.
type Packet = packet.Packet

// Data builds a data packet around payload without copying.
func Data(payload []byte) *Packet { return packet.NewData(payload) }

// GetPacket returns a zeroed packet from the process-wide packet pool.
// Its payload has length zero and keeps the capacity of its previous
// life (2 KiB for a fresh one); see GetPacketSized for a sized one. Hand packets back with
// Packet.Release once done (optional — unreleased packets are ordinary
// garbage), and never Release a packet whose payload aliases memory you
// keep (such as one built with Data).
func GetPacket() *Packet { return packet.Get() }

// GetPacketSized returns a pooled data packet whose payload has length
// n, with unspecified contents. This is the allocation-free way to feed
// SendBatch in steady state: a released packet donates its payload
// backing array to the pool, so once capacities stabilize Get/Release
// cycles allocate nothing.
func GetPacketSized(n int) *Packet { return packet.GetSized(n) }

// Kinds, for inspecting packets read directly off channels.
const (
	KindData      = packet.Data
	KindMarker    = packet.Marker
	KindCredit    = packet.Credit
	KindReset     = packet.Reset
	KindMember    = packet.Member
	KindTelemetry = packet.Telemetry
)

// MemberState is one channel slot's position in the membership
// lifecycle (active → draining → removed, and back via AddChannel).
type MemberState = core.MemberState

// Membership lifecycle states.
const (
	MemberActive   = core.MemberActive
	MemberDraining = core.MemberDraining
	MemberRemoved  = core.MemberRemoved
)

// ErrNoActiveChannels is returned by Send once every channel has been
// removed from the live set.
var ErrNoActiveChannels = core.ErrNoActiveChannels

// ErrLastChannel is returned when a removal would empty the live set.
var ErrLastChannel = core.ErrLastChannel

// ChannelSendError wraps a transport failure with the channel it
// occurred on; unwrap with errors.As to react per channel.
type ChannelSendError = core.ChannelSendError

// MarkerPolicy controls periodic synchronization markers; see
// core.MarkerPolicy. Every is in rounds; Position is the channel index
// the round-robin pointer rests on when the batch is cut.
type MarkerPolicy = core.MarkerPolicy

// Mode selects the receiver discipline.
type Mode = core.Mode

// Receive disciplines.
const (
	// ModeLogical is the paper's scheme: per-channel buffering plus
	// simulation of the sender automaton. Quasi-FIFO under loss.
	ModeLogical = core.ModeLogical
	// ModeNone delivers in physical arrival order.
	ModeNone = core.ModeNone
	// ModeSequence resequences on explicit sequence numbers; requires
	// Config.AddSeq on the sender.
	ModeSequence = core.ModeSequence
)

// ChannelSender is the transmit side of one FIFO channel. Send borrows
// a control packet only until it returns — the sender releases it right
// after — so an implementation that holds packets past the call keeps
// p.Keep(), never p itself; see channel.Sender.
type ChannelSender = channel.Sender

// ChannelReceiver is the receive side of one FIFO channel.
type ChannelReceiver = channel.Receiver

// UniformQuanta returns n equal quanta of q bytes each.
func UniformQuanta(n int, q int64) []int64 { return sched.UniformQuanta(n, q) }

// QuantaForRates derives quanta proportional to channel bandwidths with
// the smallest at least minQuantum (set it to your maximum packet size).
func QuantaForRates(rates []float64, minQuantum int64) ([]int64, error) {
	return sched.QuantaForRates(rates, minQuantum)
}

// Scheme selects the striping discipline.
type Scheme uint8

const (
	// SchemeSRR is Surplus Round Robin: byte-denominated quanta, fair
	// with variable-length packets. The paper's scheme and the default.
	SchemeSRR Scheme = iota
	// SchemeRR is ordinary round robin: one packet per channel per
	// round, ignoring sizes (Quanta entries are ignored beyond their
	// count). A baseline.
	SchemeRR
	// SchemeGRR is generalized round robin: Quanta are per-round packet
	// counts approximating a bandwidth ratio. A baseline.
	SchemeGRR
)

// Config configures a striped connection. Sender and receiver must use
// identical Scheme, Quanta and Markers.
type Config struct {
	// Scheme is the striping discipline (default SchemeSRR).
	Scheme Scheme
	// Quanta are the per-channel SRR quanta in bytes, proportional to
	// channel bandwidth; each should be at least the maximum packet
	// size. For SchemeGRR they are per-round packet counts instead.
	// Required.
	Quanta []int64
	// Markers configures periodic resynchronization markers. The zero
	// value sends markers every 4 rounds at the round boundary, which
	// suits most uses; set Every to NoMarkers to disable.
	Markers MarkerPolicy
	// Mode is the receive discipline (default ModeLogical).
	Mode Mode
	// AddSeq stamps explicit sequence numbers on data packets — the
	// "with header" variant, required for ModeSequence.
	AddSeq bool
	// MaxBuffered caps the receiver's total buffered packets, making
	// resequencer memory hard-bounded: above the cap ordering is
	// abandoned for the backlog until it halves, and above twice the cap
	// arrivals are dropped like channel loss. Zero selects
	// DefaultMaxBuffered in sessions with flow control enabled (and
	// unbounded elsewhere); negative means explicitly unbounded.
	MaxBuffered int
	// Collector, when non-nil, receives runtime metrics and protocol
	// events from every engine built with this Config. Size it with
	// NewCollector(len(Quanta)). Expose it with Serve or read it with
	// Snapshot. A nil Collector costs one pointer test per packet.
	Collector *Collector
}

// NoMarkers disables periodic markers when assigned to Markers.Every.
const NoMarkers = ^uint64(0)

// DefaultMaxBuffered derives a principled resequencer buffer cap from
// the flow-control configuration: n channels, a per-channel credit
// window of window bytes, and the configured quanta.
//
// FCVC flow control already bounds what the cap must hold: the peer can
// have at most window un-granted bytes outstanding per channel, so the
// resequencer never legitimately buffers more than n·window payload
// bytes. Converting bytes to a packet count needs a floor on packet
// size; quanta are calibrated to the maximum packet (each quantum ≥ max
// packet size), and the paper's workloads put typical packets within a
// small factor of the maximum, so min(quanta)/8 is used as the floor —
// tiny-packet floods beyond that are exactly the pathology the cap
// exists to bound. The result is
//
//	cap = 8 · n · ⌈window / min(quanta)⌉
//
// with a floor of 64 packets so small windows never cripple reordering
// tolerance. Returns 0 (unbounded) when window or the quanta are
// non-positive. See DESIGN.md "Bounded resequencer memory".
func DefaultMaxBuffered(n int, window int64, quanta []int64) int {
	if n <= 0 || window <= 0 {
		return 0
	}
	minQ := int64(0)
	for _, q := range quanta {
		if q > 0 && (minQ == 0 || q < minQ) {
			minQ = q
		}
	}
	if minQ == 0 {
		return 0
	}
	per := (window + minQ - 1) / minQ
	cap64 := 8 * int64(n) * per
	if cap64 < 64 {
		return 64
	}
	return int(cap64)
}

func (c Config) sched() (sched.RoundBased, error) {
	switch c.Scheme {
	case SchemeRR:
		return sched.NewRR(len(c.Quanta))
	case SchemeGRR:
		return sched.NewGRR(c.Quanta)
	default:
		return sched.NewSRR(c.Quanta)
	}
}

func (c Config) markers() MarkerPolicy {
	m := c.Markers
	if m.Every == 0 {
		m = MarkerPolicy{Every: 4, Position: 0}
	} else if m.Every == NoMarkers {
		m = MarkerPolicy{}
	}
	return m
}

// Sender stripes a FIFO packet stream across the channels. It is safe
// for concurrent use.
type Sender struct {
	mu  sync.Mutex
	st  *core.Striper
	col *Collector
}

// NewSender builds the sending half over the given channels.
func NewSender(channels []ChannelSender, cfg Config) (*Sender, error) {
	return newSender(channels, cfg, core.StriperConfig{})
}

// newSender builds a Sender from cfg; scfg carries the flow-control
// hooks (Gate, MarkerCredits) a Session adds, and newSender fills in
// the rest.
func newSender(channels []ChannelSender, cfg Config, scfg core.StriperConfig) (*Sender, error) {
	if len(cfg.Quanta) != len(channels) {
		return nil, errors.New("stripe: Quanta and channels must have equal length")
	}
	s, err := cfg.sched()
	if err != nil {
		return nil, err
	}
	scfg.Sched = s
	scfg.Channels = channels
	scfg.Markers = cfg.markers()
	scfg.AddSeq = cfg.AddSeq
	scfg.Obs = cfg.Collector
	st, err := core.NewStriper(scfg)
	if err != nil {
		return nil, err
	}
	return &Sender{st: st, col: cfg.Collector}, nil
}

// Send stripes one packet. The payload is transmitted unmodified.
func (s *Sender) Send(p *Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Send(p)
}

// SendBytes stripes a payload.
func (s *Sender) SendBytes(payload []byte) error { return s.Send(Data(payload)) }

// SendBatch stripes pkts in FIFO order, taking the sender lock once and
// flushing maximal same-channel runs in single channel writes. It
// returns the number of packets sent; n < len(pkts) only alongside a
// non-nil error, and pkts[n:] were not sent.
func (s *Sender) SendBatch(pkts []*Packet) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.SendBatch(pkts)
}

// EmitMarkers cuts a marker batch immediately. Call it from a timer if
// the stream can go idle, so a stalled sender still resynchronizes the
// receiver after loss.
func (s *Sender) EmitMarkers() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.EmitMarkers()
}

// Reset broadcasts a reset and reinitialises the striping automaton;
// the receiver discards stale in-flight traffic and both ends restart
// in the common start state.
func (s *Sender) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Reset()
}

// Stats reports the sender's protocol counters, including the
// per-channel data load (the observable half of the fairness bound).
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Stats()
}

// Snapshot returns the attached Collector's metrics (the zero Snapshot
// when no Collector was configured). It briefly takes the sender lock
// to flush the batched transmit counters first, so the snapshot is
// exact as of this call.
func (s *Sender) Snapshot() Snapshot {
	if s.col == nil {
		return Snapshot{}
	}
	s.mu.Lock()
	s.st.SyncObs()
	s.mu.Unlock()
	return s.col.Snapshot()
}

// SentOn reports the data packets and payload bytes striped onto
// channel c — the observable half of the fairness bound.
func (s *Sender) SentOn(c int) (packets, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.SentOn(c)
}

// Receiver reassembles the FIFO stream. Feed it with Attach (one read
// pump per channel) or Arrive, and consume with Recv or TryRecv. It is
// safe for concurrent use.
type Receiver struct {
	mu   sync.Mutex
	cond *sync.Cond
	rs   *core.Resequencer
	col  *Collector
	// sess, when set, is the Session this Receiver is the receive half
	// of; its arrive hook sees every arrival under mu just before the
	// resequencer does (a static call, so lockorder checks it).
	sess *Session

	done      chan struct{} // closed by Close: ends Recv waits and read pumps
	pumps     sync.WaitGroup
	badFrames int64 // frames the read pumps dropped as undecodable; guarded by mu
}

// NewReceiver builds the receiving half for n channels.
func NewReceiver(n int, cfg Config) (*Receiver, error) {
	if len(cfg.Quanta) != n {
		return nil, errors.New("stripe: Quanta must have one entry per channel")
	}
	maxBuf := cfg.MaxBuffered
	if maxBuf < 0 { // explicitly unbounded
		maxBuf = 0
	}
	return newReceiver(cfg, core.ResequencerConfig{MaxBuffered: maxBuf})
}

// newReceiver builds a Receiver from cfg; rcfg carries the buffer cap
// and the callbacks a Session adds, and newReceiver fills in the rest.
func newReceiver(cfg Config, rcfg core.ResequencerConfig) (*Receiver, error) {
	rcfg.Mode = cfg.Mode
	rcfg.N = len(cfg.Quanta)
	rcfg.Obs = cfg.Collector
	if cfg.Mode == ModeLogical {
		s, err := cfg.sched()
		if err != nil {
			return nil, err
		}
		rcfg.Sched = s
	}
	rs, err := core.NewResequencer(rcfg)
	if err != nil {
		return nil, err
	}
	r := &Receiver{rs: rs, col: cfg.Collector, done: make(chan struct{})}
	r.cond = sync.NewCond(&r.mu)
	return r, nil
}

// Arrive hands the receiver a packet physically received on channel c
// (data, marker, or any other kind read off the channel). Control
// packets are borrowed by Send and owned by Arrive: the receiver takes
// ownership of every control packet, resets included, and releases it
// to the packet pool once consumed, so the caller must not touch p
// afterwards. Data packets follow the ownership rules in doc.go.
func (r *Receiver) Arrive(c int, p *Packet) {
	r.mu.Lock()
	if r.sess != nil {
		r.sess.arrive(c, p)
	}
	r.rs.Arrive(c, p)
	r.mu.Unlock()
	r.cond.Broadcast()
}

// PacketReader is the receive end of a channel transport. ReadPacket
// blocks for up to timeout and returns (nil, nil) when it expires.
// UDPChannel, TCPChannel and LocalChannel implement it.
type PacketReader interface {
	ReadPacket(timeout time.Duration) (*Packet, error)
}

// pumpPoll bounds how long a read pump blocks in ReadPacket before it
// rechecks for Close, and so how long Close waits for its pumps.
const pumpPoll = 20 * time.Millisecond

// Attach starts a read pump that feeds every packet read from src to
// Arrive on channel c. A frame src cannot decode (a stray or corrupt
// datagram, an unknown codepoint) is dropped and counted in
// Stats().BadFrames, and the pump reads on. The pump ends on Close,
// which waits for it, or on any other read error (a closed or desynced
// transport), so it never spins on a dead source. src must honour
// ReadPacket's timeout. Attach after Close starts nothing.
func (r *Receiver) Attach(c int, src PacketReader) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closing() {
		return
	}
	r.pumps.Add(1)
	go r.pump(c, src)
}

func (r *Receiver) pump(c int, src PacketReader) {
	defer r.pumps.Done()
	for !r.closing() {
		p, err := src.ReadPacket(pumpPoll)
		if p != nil {
			r.Arrive(c, p)
		} else if frameReject(err) {
			r.mu.Lock()
			r.badFrames++
			r.mu.Unlock()
		} else if err != nil {
			return
		}
	}
}

// frameReject reports whether a read error rejects one frame and leaves
// the transport readable: a datagram is self-contained, and a TCP
// record whose body fails to decode has still been consumed whole.
func frameReject(err error) bool {
	return errors.Is(err, netchan.ErrFrameTooShort) ||
		errors.Is(err, netchan.ErrBadCodepoint) ||
		errors.Is(err, netchan.ErrBadFlags)
}

// TryRecv returns the next in-order packet without blocking.
func (r *Receiver) TryRecv() (*Packet, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rs.Next()
}

// Recv blocks until the next in-order packet is available or the
// receiver is closed (nil return).
func (r *Receiver) Recv() *Packet {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if p, ok := r.rs.Next(); ok {
			return p
		}
		if r.closing() {
			return nil
		}
		r.cond.Wait()
	}
}

// RecvBatch fills dst with as many consecutive in-order packets as are
// deliverable right now, blocking (like Recv) until at least one is
// available, and returns the number filled. Zero means the receiver was
// closed. The lock is taken once per batch. Packets received off
// netchan transports are pool-backed; Release them once consumed to
// keep the receive path allocation-free.
func (r *Receiver) RecvBatch(dst []*Packet) int {
	if len(dst) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if n := r.rs.NextBatch(dst); n > 0 {
			return n
		}
		if r.closing() {
			return 0
		}
		r.cond.Wait()
	}
}

// Close unblocks pending Recv calls, stops the read pumps and waits for
// them to exit; subsequent Recv calls drain nothing further once the
// ordering discipline blocks.
func (r *Receiver) Close() {
	r.mu.Lock()
	if !r.closing() {
		close(r.done)
	}
	r.mu.Unlock()
	r.cond.Broadcast()
	r.pumps.Wait()
}

// closing reports whether Close has been called.
func (r *Receiver) closing() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Drain force-flushes everything still buffered, best effort, at end of
// stream.
func (r *Receiver) Drain() []*Packet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rs.Drain()
}

// Buffered reports the packets currently held in per-channel buffers.
func (r *Receiver) Buffered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rs.Buffered()
}

// Stats reports the receiver's protocol counters.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.rs.Stats()
	st.BadFrames = r.badFrames
	return st
}

// Snapshot returns the attached Collector's metrics (the zero Snapshot
// when no Collector was configured).
func (r *Receiver) Snapshot() Snapshot { return r.col.Snapshot() }
