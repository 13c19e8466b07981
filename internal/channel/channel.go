// Package channel provides the FIFO channel substrate the striping
// protocol runs over, in the broad sense the paper defines: a logical
// FIFO path at any layer. Channels here can lose, corrupt, and delay
// packets — but never reorder them, matching the model of Section 2
// (channels that occasionally deviate from FIFO are modelled as having
// burst errors).
//
// Two implementations are provided:
//
//   - Queue: a synchronous, zero-time FIFO for deterministic
//     state-machine experiments and tests. Impairments (i.i.d. loss,
//     Gilbert–Elliott burst loss, detectable corruption) are applied at
//     Send time from a seeded generator, so every run is reproducible.
//   - Live: a goroutine-driven channel with real-time rate limiting and
//     per-packet skew for the runnable examples, preserving FIFO order
//     by construction.
//
// The discrete-event simulator in internal/sim has its own link model
// with simulated time; this package is the substrate for everything that
// does not need a clock.
package channel

import (
	"errors"
	"math/rand"

	"stripe/internal/packet"
)

// Sender is the transmit side of a FIFO channel.
type Sender interface {
	// Send enqueues p on the channel. Impaired channels may silently
	// drop or corrupt the packet; that is not an error (the sender of a
	// lossy link does not learn of loss). An error means the channel can
	// accept no more traffic (closed or buffer-limited).
	//
	// Send only borrows a control packet (Kind != Data): its emitter
	// releases it as soon as Send returns, whatever the outcome, so a
	// channel that holds packets past the call keeps p.Keep(), a pooled
	// copy, never p itself. A data packet is handed over. On the far
	// side the receiver owns every control packet it is given.
	Send(p *packet.Packet) error
}

// BatchSender is optionally implemented by channels that can accept a
// vector of packets in one call, amortizing per-send overhead (one
// buffered flush or syscall per batch where the transport allows — the
// writev of the channel world). Senders that do not implement it are
// driven packet-at-a-time by the batched striper, so implementing
// BatchSender is purely an optimization, never a requirement.
type BatchSender interface {
	Sender
	// SendBatch enqueues pkts in FIFO order and returns the number of
	// packets the channel accepted; n < len(pkts) only alongside a
	// non-nil error, and pkts[n:] were not accepted. A transport whose
	// buffering makes the delivery of accepted packets uncertain after
	// an error (a TCP flush that fails partway) still counts them as
	// accepted: an accepted-but-dropped tail is indistinguishable from
	// wire loss, which the striping protocol already recovers from.
	SendBatch(pkts []*packet.Packet) (int, error)
}

// Receiver is the receive side of a FIFO channel.
type Receiver interface {
	// Recv dequeues the next packet. ok is false when nothing is
	// currently available.
	Recv() (p *packet.Packet, ok bool)
}

// ErrClosed is returned by Send on a closed channel.
var ErrClosed = errors.New("channel: closed")

// Stats counts per-channel events. All counters are cumulative.
type Stats struct {
	Sent         int64 // packets accepted by Send
	SentBytes    int64
	Lost         int64 // dropped by the loss model
	Corrupted    int64 // dropped as detectably corrupted
	Delivered    int64 // packets handed to Recv
	DeliveredBiB int64 // bytes handed to Recv
	Overflowed   int64 // dropped because the queue was at capacity
}

// GilbertElliott is a two-state burst-loss model. In the Good state
// packets are lost with probability GoodLoss; in the Bad state with
// probability BadLoss. After each packet the state flips with
// probability PGoodToBad or PBadToGood. Zero-value means "no burst
// model".
type GilbertElliott struct {
	PGoodToBad float64
	PBadToGood float64
	GoodLoss   float64
	BadLoss    float64
}

func (g GilbertElliott) enabled() bool {
	return g.PGoodToBad > 0 || g.BadLoss > 0 || g.GoodLoss > 0
}

// perfect reports whether the impairment config can never drop a
// packet, so bulk paths may skip the per-packet error processes.
func (im Impairments) perfect() bool {
	return im.Loss <= 0 && im.Corrupt <= 0 && !im.Burst.enabled()
}

// Impairments configures the error processes of a channel. The zero
// value is a perfect channel.
type Impairments struct {
	// Loss is the i.i.d. probability that a packet is silently dropped.
	Loss float64
	// Corrupt is the i.i.d. probability that a packet is corrupted in
	// flight. The paper assumes corruption is detectable (link CRCs),
	// and that detectably corrupt packets are discarded before reaching
	// the resequencing algorithm; the model therefore drops them,
	// counting them separately from losses.
	Corrupt float64
	// Burst layers a Gilbert–Elliott burst-loss process on top of Loss.
	Burst GilbertElliott
	// Seed makes the error processes reproducible. Channels with
	// different seeds have independent processes.
	Seed int64
}

// Queue is a synchronous in-memory FIFO channel with impairments. It is
// not safe for concurrent use; it belongs to single-goroutine harnesses
// and tests. Use Live for concurrent pipelines.
type Queue struct {
	imp      Impairments
	rng      *rand.Rand
	bad      bool // Gilbert–Elliott state
	buf      []*packet.Packet
	head     int
	cap      int   // packet limit; 0 = unbounded
	capBytes int64 // byte limit; 0 = unbounded
	bytes    int64 // payload bytes currently queued
	stats    Stats
	open     bool
}

// NewQueue returns an unbounded impaired FIFO.
func NewQueue(imp Impairments) *Queue {
	return &Queue{imp: imp, rng: rand.New(rand.NewSource(imp.Seed)), open: true}
}

// NewBoundedQueue returns a FIFO that drops (counting Overflowed) when
// more than capacity packets are queued — the finite receive buffer of
// the flow-control experiment.
func NewBoundedQueue(imp Impairments, capacity int) *Queue {
	q := NewQueue(imp)
	q.cap = capacity
	return q
}

// NewByteBoundedQueue returns a FIFO that drops (counting Overflowed)
// when the queued payload bytes would exceed capBytes — a socket-buffer
// style receive buffer.
func NewByteBoundedQueue(imp Impairments, capBytes int64) *Queue {
	q := NewQueue(imp)
	q.capBytes = capBytes
	return q
}

// Close marks the channel closed; subsequent Sends fail.
func (q *Queue) Close() { q.open = false }

// Len returns the number of queued packets.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Stats returns a copy of the channel counters.
func (q *Queue) Stats() Stats { return q.stats }

// lose decides the fate of one packet under the error models.
func (q *Queue) lose() (lost, corrupted bool) {
	if q.imp.Loss > 0 && q.rng.Float64() < q.imp.Loss {
		return true, false
	}
	if q.imp.Burst.enabled() {
		p := q.imp.Burst.GoodLoss
		if q.bad {
			p = q.imp.Burst.BadLoss
		}
		dropped := p > 0 && q.rng.Float64() < p
		// State transition after the packet.
		if q.bad {
			if q.rng.Float64() < q.imp.Burst.PBadToGood {
				q.bad = false
			}
		} else {
			if q.rng.Float64() < q.imp.Burst.PGoodToBad {
				q.bad = true
			}
		}
		if dropped {
			return true, false
		}
	}
	if q.imp.Corrupt > 0 && q.rng.Float64() < q.imp.Corrupt {
		return false, true
	}
	return false, false
}

// Send implements Sender.
func (q *Queue) Send(p *packet.Packet) error {
	if !q.open {
		return ErrClosed
	}
	q.stats.Sent++
	q.stats.SentBytes += int64(p.Len())
	lost, corrupted := q.lose()
	if lost {
		q.stats.Lost++
		return nil
	}
	if corrupted {
		q.stats.Corrupted++
		return nil
	}
	if q.cap > 0 && q.Len() >= q.cap {
		q.stats.Overflowed++
		return nil
	}
	if q.capBytes > 0 && q.bytes+int64(p.Len()) > q.capBytes {
		q.stats.Overflowed++
		return nil
	}
	q.buf = append(q.buf, p.Keep())
	q.bytes += int64(p.Len())
	return nil
}

// SendBatch implements BatchSender. A perfect unbounded queue (the
// benchmark and happy-path test configuration) takes a bulk path —
// one stats update for the whole batch; anything with an
// error process or a capacity bound goes through Send per packet so
// the impairment state machines observe every packet in order.
func (q *Queue) SendBatch(pkts []*packet.Packet) (int, error) {
	if q.open && q.cap == 0 && q.capBytes == 0 && q.imp.perfect() {
		base := len(q.buf)
		q.buf = append(q.buf, pkts...)
		var by int64
		for i, p := range pkts {
			by += int64(p.Len())
			q.buf[base+i] = p.Keep()
		}
		q.bytes += by
		q.stats.Sent += int64(len(pkts))
		q.stats.SentBytes += by
		return len(pkts), nil
	}
	for i, p := range pkts {
		if err := q.Send(p); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// Recv implements Receiver.
func (q *Queue) Recv() (*packet.Packet, bool) {
	if q.head == len(q.buf) {
		return nil, false
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	q.bytes -= int64(p.Len())
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 256 && q.head*2 > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.stats.Delivered++
	q.stats.DeliveredBiB += int64(p.Len())
	return p, true
}

// Peek returns the head packet without removing it.
func (q *Queue) Peek() (*packet.Packet, bool) {
	if q.head == len(q.buf) {
		return nil, false
	}
	return q.buf[q.head], true
}

// Group is a convenience bundle of N parallel queues between one sender
// and one receiver, the "N channels between S and R" of Figure 1.
type Group struct {
	Queues []*Queue
}

// NewGroup builds n queues sharing the impairment configuration but
// with independent seeds (seed, seed+1, ...).
func NewGroup(n int, imp Impairments) *Group {
	g := &Group{Queues: make([]*Queue, n)}
	for i := range g.Queues {
		qi := imp
		qi.Seed = imp.Seed + int64(i)
		g.Queues[i] = NewQueue(qi)
	}
	return g
}

// Senders returns the queues as a slice of Sender.
func (g *Group) Senders() []Sender {
	s := make([]Sender, len(g.Queues))
	for i, q := range g.Queues {
		s[i] = q
	}
	return s
}

// Receivers returns the queues as a slice of Receiver.
func (g *Group) Receivers() []Receiver {
	r := make([]Receiver, len(g.Queues))
	for i, q := range g.Queues {
		r[i] = q
	}
	return r
}

// TotalStats sums the per-channel counters.
func (g *Group) TotalStats() Stats {
	var t Stats
	for _, q := range g.Queues {
		s := q.Stats()
		t.Sent += s.Sent
		t.SentBytes += s.SentBytes
		t.Lost += s.Lost
		t.Corrupted += s.Corrupted
		t.Delivered += s.Delivered
		t.DeliveredBiB += s.DeliveredBiB
		t.Overflowed += s.Overflowed
	}
	return t
}
