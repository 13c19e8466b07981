package sim

import (
	"fmt"
	"math/rand"

	"stripe/internal/channel"
	"stripe/internal/packet"
)

// LinkConfig describes one simulated link.
type LinkConfig struct {
	// RateBps is the line rate in bits per second (required).
	RateBps float64
	// Delay is the one-way propagation delay.
	Delay Time
	// Jitter adds a uniform per-packet extra delay in [0, Jitter),
	// clamped so FIFO order is preserved — the paper's model allows the
	// skew to "vary on a packet to packet basis".
	Jitter Time
	// Queue is the transmit queue limit in packets (default 64).
	// Drop-tail, like a device driver's interface queue.
	Queue int
	// Loss is the i.i.d. probability a packet is dropped in flight.
	Loss float64
	// Burst layers a Gilbert-Elliott burst-loss process on top of Loss
	// (see channel.GilbertElliott for the parameters).
	Burst channel.GilbertElliott
	// Overhead is per-packet framing bytes added to the serialization
	// time (link headers, preamble).
	Overhead int
	// Seed drives the loss process.
	Seed int64
}

// LinkStats counts link events.
type LinkStats struct {
	Sent      int64 // accepted for transmission
	SentBytes int64
	Dropped   int64 // transmit queue overflow
	Lost      int64 // loss process
	Delivered int64
}

// Link is a unidirectional simulated link. Send implements
// channel.Sender so stripers can drive it directly; delivery is by
// callback at the far end.
type Link struct {
	sim  *Sim
	cfg  LinkConfig
	rng  *rand.Rand
	name string

	busyUntil   Time
	lastArrival Time
	queued      int
	bad         bool // Gilbert-Elliott state
	deliver     func(p *packet.Packet)
	stats       LinkStats
}

// NewLink creates a link feeding the deliver callback.
func NewLink(s *Sim, name string, cfg LinkConfig, deliver func(p *packet.Packet)) (*Link, error) {
	if cfg.RateBps <= 0 {
		return nil, fmt.Errorf("sim: link %q needs a positive rate", name)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if deliver == nil {
		return nil, fmt.Errorf("sim: link %q needs a deliver callback", name)
	}
	return &Link{sim: s, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), name: name, deliver: deliver}, nil
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Stats returns a copy of the counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueLen returns the number of packets waiting for or under
// serialization.
func (l *Link) QueueLen() int { return l.queued }

// serTime returns the serialization time for n payload bytes.
func (l *Link) serTime(n int) Time {
	bits := float64(n+l.cfg.Overhead) * 8
	return Time(bits / l.cfg.RateBps * float64(Second))
}

// Send implements channel.Sender. A full transmit queue drops the
// packet silently (drop-tail), which is how striping overload turns
// into TCP loss.
func (l *Link) Send(p *packet.Packet) error {
	if l.queued >= l.cfg.Queue {
		l.stats.Dropped++
		return nil
	}
	l.stats.Sent++
	l.stats.SentBytes += int64(p.Len())
	l.queued++
	now := l.sim.Now()
	if l.busyUntil < now {
		l.busyUntil = now
	}
	l.busyUntil += l.serTime(p.Len())
	txDone := l.busyUntil
	arrival := txDone + l.cfg.Delay
	if l.cfg.Jitter > 0 {
		arrival += Time(l.rng.Int63n(int64(l.cfg.Jitter)))
	}
	if arrival < l.lastArrival {
		arrival = l.lastArrival // FIFO: never overtake
	}
	l.lastArrival = arrival
	lost := l.cfg.Loss > 0 && l.rng.Float64() < l.cfg.Loss
	if !lost && (l.cfg.Burst.PGoodToBad > 0 || l.cfg.Burst.BadLoss > 0 || l.cfg.Burst.GoodLoss > 0) {
		p := l.cfg.Burst.GoodLoss
		if l.bad {
			p = l.cfg.Burst.BadLoss
		}
		lost = p > 0 && l.rng.Float64() < p
		if l.bad {
			if l.rng.Float64() < l.cfg.Burst.PBadToGood {
				l.bad = false
			}
		} else if l.rng.Float64() < l.cfg.Burst.PGoodToBad {
			l.bad = true
		}
	}
	l.sim.At(txDone, func() { l.queued-- })
	if lost {
		l.stats.Lost++
		return nil
	}
	// The callback outlives Send, which only borrows a control packet.
	p = p.Keep()
	l.sim.At(arrival, func() {
		l.stats.Delivered++
		l.deliver(p)
	})
	return nil
}

// Utilization returns the fraction of the interval [0, now] the link
// spent transmitting (approximated from bytes sent).
func (l *Link) Utilization() float64 {
	now := l.sim.Now()
	if now == 0 {
		return 0
	}
	busy := l.serTime(int(l.stats.SentBytes)) // total bytes, overhead applied once; fine for reporting
	return float64(busy) / float64(now)
}
