package channel

import (
	"math/rand"
	"sync"
	"time"

	"stripe/internal/obs"
	"stripe/internal/packet"
)

// LiveConfig configures a real-time channel.
type LiveConfig struct {
	// RateBps is the link bandwidth in bits per second; packets incur a
	// serialization delay of 8*len/RateBps. Zero means infinitely fast.
	RateBps float64
	// Delay is the one-way propagation delay (the channel's base skew).
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per
	// packet. FIFO order is preserved regardless: a packet is never
	// released before its predecessor.
	Jitter time.Duration
	// Impairments configures loss and corruption, as for Queue.
	Impairments Impairments
	// Buffer is the transmit queue depth in packets (default 1024).
	Buffer int
	// Obs, when non-nil, receives channel loss counts and transmit
	// queue depth for channel index Index.
	Obs *obs.Collector
	// Index is this channel's index within the stripe, used to label
	// the collector's per-channel metrics.
	Index int
}

// Live is a goroutine-driven FIFO channel that delivers packets after a
// configurable rate + skew delay. It is safe for one sender goroutine
// and one receiver goroutine.
type Live struct {
	cfg  LiveConfig
	in   chan *packet.Packet
	out  chan *packet.Packet
	stop chan struct{}
	once sync.Once

	mu    sync.Mutex
	stats Stats
}

// NewLive starts the channel's pump goroutine and returns the channel.
// Call Close to release it.
func NewLive(cfg LiveConfig) *Live {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	l := &Live{
		cfg:  cfg,
		in:   make(chan *packet.Packet, cfg.Buffer),
		out:  make(chan *packet.Packet, cfg.Buffer),
		stop: make(chan struct{}),
	}
	go l.pump()
	return l
}

// timedPacket is a packet with its computed delivery time.
type timedPacket struct {
	p       *packet.Packet
	release time.Time
}

// pump models the transmitter: it paces packets at the line rate,
// applies the loss processes, and stamps each survivor with its
// delivery time (serialization end + propagation + jitter, clamped to
// preserve FIFO). Delivery itself happens in deliverLoop so that the
// propagation delay pipelines instead of limiting throughput.
func (l *Live) pump() {
	mid := make(chan timedPacket, 4096)
	go l.deliverLoop(mid)
	defer close(mid)
	rng := rand.New(rand.NewSource(l.cfg.Impairments.Seed))
	q := &Queue{imp: l.cfg.Impairments, rng: rng, open: true} // reuse the loss models
	txFree := time.Now()
	var lastRelease time.Time
	for {
		select {
		case <-l.stop:
			return
		case p, ok := <-l.in:
			if !ok {
				return
			}
			now := time.Now()
			if txFree.Before(now) {
				txFree = now
			}
			if l.cfg.RateBps > 0 {
				ser := time.Duration(float64(p.Len()*8) / l.cfg.RateBps * float64(time.Second))
				txFree = txFree.Add(ser)
				// Pace the transmitter with a small burst allowance: OS
				// timers overshoot by hundreds of microseconds, so
				// sleeping per packet would throttle high packet rates.
				// Letting the budget run up to 5ms ahead keeps the
				// long-run rate exact while amortizing timer error.
				const burst = 5 * time.Millisecond
				if d := time.Until(txFree); d > burst {
					timer := time.NewTimer(d - burst)
					select {
					case <-timer.C:
					case <-l.stop:
						timer.Stop()
						return
					}
				}
			}
			l.cfg.Obs.SetChannelQueueDepth(l.cfg.Index, int64(len(l.in)))
			lost, corrupted := q.lose()
			if lost || corrupted {
				l.mu.Lock()
				if lost {
					l.stats.Lost++
				} else {
					l.stats.Corrupted++
				}
				l.mu.Unlock()
				l.cfg.Obs.OnChannelLost(l.cfg.Index)
				if p.Kind != packet.Data {
					p.Release() // the channel's own copy (see Send)
				}
				continue
			}
			release := txFree.Add(l.cfg.Delay)
			if l.cfg.Jitter > 0 {
				release = release.Add(time.Duration(rng.Int63n(int64(l.cfg.Jitter))))
			}
			if release.Before(lastRelease) {
				release = lastRelease // FIFO: never overtake
			}
			lastRelease = release
			select {
			case mid <- timedPacket{p: p, release: release}:
			case <-l.stop:
				return
			}
		}
	}
}

// deliverLoop releases packets at their delivery times. Release times
// are monotone, so waiting on the head is sufficient; after each wake
// every packet already due is delivered in one burst, so timer
// overshoot does not cap the delivery rate.
func (l *Live) deliverLoop(mid <-chan timedPacket) {
	defer close(l.out)
	for tp := range mid {
		if d := time.Until(tp.release); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-l.stop:
				timer.Stop()
				return
			}
		}
		for {
			// Read the length first: once sent, the packet belongs to
			// the consumer, which may release or reuse it.
			n := int64(tp.p.Len())
			select {
			case l.out <- tp.p:
				l.mu.Lock()
				l.stats.Delivered++
				l.stats.DeliveredBiB += n
				l.mu.Unlock()
			case <-l.stop:
				return
			}
			// Drain everything else already due.
			select {
			case next, ok := <-mid:
				if !ok {
					return
				}
				tp = next
				if d := time.Until(tp.release); d > 0 {
					// Not due yet: wait for it on the next outer pass.
					timer := time.NewTimer(d)
					select {
					case <-timer.C:
					case <-l.stop:
						timer.Stop()
						return
					}
				}
				continue
			default:
			}
			break
		}
	}
}

// Send implements Sender. It blocks when the transmit queue is full,
// which gives the examples natural backpressure. A control packet is
// queued as a pooled copy, since Send only borrows it.
func (l *Live) Send(p *packet.Packet) error {
	select {
	case <-l.stop:
		return ErrClosed
	default:
	}
	l.mu.Lock()
	l.stats.Sent++
	l.stats.SentBytes += int64(p.Len())
	l.mu.Unlock()
	select {
	case l.in <- p.Keep():
		return nil
	case <-l.stop:
		return ErrClosed
	}
}

// Recv implements Receiver without blocking.
func (l *Live) Recv() (*packet.Packet, bool) {
	select {
	case p, ok := <-l.out:
		return p, ok
	default:
		return nil, false
	}
}

// Out exposes the delivery stream for blocking consumption.
func (l *Live) Out() <-chan *packet.Packet { return l.out }

// Stats returns a copy of the counters.
func (l *Live) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close stops the pump. It is safe to call more than once.
func (l *Live) Close() {
	l.once.Do(func() { close(l.stop) })
}
