package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"stripe/internal/channel"
	"stripe/internal/core"
	"stripe/internal/obs"
	"stripe/internal/packet"
	"stripe/internal/sched"
	"stripe/internal/stats"
	"stripe/internal/trace"
)

// peerSkewLine is a FIFO channel with a fixed propagation delay on a
// shared virtual clock and optional *silent* data loss: Send always
// reports success, so the sender's local error accounting never moves.
// That is precisely the failure mode only the peer telemetry plane can
// see.
type peerSkewLine struct {
	now     *int64
	delayNs int64
	loss    float64
	rng     *rand.Rand
	q       []peerSkewArrival
	head    int
}

type peerSkewArrival struct {
	at int64
	p  *packet.Packet
}

func (l *peerSkewLine) Send(p *packet.Packet) error {
	if p.Kind == packet.Data && l.loss > 0 && l.rng.Float64() < l.loss {
		return nil // dropped without a trace: the sender sees success
	}
	l.q = append(l.q, peerSkewArrival{at: *l.now + l.delayNs, p: p.Keep()})
	return nil
}

// pop returns the next arrival due at or before now, nil when none.
func (l *peerSkewLine) pop(now int64) *packet.Packet {
	if l.head >= len(l.q) || l.q[l.head].at > now {
		return nil
	}
	p := l.q[l.head].p
	l.q[l.head].p = nil
	l.head++
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	return p
}

// peerSkewChannelOut is one channel's outcome from the peer-telemetry
// scenario.
type peerSkewChannelOut struct {
	delayNs   int64   // configured one-way propagation delay
	owdNs     int64   // PeerView's min-filtered one-way delay estimate
	relNs     int64   // estimate relative to the bundle's fastest channel
	lossFrac  float64 // peer-reported loss EWMA
	errStreak int64   // sender-local transport error streak
}

type peerSkewOut struct {
	channels  []peerSkewChannelOut
	skewNs    int64 // bundle skew from the peer snapshot
	reports   uint64
	delivered int
}

// runPeerSkewOne drives a striper over three delay lines with
// asymmetric propagation (and one silently lossy channel) on a virtual
// clock, feeding the receiver's telemetry blocks through the wire codec
// back into a sender-side PeerView — the deterministic version of what
// a Session does on its marker timer.
func runPeerSkewOne(cfg Config, iters int, delaysNs []int64, lossOn int, loss float64) peerSkewOut {
	const tickNs = 100_000 // 100µs of virtual time per data packet
	nch := len(delaysNs)
	var vnow int64
	clock := func() int64 { return vnow }

	lines := make([]*peerSkewLine, nch)
	senders := make([]channel.Sender, nch)
	for c := range lines {
		l := 0.0
		if c == lossOn {
			l = loss
		}
		lines[c] = &peerSkewLine{
			now: &vnow, delayNs: delaysNs[c], loss: l,
			rng: rand.New(rand.NewSource(cfg.Seed + int64(c)*101)),
		}
		senders[c] = lines[c]
	}
	quanta := sched.UniformQuanta(nch, 1500)
	st, err := core.NewStriper(core.StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: senders,
		Markers:  core.MarkerPolicy{Every: 8, Position: 0},
		Now:      clock,
	})
	if err != nil {
		panic(err)
	}
	rs, err := core.NewResequencer(core.ResequencerConfig{
		Sched: sched.MustSRR(quanta),
		Mode:  core.ModeLogical,
		Now:   clock,
	})
	if err != nil {
		panic(err)
	}
	pv := obs.NewPeerView(nch)

	sizes := trace.NewBimodal(200, 1000, 0.5, cfg.Seed+17)
	delivered := 0
	for i := 0; i < iters; i++ {
		vnow += tickNs
		if err := st.Send(packet.NewDataSized(sizes.Next())); err != nil {
			panic(err)
		}
		for c, l := range lines {
			for {
				p := l.pop(vnow)
				if p == nil {
					break
				}
				rs.Arrive(c, p)
			}
		}
		for {
			if _, ok := rs.Next(); !ok {
				break
			}
			delivered++
		}
		// Telemetry cadence: one report per 64 ticks, through the wire
		// codec (encode, decode, fold) exactly as a session would.
		if i%64 == 63 {
			t, err := packet.TelemetryOf(packet.NewTelemetry(rs.TelemetryBlock()))
			if err != nil {
				panic(err)
			}
			pv.Apply(t, vnow)
		}
	}

	out := peerSkewOut{channels: make([]peerSkewChannelOut, nch), delivered: delivered}
	snap := pv.Latest()
	if snap == nil {
		return out
	}
	out.skewNs = snap.SkewNs
	out.reports = snap.Seq
	for c := 0; c < nch; c++ {
		out.channels[c] = peerSkewChannelOut{
			delayNs:   delaysNs[c],
			owdNs:     snap.Channels[c].OneWayDelayNs,
			relNs:     snap.Channels[c].RelativeDelayNs,
			lossFrac:  snap.Channels[c].LossFrac,
			errStreak: st.ErrStreak(c),
		}
	}
	return out
}

// peerSkewSection renders the peer-telemetry scenario: asymmetric
// per-channel delays plus one silently lossy channel, with the
// sender-side PeerView's estimates against ground truth.
func peerSkewSection(cfg Config) (string, *stats.Table) {
	iters := 20000
	if cfg.Quick {
		iters = 4000
	}
	delays := []int64{2e6, 8e6, 20e6} // 2ms / 8ms / 20ms one-way
	const lossOn, loss = 1, 0.30
	o := runPeerSkewOne(cfg, iters, delays, lossOn, loss)

	var b strings.Builder
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "# Peer telemetry: 3 channels with 2/8/20 ms one-way delays; channel 1")
	fmt.Fprintln(&b, "# drops 30% of data *silently* (sends succeed, local error streak stays 0).")
	fmt.Fprintln(&b, "# The sender-side PeerView reports the receiver-measured loss and recovers")
	fmt.Fprintln(&b, "# the delay asymmetry from marker tx/rx pairs (min-filter).")
	fmt.Fprintln(&b, row("ch", "true delay (ms)", "est owd (ms)", "rel delay (ms)", "peer loss", "err streak"))
	var x, est, lf []float64
	for c, ch := range o.channels {
		fmt.Fprintln(&b, row(fmt.Sprintf("%d", c),
			fmt.Sprintf("%.1f", float64(ch.delayNs)/1e6),
			fmt.Sprintf("%.1f", float64(ch.owdNs)/1e6),
			fmt.Sprintf("%.1f", float64(ch.relNs)/1e6),
			fmt.Sprintf("%.1f%%", 100*ch.lossFrac),
			fmt.Sprintf("%d", ch.errStreak)))
		x = append(x, float64(c))
		est = append(est, float64(ch.owdNs)/1e6)
		lf = append(lf, ch.lossFrac)
	}
	fmt.Fprintf(&b, "# bundle skew estimate %.1f ms (true 18.0), %d reports, %d delivered\n",
		float64(o.skewNs)/1e6, o.reports, o.delivered)
	tb := &stats.Table{Title: "Peer telemetry", XLabel: "channel", YLabel: "est owd ms / peer loss", X: x}
	tb.AddColumn("est owd ms", est)
	tb.AddColumn("peer loss", lf)
	return b.String(), tb
}
