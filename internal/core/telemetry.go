package core

import (
	"time"

	"stripe/internal/packet"
)

// nowNs is the default clock for marker tx stamps and telemetry
// receive stamps: the process wall clock in nanoseconds. Both ends of
// a one-way delay sample read different hosts' clocks, so raw samples
// embed the inter-host offset; the offset is common to every channel,
// which is why PeerView only interprets cross-channel differences.
func nowNs() int64 { return time.Now().UnixNano() }

// harvestMarker records the telemetry-plane observables carried by a
// physical marker arrival on channel c: the (sender tx, receiver rx)
// timestamp pair that is one one-way delay sample, and the exact
// cumulative loss implied by the marker's authoritative Sent position
// (channels are FIFO, so every byte Sent counts has either arrived —
// arrivedOn counted it — or is lost). It runs at arrival rather than
// consumption because arrival time is the delay sample's semantics and
// a marker buffered behind data must still update the loss view
// promptly; the consume paths keep all counter and error accounting.
//
//stripe:allowescape marker-cadence only, and the decode's magic-string check is compiler-elided; the valid-marker path is allocation-free
func (r *Resequencer) harvestMarker(c int, p *packet.Packet) {
	m, err := packet.DecodeMarker(p.Payload)
	if err != nil || int(m.Channel) != c {
		return // the consume path counts and reports the corruption
	}
	if m.TxNs != 0 {
		r.markerTxNs[c] = m.TxNs
		r.markerRxNs[c] = r.now()
	}
	if lost := int64(m.Sent) - r.arrivedOn[c]; lost > r.peerLost[c] {
		r.peerLost[c] = lost
	}
}

// consumeTelemetry hands an arriving telemetry block to the configured
// observer. Telemetry is advisory: a corrupt block is dropped, and
// without an observer the block is counted and discarded.
//
//stripe:allowescape control-cadence only (one block per peer marker interval), and decoding a telemetry block allocates its channel slice
func (r *Resequencer) consumeTelemetry(p *packet.Packet) {
	t, err := packet.TelemetryOf(p)
	if err != nil {
		r.stats.BadTelemetry++
		return
	}
	r.stats.Telemetry++
	if r.onTelemetry != nil {
		r.onTelemetry(t)
	}
}

// TelemetryBlock assembles the receiver's current view of the bundle
// for reporting back to the sender: cumulative per-channel delivery,
// loss, and resync counts, resequencer occupancy against its cap, and
// the latest marker timestamp pair per channel. Each call advances the
// report sequence number; all content is cumulative, so losing a
// report costs nothing but staleness.
//
// The block's Channels slice is the resequencer's own and is
// overwritten by the next call: encode or copy the report before
// cutting another.
//
//stripe:hotpath
func (r *Resequencer) TelemetryBlock() packet.TelemetryBlock {
	r.telemetrySeq++
	t := packet.TelemetryBlock{
		Seq:         r.telemetrySeq,
		AtNs:        r.now(),
		Buffered:    int64(r.Buffered()),
		MaxBuffered: int64(r.maxBuffered),
		Channels:    r.telemetryBuf,
	}
	for c := 0; c < r.n; c++ {
		t.Channels[c] = packet.TelemetryChannel{
			Delivered:  r.deliveredOn[c],
			Lost:       r.peerLost[c],
			Resyncs:    r.resyncsOn[c],
			MarkerTxNs: r.markerTxNs[c],
			MarkerRxNs: r.markerRxNs[c],
		}
	}
	return t
}

// SendTelemetry transmits a telemetry block to the peer on one active
// channel, rotating the choice across calls so a single dead channel
// delays the peer's view by at most a marker interval times the
// channel count rather than silencing it. Telemetry is control
// traffic: like markers it bypasses the scheduler and the flow-control
// gate, and like probes a transport error feeds the channel's error
// streak. Reports are cumulative and sequenced, so a lost one is
// simply superseded by the next. The report is encoded into a pooled
// packet that is released once the channel's Send returns.
//
//stripe:hotpath
func (st *Striper) SendTelemetry(t packet.TelemetryBlock) error {
	n := len(st.out)
	if st.activeN == 0 || n == 0 {
		return ErrNoActiveChannels
	}
	for i := 0; i < n; i++ {
		c := st.telemetryChan % n
		st.telemetryChan = (c + 1) % n
		if !st.active[c] {
			continue
		}
		err := st.sendControl(c, packet.NewTelemetry(t))
		if err != nil {
			st.errStreak[c]++
		} else {
			st.errStreak[c] = 0
		}
		return err
	}
	return ErrNoActiveChannels
}
