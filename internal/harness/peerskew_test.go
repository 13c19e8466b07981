package harness

import (
	"testing"

	"stripe/internal/packet"
)

// TestPeerSkewTelemetry pins the acceptance criteria of the peer
// telemetry plane on the deterministic virtual-clock scenario: the
// sender-side PeerView reports the receiver's loss on the silently
// lossy channel while the local error streak stays zero, and the
// min-filtered one-way delay estimates order the channels exactly as
// the configured asymmetric delays do.
func TestPeerSkewTelemetry(t *testing.T) {
	delays := []int64{2e6, 8e6, 20e6}
	o := runPeerSkewOne(Config{Seed: 1, Quick: true}, 4000, delays, 1, 0.30)

	if len(o.channels) != 3 || o.reports == 0 {
		t.Fatalf("scenario produced no telemetry: %+v", o)
	}
	for c, ch := range o.channels {
		if ch.errStreak != 0 {
			t.Errorf("channel %d: local error streak %d, want 0 (the loss is silent)", c, ch.errStreak)
		}
	}
	if o.channels[1].lossFrac < 0.15 {
		t.Errorf("peer loss on the lossy channel = %.3f, want > 0.15", o.channels[1].lossFrac)
	}
	if o.channels[0].lossFrac > 0.05 || o.channels[2].lossFrac > 0.05 {
		t.Errorf("peer loss leaked onto clean channels: %.3f / %.3f",
			o.channels[0].lossFrac, o.channels[2].lossFrac)
	}
	// The min-filter must order the channels as the true delays do, and
	// land close to them (the virtual clock has no queueing noise, so
	// the estimate is within one tick of exact).
	if !(o.channels[0].owdNs < o.channels[1].owdNs && o.channels[1].owdNs < o.channels[2].owdNs) {
		t.Errorf("one-way delay estimates misordered: %d %d %d",
			o.channels[0].owdNs, o.channels[1].owdNs, o.channels[2].owdNs)
	}
	for c, ch := range o.channels {
		if diff := ch.owdNs - ch.delayNs; diff < 0 || diff > 1e6 {
			t.Errorf("channel %d: estimate %d ns vs true %d ns", c, ch.owdNs, ch.delayNs)
		}
	}
	if o.skewNs < 17e6 || o.skewNs > 19e6 {
		t.Errorf("bundle skew estimate %d ns, want ~18ms", o.skewNs)
	}
	if o.delivered == 0 {
		t.Error("scenario delivered nothing")
	}
}

// TestPeerSkewLineKeepsControlCopy pins the control-packet ownership
// rule for the delay line: Send only borrows a control packet, which
// the striper releases once Send returns, so the queued arrival must be
// the line's own copy.
func TestPeerSkewLineKeepsControlCopy(t *testing.T) {
	var now int64
	l := &peerSkewLine{now: &now, delayNs: 10}
	want := packet.MarkerBlock{Channel: 0, Round: 3, Deficit: 12, Sent: 900, TxNs: 5}
	p := packet.NewMarker(want)
	if err := l.Send(p); err != nil {
		t.Fatal(err)
	}
	p.Release()
	for i := 0; i < 8; i++ { // reuse whatever the pool hands out
		q := packet.Get()
		q.Resize(packet.MarkerWireLen)
		for j := range q.Payload {
			q.Payload[j] = 0xA5
		}
	}
	got := l.pop(10)
	if got == nil {
		t.Fatal("marker not delivered")
	}
	if m, err := packet.MarkerOf(got); err != nil || m != want {
		t.Fatalf("delivered marker = %+v, %v; want %+v: the line kept the striper's released packet", m, err, want)
	}
}
