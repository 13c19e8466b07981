package stripe

import (
	"sync"
	"testing"
	"time"

	"stripe/internal/packet"
)

// wirePeerLossSessions connects two sessions back-to-back like
// wireSessions, but with a per-channel silent-loss probability on the
// a→b direction. The b→a direction (which carries b's telemetry
// reports) stays clean.
func wirePeerLossSessions(t *testing.T, nch int, loss []float64, cfg SessionConfig) (a, b *Session, cleanup func()) {
	t.Helper()
	mkChans := func(loss []float64) ([]*LocalChannel, []ChannelSender) {
		chans := make([]*LocalChannel, nch)
		senders := make([]ChannelSender, nch)
		for i := range chans {
			l := 0.0
			if loss != nil {
				l = loss[i]
			}
			chans[i] = NewLocalChannel(LocalChannelConfig{Loss: l, Seed: int64(i + 1)})
			senders[i] = chans[i]
		}
		return chans, senders
	}
	abChans, abSenders := mkChans(loss)
	baChans, baSenders := mkChans(nil)

	a, err := NewSession(abSenders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewSession(baSenders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range abChans {
		b.Attach(i, abChans[i])
		a.Attach(i, baChans[i])
	}
	cleanup = func() {
		a.Close()
		b.Close()
		for _, ch := range abChans {
			ch.Close()
		}
		for _, ch := range baChans {
			ch.Close()
		}
	}
	return a, b, cleanup
}

// TestSessionIgnoresUnknownKinds pins the forward-compatibility
// contract: a session handed control packets with codepoints it does
// not understand drops them — counted, but with no desync, no
// delivery-counter pollution, and FIFO data flow undisturbed.
func TestSessionIgnoresUnknownKinds(t *testing.T) {
	cfg := SessionConfig{Config: Config{Quanta: UniformQuanta(2, 1500)}}
	a, b, cleanup := wireSessions(t, 2, cfg)
	defer cleanup()

	// Future control kinds, injected between data packets.
	for i := 0; i < 3; i++ {
		a.Arrive(i%2, &Packet{Kind: KindTelemetry + 1 + packet.Kind(i), Payload: []byte("from-the-future")})
	}

	const n = 40
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := b.SendBytes([]byte{byte(i), 1, 2, 3}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		p := a.Recv()
		if p == nil {
			t.Fatalf("session closed at packet %d", i)
		}
		if p.Payload[0] != byte(i) {
			t.Fatalf("packet %d arrived out of order: got %d", i, p.Payload[0])
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st := a.Stats()
	if st.UnknownKinds != 3 {
		t.Errorf("UnknownKinds = %d, want 3", st.UnknownKinds)
	}
	if st.Delivered != n {
		t.Errorf("Delivered = %d, want %d (unknown kinds must not count as data)", st.Delivered, n)
	}
	if st.Resyncs != 0 || st.BadMarkers != 0 {
		t.Errorf("unknown kinds perturbed protocol state: resyncs=%d badMarkers=%d", st.Resyncs, st.BadMarkers)
	}

	// A corrupt telemetry block is likewise dropped and counted.
	a.Arrive(0, &Packet{Kind: KindTelemetry, Payload: []byte("not a telemetry block")})
	if st := a.Stats(); st.BadTelemetry != 1 {
		t.Errorf("BadTelemetry = %d, want 1", st.BadTelemetry)
	}
}

// TestSessionPeerTelemetryReportsSilentLoss checks the tentpole claim
// end to end over in-process channels: a channel that accepts every
// send but silently drops a third of them never trips the sender's
// local error accounting, yet the peer's telemetry reports the loss
// and the sender-side PeerView surfaces it.
func TestSessionPeerTelemetryReportsSilentLoss(t *testing.T) {
	cfg := SessionConfig{
		Config:         Config{Quanta: UniformQuanta(2, 1500), Markers: MarkerPolicy{Every: 4, Position: 0}},
		MarkerInterval: 2 * time.Millisecond,
	}
	a, b, cleanup := wirePeerLossSessions(t, 2, []float64{0, 0.35}, cfg)

	// Keep data flowing so markers carry meaningful Sent positions; b
	// drains whatever survives the lossy channel. Closing the sessions
	// first (cleanup) is what unblocks the workers.
	stop := make(chan struct{})
	var workers sync.WaitGroup
	workers.Add(1)
	go func() {
		defer workers.Done()
		for b.Recv() != nil {
		}
	}()
	workers.Add(1)
	go func() {
		defer workers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if a.SendBytes(make([]byte, 600)) != nil {
				return
			}
		}
	}()
	defer func() { cleanup(); close(stop); workers.Wait() }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap := a.PeerView().Latest(); snap != nil && len(snap.Channels) == 2 &&
			snap.Channels[1].LossFrac > 0.1 && snap.Channels[0].LossFrac < snap.Channels[1].LossFrac {
			if snap.Channels[1].Score >= 100 {
				t.Errorf("lossy channel peer score = %d, want < 100", snap.Channels[1].Score)
			}
			return
		}
		if time.Now().After(deadline) {
			snap := a.PeerView().Latest()
			t.Fatalf("peer view never reported the silent loss: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionPeerScoreEviction checks HealthConfig.PeerScoreEvictBelow:
// peer-reported silent loss alone — no local transport errors at all —
// evicts the lossy channel.
func TestSessionPeerScoreEviction(t *testing.T) {
	cfg := SessionConfig{
		Config:         Config{Quanta: UniformQuanta(2, 1500), Markers: MarkerPolicy{Every: 4, Position: 0}},
		MarkerInterval: 2 * time.Millisecond,
		// ReinstateAfter is off: probes *succeed* on a silently-lossy
		// transport (that is what makes the loss silent), so automatic
		// reinstatement would legitimately re-admit the channel and the
		// peer score would evict it again — flapping the test must not
		// depend on.
		Health: HealthConfig{PeerScoreEvictBelow: 90, ReinstateAfter: -1},
	}
	a, b, cleanup := wirePeerLossSessions(t, 2, []float64{0, 0.5}, cfg)

	stop := make(chan struct{})
	var workers sync.WaitGroup
	workers.Add(2)
	go func() {
		defer workers.Done()
		for b.Recv() != nil {
		}
	}()
	go func() {
		defer workers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if a.SendBytes(make([]byte, 600)) != nil {
				return
			}
		}
	}()
	defer func() { cleanup(); close(stop); workers.Wait() }()

	deadline := time.Now().Add(5 * time.Second)
	for a.ActiveChannels() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("peer-score eviction never fired: active=%d peer=%+v",
				a.ActiveChannels(), a.PeerView().Latest())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tx, _ := a.ChannelState(1); tx != MemberRemoved {
		t.Errorf("lossy channel tx state = %v, want removed", tx)
	}
	if tx, _ := a.ChannelState(0); tx != MemberActive {
		t.Errorf("clean channel tx state = %v, want active", tx)
	}
}
