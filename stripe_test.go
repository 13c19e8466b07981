package stripe

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// startPumps wires each channel's output into the receiver.
func startPumps(chans []*LocalChannel, rx *Receiver) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i, ch := range chans {
		wg.Add(1)
		go func(i int, ch *LocalChannel) {
			defer wg.Done()
			for p := range ch.Out() {
				rx.Arrive(i, p)
			}
		}(i, ch)
	}
	return &wg
}

// TestEndToEndFIFO drives the public API over four skewed in-process
// channels and checks exact FIFO delivery.
func TestEndToEndFIFO(t *testing.T) {
	const nch = 4
	cfg := Config{Quanta: UniformQuanta(nch, 1500)}
	chans := make([]*LocalChannel, nch)
	senders := make([]ChannelSender, nch)
	for i := range chans {
		chans[i] = NewLocalChannel(LocalChannelConfig{
			Delay:  time.Duration(i) * 2 * time.Millisecond, // per-channel skew
			Jitter: time.Millisecond,
			Seed:   int64(i),
		})
		senders[i] = chans[i]
	}
	tx, err := NewSender(senders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(nch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pumps := startPumps(chans, rx)

	const n = 400
	go func() {
		for i := 0; i < n; i++ {
			// ~1 KB payloads so rounds (and marker batches) actually
			// elapse with 1500-byte quanta.
			payload := make([]byte, 1024)
			copy(payload, fmt.Sprintf("msg-%04d", i))
			if err := tx.SendBytes(payload); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < n; i++ {
		done := make(chan *Packet, 1)
		go func() { done <- rx.Recv() }()
		select {
		case p := <-done:
			if p == nil {
				t.Fatalf("receiver closed at packet %d", i)
			}
			if want := fmt.Sprintf("msg-%04d", i); string(p.Payload[:len(want)]) != want {
				t.Fatalf("packet %d = %q, want %q", i, p.Payload[:len(want)], want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for packet %d", i)
		}
	}
	for _, ch := range chans {
		ch.Close()
	}
	pumps.Wait()
	st := tx.Stats()
	if st.DataPackets != n || st.DataBytes == 0 {
		t.Fatalf("sender stats: %d packets, %d bytes", st.DataPackets, st.DataBytes)
	}
	if st.Markers == 0 {
		t.Fatal("default config sent no markers")
	}
}

// TestLossyChannelsQuasiFIFO checks the public API under loss: all
// surviving packets are delivered and the post-loss tail is in order.
func TestLossyChannelsQuasiFIFO(t *testing.T) {
	const nch = 2
	cfg := Config{
		Quanta:  UniformQuanta(nch, 1500),
		Markers: MarkerPolicy{Every: 2, Position: 0},
	}
	chans := make([]*LocalChannel, nch)
	senders := make([]ChannelSender, nch)
	for i := range chans {
		chans[i] = NewLocalChannel(LocalChannelConfig{Loss: 0.2, Seed: int64(i + 7)})
		senders[i] = chans[i]
	}
	tx, err := NewSender(senders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(nch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pumps := startPumps(chans, rx)

	const n = 2000
	for i := 0; i < n; i++ {
		if err := tx.SendBytes(make([]byte, 500)); err != nil {
			t.Fatal(err)
		}
	}
	// Give the pipeline a moment, then drain.
	deadline := time.Now().Add(5 * time.Second)
	var got []*Packet
	for time.Now().Before(deadline) {
		if p, ok := rx.TryRecv(); ok {
			got = append(got, p)
			continue
		}
		if rx.Buffered() == 0 && len(got) > n*6/10 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	got = append(got, rx.Drain()...)
	frac := float64(len(got)) / n
	if frac < 0.7 || frac > 0.95 {
		t.Fatalf("delivered fraction %.3f under 20%% loss", frac)
	}
	if st := rx.Stats(); st.Resyncs == 0 {
		t.Fatal("no marker resynchronizations under loss")
	}
	for _, ch := range chans {
		ch.Close()
	}
	pumps.Wait()
}

// TestSequenceModeOverUDP exercises the with-header variant over real
// loopback UDP channels.
func TestSequenceModeOverUDP(t *testing.T) {
	const nch = 2
	cfg := Config{
		Quanta: UniformQuanta(nch, 1500),
		Mode:   ModeSequence,
		AddSeq: true,
	}
	sendEnds := make([]ChannelSender, nch)
	recvEnds := make([]*UDPChannel, nch)
	for i := 0; i < nch; i++ {
		s, r, err := NewUDPChannelPair()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		defer r.Close()
		sendEnds[i] = s
		recvEnds[i] = r
	}
	tx, err := NewSender(sendEnds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(nch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rc := range recvEnds {
		rx.Attach(i, rc)
	}

	const n = 200
	for i := 0; i < n; i++ {
		if err := tx.SendBytes([]byte(fmt.Sprintf("udp-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		done := make(chan *Packet, 1)
		go func() { done <- rx.Recv() }()
		select {
		case p := <-done:
			if want := fmt.Sprintf("udp-%03d", i); string(p.Payload) != want {
				t.Fatalf("packet %d = %q, want %q", i, p.Payload, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at packet %d", i)
		}
	}
	rx.Close()
}

// TestTCPChannelsAggregate exercises striping across two real TCP
// connections.
func TestTCPChannelsAggregate(t *testing.T) {
	const nch = 2
	cfg := Config{Quanta: UniformQuanta(nch, 32*1024)}
	sendEnds := make([]ChannelSender, nch)
	recvEnds := make([]*TCPChannel, nch)
	for i := 0; i < nch; i++ {
		s, r, err := NewTCPChannelPair()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		defer r.Close()
		sendEnds[i] = s
		recvEnds[i] = r
	}
	tx, err := NewSender(sendEnds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(nch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i, rc := range recvEnds {
		rx.Attach(i, rc)
	}
	payload := make([]byte, 8*1024)
	go func() {
		for i := 0; i < n; i++ {
			payload[0] = byte(i)
			if err := tx.SendBytes(append([]byte(nil), payload...)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		p := rx.Recv()
		if p == nil {
			t.Fatalf("receiver closed early at %d", i)
		}
		if p.Payload[0] != byte(i) {
			t.Fatalf("packet %d out of order (tag %d)", i, p.Payload[0])
		}
	}
	rx.Close()
}

// TestConfigValidation covers public constructor errors.
func TestConfigValidation(t *testing.T) {
	if _, err := NewSender(nil, Config{Quanta: []int64{1}}); err == nil {
		t.Error("mismatched channels accepted")
	}
	if _, err := NewReceiver(3, Config{Quanta: []int64{1, 2}}); err == nil {
		t.Error("mismatched receiver accepted")
	}
	if _, err := NewSender(make([]ChannelSender, 2), Config{Quanta: []int64{0, 5}}); err == nil {
		t.Error("zero quantum accepted")
	}
}

// TestNoMarkersDisables checks the NoMarkers sentinel.
func TestNoMarkersDisables(t *testing.T) {
	chans := []*LocalChannel{NewLocalChannel(LocalChannelConfig{}), NewLocalChannel(LocalChannelConfig{})}
	defer chans[0].Close()
	defer chans[1].Close()
	tx, err := NewSender([]ChannelSender{chans[0], chans[1]}, Config{
		Quanta:  UniformQuanta(2, 1000),
		Markers: MarkerPolicy{Every: NoMarkers},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tx.SendBytes(make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if markers := tx.Stats().Markers; markers != 0 {
		t.Fatalf("NoMarkers config sent %d markers", markers)
	}
}

// TestSchemesEndToEnd drives each public striping scheme through the
// full pipeline and checks FIFO delivery plus the expected load split.
func TestSchemesEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		checks func(t *testing.T, bytes [2]int64)
	}{
		{
			name: "SRR",
			cfg:  Config{Quanta: []int64{3000, 1500}},
			checks: func(t *testing.T, bytes [2]int64) {
				ratio := float64(bytes[0]) / float64(bytes[1])
				if ratio < 1.8 || ratio > 2.2 {
					t.Fatalf("SRR byte ratio %.2f, want ~2", ratio)
				}
			},
		},
		{
			name: "GRR",
			cfg:  Config{Scheme: SchemeGRR, Quanta: []int64{2, 1}},
			checks: func(t *testing.T, bytes [2]int64) {
				if bytes[0] <= bytes[1] {
					t.Fatalf("GRR split %v not 2:1-ish by packets", bytes)
				}
			},
		},
		{
			name:   "RR",
			cfg:    Config{Scheme: SchemeRR, Quanta: []int64{1, 1}},
			checks: func(t *testing.T, bytes [2]int64) {},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chans := []*LocalChannel{
				NewLocalChannel(LocalChannelConfig{}),
				NewLocalChannel(LocalChannelConfig{}),
			}
			tx, err := NewSender([]ChannelSender{chans[0], chans[1]}, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rx, err := NewReceiver(2, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			pumps := startPumps(chans, rx)
			const n = 300
			go func() {
				for i := 0; i < n; i++ {
					payload := make([]byte, 500+(i%2)*500)
					payload[0] = byte(i)
					payload[1] = byte(i >> 8)
					if err := tx.SendBytes(payload); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			var bytes [2]int64
			for i := 0; i < n; i++ {
				p := rx.Recv()
				if p == nil {
					t.Fatalf("closed at %d", i)
				}
				if got := int(p.Payload[0]) | int(p.Payload[1])<<8; got != i {
					t.Fatalf("packet %d arrived as %d (scheme %s broke FIFO)", i, got, tc.name)
				}
			}
			for c, ch := range chans {
				st := ch.live.Stats()
				bytes[c] = st.SentBytes
				ch.Close()
			}
			pumps.Wait()
			tc.checks(t, bytes)
		})
	}
}

// TestSentOnObservesFairness drives the public fairness observability:
// per-channel byte counters stay within the Theorem 3.2 bound of the
// proportional split.
func TestSentOnObservesFairness(t *testing.T) {
	chans := []*LocalChannel{NewLocalChannel(LocalChannelConfig{}), NewLocalChannel(LocalChannelConfig{})}
	defer chans[0].Close()
	defer chans[1].Close()
	quanta := []int64{3000, 1000}
	tx, err := NewSender([]ChannelSender{chans[0], chans[1]}, Config{Quanta: quanta})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 4000; i++ {
		n := 100 + (i*271)%900
		total += int64(n)
		if err := tx.SendBytes(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	_, b0 := tx.SentOn(0)
	_, b1 := tx.SentOn(1)
	if b0+b1 != total {
		t.Fatalf("per-channel bytes %d+%d != total %d", b0, b1, total)
	}
	ratio := float64(b0) / float64(b1)
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("byte ratio %.3f, want ~3 for 3:1 quanta", ratio)
	}
}

// TestPublicSurface exercises the remaining public methods: sender
// reset, receiver close semantics, non-blocking channel reads, session
// manual markers and credit introspection, and wrapping a raw net.Conn.
func TestPublicSurface(t *testing.T) {
	// Sender.Reset + Receiver recovery through the public API.
	chans := []*LocalChannel{NewLocalChannel(LocalChannelConfig{}), NewLocalChannel(LocalChannelConfig{})}
	cfg := Config{Quanta: UniformQuanta(2, 1000)}
	tx, err := NewSender([]ChannelSender{chans[0], chans[1]}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pumps := startPumps(chans, rx)
	pre := make([]byte, 1000)
	pre[0] = 0xEE
	tx.SendBytes(pre) // in flight when the reset is cut; delivered first
	if err := tx.Reset(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		payload := make([]byte, 1000)
		payload[0] = byte(i)
		tx.SendBytes(payload)
	}
	if p := rx.Recv(); p == nil || p.Payload[0] != 0xEE {
		t.Fatalf("pre-reset packet = %v", p)
	}
	for i := 0; i < 4; i++ {
		p := rx.Recv()
		if p == nil || int(p.Payload[0]) != i {
			t.Fatalf("post-reset packet %d = %v", i, p)
		}
	}
	// Close unblocks a pending Recv with nil.
	done := make(chan *Packet, 1)
	go func() { done <- rx.Recv() }()
	time.Sleep(20 * time.Millisecond)
	rx.Close()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("Recv after close = %v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock Recv")
	}
	for _, ch := range chans {
		ch.Close()
	}
	pumps.Wait()

	// LocalChannel.Recv non-blocking path.
	lc := NewLocalChannel(LocalChannelConfig{})
	if _, ok := lc.Recv(); ok {
		t.Fatal("Recv on idle channel returned a packet")
	}
	lc.Send(Data([]byte("x")))
	deadline := time.Now().Add(time.Second)
	for {
		if p, ok := lc.Recv(); ok {
			if string(p.Payload) != "x" {
				t.Fatalf("payload %q", p.Payload)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("packet never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	lc.Close()

	// NewTCPChannel wraps an arbitrary net.Conn.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTCPChannel(dial)
	defer tc.Close()
	rcConn := <-accepted
	rc := NewTCPChannel(rcConn)
	defer rc.Close()
	if err := tc.Send(Data([]byte("over-a-raw-conn"))); err != nil {
		t.Fatal(err)
	}
	p, err := rc.ReadPacket(2 * time.Second)
	if err != nil || p == nil || string(p.Payload) != "over-a-raw-conn" {
		t.Fatalf("ReadPacket = %v %v", p, err)
	}
}

// TestSessionManualMarkersAndCredits covers EmitMarkers, TryRecv and
// CreditRemaining on the session surface.
func TestSessionManualMarkersAndCredits(t *testing.T) {
	cfg := SessionConfig{
		Config:         Config{Quanta: UniformQuanta(2, 1500), Markers: MarkerPolicy{Every: 2, Position: 0}},
		CreditWindow:   4096,
		MarkerInterval: -1, // manual only
	}
	a, b, cleanup := wireSessions(t, 2, cfg)
	defer cleanup()

	if a.CreditRemaining(0) != 4096 {
		t.Fatalf("initial credit %d", a.CreditRemaining(0))
	}
	if err := a.SendBytes(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if got := a.CreditRemaining(0) + a.CreditRemaining(1); got != 2*4096-1000 {
		t.Fatalf("credit after send = %d", got)
	}
	// Manual marker batch from b carries grants; wait for the data and
	// then for a's credit to refresh after b consumes it.
	deadline := time.Now().Add(3 * time.Second)
	var got *Packet
	for time.Now().Before(deadline) && got == nil {
		if p, ok := b.TryRecv(); ok {
			got = p
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got == nil || got.Len() != 1000 {
		t.Fatalf("b never received the packet: %v", got)
	}
	b.EmitMarkers()
	for time.Now().Before(deadline) {
		if a.CreditRemaining(0)+a.CreditRemaining(1) == 2*4096 {
			return // grant refreshed via the manual marker
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("credits never refreshed; remaining %d+%d",
		a.CreditRemaining(0), a.CreditRemaining(1))
}
