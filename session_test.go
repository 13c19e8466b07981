package stripe

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// wireSessions connects two sessions back-to-back over in-process
// channels (a.tx -> b.rx and b.tx -> a.rx) and returns them plus a
// cleanup function.
func wireSessions(t *testing.T, nch int, cfg SessionConfig) (a, b *Session, cleanup func()) {
	t.Helper()
	mkChans := func() ([]*LocalChannel, []ChannelSender) {
		chans := make([]*LocalChannel, nch)
		senders := make([]ChannelSender, nch)
		for i := range chans {
			chans[i] = NewLocalChannel(LocalChannelConfig{Delay: time.Millisecond, Seed: int64(i)})
			senders[i] = chans[i]
		}
		return chans, senders
	}
	abChans, abSenders := mkChans()
	baChans, baSenders := mkChans()

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

// TestSessionDuplexFIFO checks both directions deliver FIFO
// concurrently.
func TestSessionDuplexFIFO(t *testing.T) {
	cfg := SessionConfig{Config: Config{Quanta: UniformQuanta(2, 1500)}}
	a, b, cleanup := wireSessions(t, 2, cfg)
	defer cleanup()

	const n = 150
	var wg sync.WaitGroup
	sendAll := func(s *Session, tag string) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			payload := make([]byte, 700)
			copy(payload, fmt.Sprintf("%s-%04d", tag, i))
			if err := s.SendBytes(payload); err != nil {
				t.Error(err)
				return
			}
		}
	}
	recvAll := func(s *Session, tag string) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			p := s.Recv()
			if p == nil {
				t.Errorf("%s: closed at %d", tag, i)
				return
			}
			want := fmt.Sprintf("%s-%04d", tag, i)
			if string(p.Payload[:len(want)]) != want {
				t.Errorf("%s: packet %d = %q", tag, i, p.Payload[:len(want)])
				return
			}
		}
	}
	wg.Add(4)
	go sendAll(a, "ab")
	go recvAll(b, "ab")
	go sendAll(b, "ba")
	go recvAll(a, "ba")
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("duplex transfer timed out")
	}
}

// TestSessionCreditsGateAndRefresh checks flow control end to end: a
// fast sender with a slow consumer is gated, credits piggybacked on the
// peer's markers un-gate it, and everything is eventually delivered in
// order.
func TestSessionCreditsGateAndRefresh(t *testing.T) {
	cfg := SessionConfig{
		Config:         Config{Quanta: UniformQuanta(2, 1500), Markers: MarkerPolicy{Every: 2, Position: 0}},
		CreditWindow:   8 * 1024,
		MarkerInterval: 5 * time.Millisecond,
	}
	a, b, cleanup := wireSessions(t, 2, cfg)
	defer cleanup()

	const n = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			payload := make([]byte, 1000)
			payload[0] = byte(i)
			payload[1] = byte(i >> 8)
			if err := a.SendBytes(payload); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Slow consumer: the 200 kB stream cannot fit the 2x8 kB windows,
	// so the sender must be gated and then refreshed by credits.
	for i := 0; i < n; i++ {
		time.Sleep(200 * time.Microsecond)
		p := b.Recv()
		if p == nil {
			t.Fatalf("closed at %d", i)
		}
		if got := int(p.Payload[0]) | int(p.Payload[1])<<8; got != i {
			t.Fatalf("packet %d arrived as %d", i, got)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sender never finished; credits failed to refresh")
	}
	if b.Stats().Markers == 0 {
		t.Fatal("no markers consumed")
	}
}

// TestSessionCreditWindowBoundsInFlight checks the invariant: bytes in
// flight plus buffered never exceed the window per channel.
func TestSessionCreditWindowBoundsInFlight(t *testing.T) {
	const window = 4 * 1024
	cfg := SessionConfig{
		Config:         Config{Quanta: UniformQuanta(2, 1500), Markers: MarkerPolicy{Every: 2, Position: 0}},
		CreditWindow:   window,
		MarkerInterval: -1, // manual markers only
	}
	a, _, cleanup := wireSessions(t, 2, cfg)
	defer cleanup()

	// With no Recv on the peer and no marker credits flowing back, the
	// sender can emit at most 2*window bytes before gating blocks it.
	sent := make(chan int)
	go func() {
		count := 0
		for {
			if err := a.SendBytes(make([]byte, 1024)); err != nil {
				break
			}
			count++
			select {
			case sent <- count:
			default:
			}
		}
	}()
	deadline := time.After(2 * time.Second)
	maxSent := 0
drain:
	for {
		select {
		case c := <-sent:
			maxSent = c
		case <-deadline:
			break drain
		}
	}
	if maxSent > 2*window/1024 {
		t.Fatalf("sender emitted %d kB against a %d kB total window", maxSent, 2*window/1024)
	}
	if maxSent == 0 {
		t.Fatal("nothing was sent")
	}
}

// TestSessionCloseUnblocks checks Close releases blocked Send and Recv.
func TestSessionCloseUnblocks(t *testing.T) {
	cfg := SessionConfig{
		Config:       Config{Quanta: UniformQuanta(2, 1500)},
		CreditWindow: 512, // tiny: Send will gate quickly
	}
	a, _, cleanup := wireSessions(t, 2, cfg)

	errs := make(chan error, 1)
	go func() {
		for {
			if err := a.SendBytes(make([]byte, 400)); err != nil {
				errs <- err
				return
			}
		}
	}()
	recvDone := make(chan *Packet, 1)
	go func() { recvDone <- a.Recv() }()

	time.Sleep(50 * time.Millisecond)
	cleanup() // closes both sessions

	select {
	case err := <-errs:
		if err != ErrSessionClosed {
			t.Fatalf("Send returned %v, want ErrSessionClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send never unblocked after Close")
	}
	select {
	case p := <-recvDone:
		if p != nil {
			t.Fatalf("Recv returned %v after close", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv never unblocked after Close")
	}
}

// TestSessionValidation covers constructor errors.
func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(make([]ChannelSender, 2), SessionConfig{
		Config: Config{Quanta: []int64{100}},
	}); err == nil {
		t.Error("mismatched quanta accepted")
	}
}

// discardChannel accepts every packet and drops it.
type discardChannel struct{}

func (discardChannel) Send(*Packet) error { return nil }

// TestSessionSendBatchZeroAlloc pins the session transmit loop's steady
// state: a SendBatch that every channel accepts allocates nothing, so
// the per-call cost is the striper's alone.
func TestSessionSendBatchZeroAlloc(t *testing.T) {
	cfg := SessionConfig{
		Config:         Config{Quanta: UniformQuanta(2, 1500), Markers: MarkerPolicy{Every: NoMarkers}},
		MarkerInterval: -1,
	}
	s, err := NewSession([]ChannelSender{discardChannel{}, discardChannel{}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pkts := make([]*Packet, 4)
	for i := range pkts {
		pkts[i] = Data(make([]byte, 100+300*i))
	}
	send := func() {
		if n, err := s.SendBatch(pkts); err != nil || n != len(pkts) {
			t.Fatalf("SendBatch = (%d, %v)", n, err)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("SendBatch allocates %.1f times per call, want 0", allocs)
	}
}

// TestSessionSocketSteadyStateZeroAlloc pins the allocation-free socket
// path with the default control plane on: a Session pair over loopback
// TCP or UDP with markers every 4 rounds plus the 50 ms marker timer,
// which also reports telemetry each tick. A steady-state cycle —
// SendBatch a batch of pooled packets, release them, RecvBatch the
// batch at the far end and release it — allocates nothing. A marker is
// cut about every dozen packets here, so control packets that turned
// into garbage once serialized would cost several allocations a cycle.
func TestSessionSocketSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("packets cycle through sync.Pool, which drops Puts under -race")
	}
	type link struct {
		aTx, bTx ChannelSender
		aRx, bRx PacketReader
	}
	for _, tc := range []struct {
		name  string
		batch int
		link  func(t *testing.T) link
	}{
		{"tcp", 64, func(t *testing.T) link {
			ca, cb, err := NewTCPChannelPair()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ca.Close(); cb.Close() })
			return link{ca, cb, ca, cb}
		}},
		// Datagrams carry no flow control, so UDP cycles stay well inside
		// the socket receive buffer.
		{"udp", 16, func(t *testing.T) link {
			ab, abRx, err := NewUDPChannelPair()
			if err != nil {
				t.Fatal(err)
			}
			ba, baRx, err := NewUDPChannelPair()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ab.Close(); abRx.Close(); ba.Close(); baRx.Close() })
			return link{ab, ba, baRx, abRx}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nch = 2
			aTx, bTx := make([]ChannelSender, nch), make([]ChannelSender, nch)
			aRx, bRx := make([]PacketReader, nch), make([]PacketReader, nch)
			for i := 0; i < nch; i++ {
				l := tc.link(t)
				aTx[i], bTx[i], aRx[i], bRx[i] = l.aTx, l.bTx, l.aRx, l.bRx
			}
			cfg := SessionConfig{Config: Config{Quanta: UniformQuanta(nch, 1500)}}
			a, err := NewSession(aTx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := NewSession(bTx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			for i := 0; i < nch; i++ {
				a.Attach(i, aRx[i])
				b.Attach(i, bRx[i])
			}
			// A lost datagram would block RecvBatch for good; closing the
			// sessions turns that into a failure instead of a hang.
			watchdog := time.AfterFunc(time.Minute, func() { a.Close(); b.Close() })
			defer watchdog.Stop()

			pkts := make([]*Packet, tc.batch)
			dst := make([]*Packet, tc.batch)
			cycle := func() {
				for i := range pkts {
					pkts[i] = GetPacketSized(1000)
				}
				if n, err := a.SendBatch(pkts); err != nil || n != len(pkts) {
					t.Fatalf("SendBatch = (%d, %v)", n, err)
				}
				for _, p := range pkts {
					p.Release()
				}
				for got := 0; got < len(pkts); {
					k := b.RecvBatch(dst[:len(pkts)-got])
					if k == 0 {
						t.Fatalf("receiver closed after %d of %d packets", got, len(pkts))
					}
					for _, p := range dst[:k] {
						p.Release()
					}
					got += k
				}
			}
			// Warm up across several marker-timer ticks, so telemetry has
			// flowed both ways and every buffer has reached its size.
			for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
				cycle()
			}
			markers := a.SendStats().Markers
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Fatalf("steady-state SendBatch/RecvBatch cycle allocates %.1f times, want 0", allocs)
			}
			if a.SendStats().Markers == markers {
				t.Fatal("no markers were sent while measuring")
			}
			if b.Stats().Telemetry == 0 || a.Stats().Telemetry == 0 {
				t.Fatal("no telemetry arrived")
			}
		})
	}
}
