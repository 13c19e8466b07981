package stripe

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settledGoroutines polls until the goroutine count falls to at most
// want, returning the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestAttachPumpsEachTransport drives one packet through a Receiver's
// read pump over every transport that implements PacketReader, then
// checks that Close leaves no pump goroutine behind.
func TestAttachPumpsEachTransport(t *testing.T) {
	cases := map[string]func(t *testing.T) (ChannelSender, PacketReader, func()){
		"tcp": func(t *testing.T) (ChannelSender, PacketReader, func()) {
			s, r, err := NewTCPChannelPair()
			if err != nil {
				t.Fatal(err)
			}
			return s, r, func() { s.Close(); r.Close() }
		},
		"udp": func(t *testing.T) (ChannelSender, PacketReader, func()) {
			s, r, err := NewUDPChannelPair()
			if err != nil {
				t.Fatal(err)
			}
			return s, r, func() { s.Close(); r.Close() }
		},
		"local": func(t *testing.T) (ChannelSender, PacketReader, func()) {
			ch := NewLocalChannel(LocalChannelConfig{})
			return ch, ch, ch.Close
		},
	}
	for name, open := range cases {
		t.Run(name, func(t *testing.T) {
			tx, src, closeChannel := open(t)
			defer closeChannel()
			cfg := Config{Quanta: UniformQuanta(1, 1500)}
			snd, err := NewSender([]ChannelSender{tx}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rx, err := NewReceiver(1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rx.Attach(0, src)
			if err := snd.SendBytes([]byte("pumped")); err != nil {
				t.Fatal(err)
			}
			guard := time.AfterFunc(5*time.Second, rx.Close)
			p := rx.Recv()
			guard.Stop()
			if p == nil || string(p.Payload) != "pumped" {
				t.Fatalf("Recv = %v, want the pumped packet", p)
			}
			withPump := runtime.NumGoroutine()
			rx.Close()
			if n := settledGoroutines(withPump - 1); n > withPump-1 {
				t.Fatalf("%d goroutines after Close, want at most %d: the pump outlived Close", n, withPump-1)
			}
			closed := runtime.NumGoroutine()
			rx.Attach(0, src) // after Close: starts nothing
			if n := runtime.NumGoroutine(); n > closed {
				t.Fatalf("Attach after Close started a pump (%d goroutines, want %d)", n, closed)
			}
		})
	}
}

// failingReader returns a read error on every call and counts calls.
type failingReader struct{ calls atomic.Int64 }

func (f *failingReader) ReadPacket(time.Duration) (*Packet, error) {
	f.calls.Add(1)
	return nil, errors.New("transport closed")
}

// TestAttachEndsOnReadError checks that a transport read error ends the
// pump rather than spinning on the dead source, and that a closed
// transport ends it before the Receiver is closed.
func TestAttachEndsOnReadError(t *testing.T) {
	rx, err := NewReceiver(2, Config{Quanta: UniformQuanta(2, 1500)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	base := runtime.NumGoroutine()

	var f failingReader
	rx.Attach(0, &f)
	s, r, err := NewTCPChannelPair()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rx.Attach(1, r)
	r.Close()

	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines with both sources failed, want at most %d: a pump survived its read error", n, base)
	}
	time.Sleep(3 * pumpPoll)
	if c := f.calls.Load(); c != 1 {
		t.Fatalf("failing source read %d times, want 1: the pump spun on the error", c)
	}
}

// TestAttachSkipsUndecodableFrames writes garbage datagrams (too short,
// unknown codepoint, reserved flags) to every UDP receive socket in the
// middle of a sequence-mode transfer. Each must be dropped and counted
// while its pump reads on: a pump that ended on a frame reject would
// leave its channel deaf and the transfer wedged.
func TestAttachSkipsUndecodableFrames(t *testing.T) {
	const nch, n = 2, 200
	// Quanta of two 7-byte payloads, so both channels carry data after
	// the garbage and each pump must read past it.
	cfg := Config{Quanta: UniformQuanta(nch, 14), Mode: ModeSequence, AddSeq: true}
	sendEnds := make([]ChannelSender, nch)
	rx, err := NewReceiver(nch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	garbage := [][]byte{{0x00}, {0xff, 0x00}, {0x00, 0x80}}
	var strays []*net.UDPConn
	for i := 0; i < nch; i++ {
		s, r, err := NewUDPChannelPair()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		defer r.Close()
		sendEnds[i] = s
		rx.Attach(i, r)
		stray, err := net.DialUDP("udp", nil, r.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		defer stray.Close()
		strays = append(strays, stray)
	}
	tx, err := NewSender(sendEnds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	recvIn := func(i int) {
		done := make(chan *Packet, 1)
		go func() { done <- rx.Recv() }()
		select {
		case p := <-done:
			if want := fmt.Sprintf("udp-%03d", i); p == nil || string(p.Payload) != want {
				t.Fatalf("packet %d = %v, want %q", i, p, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at packet %d: a pump stopped on a garbage frame", i)
		}
	}
	for i := 0; i < n; i++ {
		if i == n/2 {
			for _, stray := range strays {
				for _, g := range garbage {
					if _, err := stray.Write(g); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := tx.SendBytes([]byte(fmt.Sprintf("udp-%03d", i))); err != nil {
			t.Fatal(err)
		}
		recvIn(i)
	}
	for c := 0; c < nch; c++ {
		if pkts, _ := tx.SentOn(c); pkts < n/4 {
			t.Fatalf("channel %d carried %d of %d packets; both must carry data past the garbage", c, pkts, n)
		}
	}
	if got, want := rx.Stats().BadFrames, int64(nch*len(garbage)); got != want {
		t.Errorf("BadFrames = %d, want %d", got, want)
	}
}

// TestLocalChannelReadPacketReadyNoAlloc pins that reading a packet the
// channel has already delivered arms no timer, so a busy pump over a
// LocalChannel allocates nothing per packet.
func TestLocalChannelReadPacketReadyNoAlloc(t *testing.T) {
	ch := NewLocalChannel(LocalChannelConfig{})
	defer ch.Close()
	const runs = 100
	for i := 0; i < runs+1; i++ {
		if err := ch.Send(Data(nil)); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); len(ch.Out()) < runs+1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d packets delivered", len(ch.Out()), runs+1)
		}
		time.Sleep(time.Millisecond)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if p, err := ch.ReadPacket(time.Second); p == nil || err != nil {
			t.Fatalf("ReadPacket = %v, %v", p, err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadPacket with a packet ready allocates %.1f times, want 0", allocs)
	}
}
