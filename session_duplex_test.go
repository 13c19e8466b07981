package stripe

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stripe/internal/packet"
)

// TestSessionDuplexBulkTCP runs bulk traffic both ways over two shared
// loopback TCP connections. Each end sends 64-packet batches of 1400 B
// as fast as the sockets take them while both consume. A sender blocked
// in a full TCP write must never stop its own end's read pumps — with
// one lock over both directions it did, and both ends wedged for good —
// so each direction has to deliver in every 500 ms window.
func TestSessionDuplexBulkTCP(t *testing.T) {
	const nch, batch, size = 2, 64, 1400
	aTx := make([]ChannelSender, nch)
	bTx := make([]ChannelSender, nch)
	aRx := make([]*TCPChannel, nch)
	bRx := make([]*TCPChannel, nch)
	for i := 0; i < nch; i++ {
		ca, cb, err := NewTCPChannelPair()
		if err != nil {
			t.Fatal(err)
		}
		defer ca.Close()
		defer cb.Close()
		aTx[i], aRx[i] = ca, ca
		bTx[i], bRx[i] = cb, cb
	}
	cfg := SessionConfig{Config: Config{Quanta: UniformQuanta(nch, 1500)}}
	a, err := NewSession(aTx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(bTx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nch; i++ {
		a.Attach(i, aRx[i])
		b.Attach(i, bRx[i])
	}

	var stop atomic.Bool
	var senders, consumers sync.WaitGroup
	send := func(s *Session) {
		defer senders.Done()
		pkts := make([]*Packet, batch)
		for !stop.Load() {
			for i := range pkts {
				pkts[i] = GetPacketSized(size)
			}
			if _, err := s.SendBatch(pkts); err != nil {
				t.Error(err)
				return
			}
		}
	}
	var delivered [2]atomic.Int64 // to a, to b
	consume := func(s *Session, n *atomic.Int64) {
		defer consumers.Done()
		dst := make([]*Packet, batch)
		for {
			k := s.RecvBatch(dst)
			if k == 0 {
				return
			}
			for _, p := range dst[:k] {
				p.Release()
			}
			n.Add(int64(k))
		}
	}
	senders.Add(2)
	consumers.Add(2)
	go send(a)
	go send(b)
	go consume(a, &delivered[0])
	go consume(b, &delivered[1])

	var last [2]int64
	for w := 0; w < 6; w++ {
		time.Sleep(500 * time.Millisecond)
		for d := range delivered {
			now := delivered[d].Load()
			if now == last[d] {
				t.Errorf("window %d: %s delivered nothing (stuck at %d packets)", w, []string{"b->a", "a->b"}[d], now)
			}
			last[d] = now
		}
	}
	stop.Store(true)
	senders.Wait()
	a.Close()
	b.Close()
	consumers.Wait()
}

// sleepySender delays every data send by d and totals the time spent.
type sleepySender struct {
	d     time.Duration
	spent time.Duration
}

func (s *sleepySender) Send(p *Packet) error {
	if p.Kind == KindData {
		start := time.Now()
		time.Sleep(s.d)
		s.spent += time.Since(start)
	}
	return nil
}

// TestSessionCreditStallExcludesSendTime checks the credit-stall clock
// charges only the time a sender waits for credit. The window admits
// one packet; the second waits for a grant, and every data send takes
// 50 ms. Charging from the first gated attempt to the end of the batch
// would count the send made after the grant as stall.
func TestSessionCreditStallExcludesSendTime(t *testing.T) {
	col := NewCollector(1)
	ch := &sleepySender{d: 50 * time.Millisecond}
	s, err := NewSession([]ChannelSender{ch}, SessionConfig{
		Config:         Config{Quanta: UniformQuanta(1, 1000), Collector: col},
		CreditWindow:   1000,
		MarkerInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	go func() {
		time.Sleep(100 * time.Millisecond)
		s.Arrive(0, packet.NewMarker(packet.MarkerBlock{Channel: 0, Credits: 2000}))
	}()
	start := time.Now()
	n, err := s.SendBatch([]*Packet{Data(make([]byte, 1000)), Data(make([]byte, 1000))})
	elapsed := time.Since(start)
	if n != 2 || err != nil {
		t.Fatalf("SendBatch = %d, %v; want 2, nil", n, err)
	}
	stall := s.Snapshot().CreditStall
	if stall <= 0 {
		t.Fatal("the credit wait was not charged")
	}
	if stall+ch.spent > elapsed {
		t.Fatalf("stall %v + send time %v exceeds the batch's %v: sends were charged as stall", stall, ch.spent, elapsed)
	}
}
