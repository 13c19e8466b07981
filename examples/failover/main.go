// Failover: stripe a transfer across three TCP connections, kill one
// cold mid-transfer, and plug in a replacement connection — the dynamic
// membership machinery (health-monitor eviction, announced joins at the
// next round boundary) keeps delivery FIFO and lossless on the
// survivors throughout.
//
//	go run ./examples/failover
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"stripe"
)

const (
	nch    = 3
	killCh = 1
	total  = 6000
)

func main() {
	colA := stripe.NewNamedCollector("failover-a", nch)
	colB := stripe.NewNamedCollector("failover-b", nch)
	colA.SetChecker(stripe.NewChecker())
	colB.SetChecker(stripe.NewChecker())

	cfg := func(col *stripe.Collector) stripe.SessionConfig {
		return stripe.SessionConfig{
			Config:         stripe.Config{Quanta: stripe.UniformQuanta(nch, 1500), Mode: stripe.ModeLogical, Collector: col},
			CreditWindow:   32 * 1024,
			MarkerInterval: 2 * time.Millisecond,
			Health:         stripe.HealthConfig{EvictAfter: 3},
		}
	}

	// One TCP connection per channel per direction. The reverse path
	// carries the markers that piggyback credits and membership
	// announcements back to A. Each session owns the read pumps of its
	// receive direction; a pump ends when its connection dies.
	txAB := make([]stripe.ChannelSender, nch)
	rxAB := make([]*stripe.TCPChannel, nch)
	txBA := make([]stripe.ChannelSender, nch)
	for i := 0; i < nch; i++ {
		s, r, err := stripe.NewTCPChannelPair()
		if err != nil {
			log.Fatal(err)
		}
		txAB[i], rxAB[i] = s, r
	}

	a, err := stripe.NewSession(txAB, cfg(colA))
	if err != nil {
		log.Fatal(err)
	}
	// B's transmit direction, pumped back into A.
	for i := 0; i < nch; i++ {
		s, r, err := stripe.NewTCPChannelPair()
		if err != nil {
			log.Fatal(err)
		}
		txBA[i] = s
		a.Attach(i, r)
	}
	b, err := stripe.NewSession(txBA, cfg(colB))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < nch; i++ {
		b.Attach(i, rxAB[i])
	}

	var delivered, fifoBreaks atomic.Int64
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		last := int64(-1)
		for {
			p := b.Recv()
			if p == nil {
				return
			}
			idx := int64(binary.BigEndian.Uint64(p.Payload[:8]))
			if idx <= last {
				fifoBreaks.Add(1)
			}
			last = idx
			delivered.Add(1)
		}
	}()

	state := func() string {
		tx, _ := a.ChannelState(killCh)
		return tx.String()
	}
	waitRemoved := func() {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if tx, _ := a.ChannelState(killCh); tx == stripe.MemberRemoved {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	fmt.Printf("striping %d packets across %d TCP connections\n", total, nch)
	for i := 0; i < total; i++ {
		switch i {
		case total / 3:
			// Kill connection 1 cold: writes start failing at A, the
			// error streak trips, and the health monitor evicts the
			// channel. The receiver retires its slot and the survivors
			// carry the stream.
			txAB[killCh].(*stripe.TCPChannel).Close()
			rxAB[killCh].Close()
			fmt.Printf("[%2d%%] connection %d killed (state: %s)\n", 100*i/total, killCh, state())
		case total / 2:
			waitRemoved()
			fmt.Printf("[%2d%%] channel %d evicted by the health monitor (state: %s)\n", 100*i/total, killCh, state())
			// Plug in a replacement connection and rejoin the channel.
			// The join is announced for the next round boundary, so the
			// receiver arms its skip rule before the newcomer's first
			// service — FIFO holds across the grown set.
			s, r, err := stripe.NewTCPChannelPair()
			if err != nil {
				log.Fatal(err)
			}
			b.Attach(killCh, r)
			if err := a.AddChannel(killCh, s); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("[%2d%%] channel %d rejoined on a fresh connection (state: %s)\n", 100*i/total, killCh, state())
		}
		payload := make([]byte, 200)
		binary.BigEndian.PutUint64(payload, uint64(i))
		if err := a.SendBytes(payload); err != nil {
			log.Fatal(err)
		}
	}

	// Drain: the tail rides the post-rejoin three-channel set.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		bs := b.Stats()
		if delivered.Load()+bs.MemberLost+bs.MemberDrops >= total {
			break
		}
		time.Sleep(time.Millisecond)
	}

	snapA, snapB := a.Snapshot(), b.Snapshot()
	bs := b.Stats()
	a.Close()
	b.Close()
	<-consumerDone

	var evictions, reinstates int64
	for _, cs := range snapA.Channels {
		evictions += cs.MemberEvictions
		reinstates += cs.MemberReinstates
	}
	fmt.Printf("\ndelivered %d/%d packets (%d destroyed with the dead connection, declared lost: %d)\n",
		delivered.Load(), total, int64(total)-delivered.Load()-bs.MemberLost-bs.MemberDrops, bs.MemberLost+bs.MemberDrops)
	fmt.Printf("FIFO violations: %d, invariant violations: %d, evictions: %d\n",
		fifoBreaks.Load(), snapA.InvariantViolations+snapB.InvariantViolations, evictions)
	if fifoBreaks.Load() == 0 {
		fmt.Println("delivery stayed strictly FIFO through the kill, eviction, and rejoin")
	}
}
