// Loss recovery: reproduce the Section 5 walkthrough (Figures 8-13)
// interactively. Two equal channels carry a numbered stream; one packet
// is deliberately dropped, the receiver drifts out of order, and the
// next marker batch snaps it back into synchronization.
//
//	go run ./examples/lossrecovery
package main

import (
	"fmt"
	"log"
	"time"

	"stripe"
)

// dropOne is a channel wrapper that drops exactly one chosen data
// packet (by count of data packets seen on this channel).
type dropOne struct {
	inner stripe.ChannelSender
	at    int
	seen  int
}

func (d *dropOne) Send(p *stripe.Packet) error {
	if p.Kind == stripe.KindData {
		d.seen++
		if d.seen == d.at {
			fmt.Printf("  !! channel drops its data packet #%d (payload %q)\n", d.at, p.Payload[:9])
			return nil
		}
	}
	return d.inner.Send(p)
}

func main() {
	const nch = 2
	cfg := stripe.Config{
		Quanta:  stripe.UniformQuanta(nch, 100), // quantum == packet size: SRR reduces to RR
		Markers: stripe.MarkerPolicy{Every: 6, Position: 0},
	}

	chans := make([]*stripe.LocalChannel, nch)
	senders := make([]stripe.ChannelSender, nch)
	for i := range chans {
		chans[i] = stripe.NewLocalChannel(stripe.LocalChannelConfig{Delay: time.Millisecond})
		senders[i] = chans[i]
	}
	// The paper's Figure 10: packet 7 (1-based) is lost; with two
	// channels that is channel 0's 4th data packet.
	senders[0] = &dropOne{inner: senders[0], at: 4}

	tx, err := stripe.NewSender(senders, cfg)
	if err != nil {
		log.Fatal(err)
	}
	rx, err := stripe.NewReceiver(nch, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for i, ch := range chans {
		rx.Attach(i, ch)
	}

	const n = 18 // the walkthrough's packets 1..18
	fmt.Printf("sending packets 1..%d over 2 channels; marker batch before round 7\n\n", n)
	go func() {
		for i := 1; i <= n; i++ {
			payload := make([]byte, 100)
			copy(payload, fmt.Sprintf("packet-%02d", i))
			if err := tx.SendBytes(payload); err != nil {
				log.Fatal(err)
			}
		}
	}()

	last := 0
	for got := 0; got < n-1; got++ { // one packet was dropped
		p := rx.Recv()
		var id int
		fmt.Sscanf(string(p.Payload), "packet-%d", &id)
		note := ""
		if id < last {
			note = "   <-- out of order (desynchronized)"
		} else if id != last+1 && last != 0 {
			note = "   <-- gap (the lost packet, or skipped ahead)"
		}
		fmt.Printf("  delivered %q%s\n", p.Payload[:9], note)
		if id > last {
			last = id
		}
	}
	rx.Close()
	for _, ch := range chans {
		ch.Close()
	}

	st := rx.Stats()
	fmt.Printf("\nmarkers consumed: %d, resynchronizations: %d, channel skips: %d\n",
		st.Markers, st.Resyncs, st.Skips)
	fmt.Println("after the marker, delivery is FIFO again (Theorem 5.1: recovery within")
	fmt.Println("one marker period plus a one-way delay after losses stop)")
}
