// Quickstart: stripe a message stream across four in-process channels
// with different latencies, and read it back in exact FIFO order.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"stripe"
)

func main() {
	const nch = 4

	// One config shared by both ends: equal 1500-byte quanta (use
	// stripe.QuantaForRates for dissimilar links).
	cfg := stripe.Config{Quanta: stripe.UniformQuanta(nch, 1500)}

	// Four channels with very different skews: packets will arrive
	// wildly out of order across channels, and logical reception will
	// still deliver FIFO.
	chans := make([]*stripe.LocalChannel, nch)
	senders := make([]stripe.ChannelSender, nch)
	for i := range chans {
		chans[i] = stripe.NewLocalChannel(stripe.LocalChannelConfig{
			Delay:  time.Duration(i*i) * 3 * time.Millisecond,
			Jitter: 2 * time.Millisecond,
			Seed:   int64(i),
		})
		senders[i] = chans[i]
	}

	tx, err := stripe.NewSender(senders, cfg)
	if err != nil {
		log.Fatal(err)
	}
	rx, err := stripe.NewReceiver(nch, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Receive pumps: one per channel feeding the resequencer, owned by
	// the Receiver and stopped by its Close.
	for i, ch := range chans {
		rx.Attach(i, ch)
	}

	const n = 48
	go func() {
		for i := 0; i < n; i++ {
			msg := make([]byte, 600+(i*113)%800) // variable-length packets
			copy(msg, fmt.Sprintf("message %02d", i))
			if err := tx.SendBytes(msg); err != nil {
				log.Fatal(err)
			}
		}
	}()

	for i := 0; i < n; i++ {
		p := rx.Recv()
		fmt.Printf("delivered in order: %s (%d bytes)\n", p.Payload[:10], p.Len())
	}

	rx.Close()
	for _, ch := range chans {
		ch.Close()
	}

	st := tx.Stats()
	fmt.Printf("\nsent %d packets (%d bytes) + %d markers over %d channels; all FIFO\n",
		st.DataPackets, st.DataBytes, st.Markers, nch)
}
