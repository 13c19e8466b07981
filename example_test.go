package stripe_test

import (
	"fmt"

	"stripe"
)

// Example stripes a short message stream over three in-process
// channels and reads it back in FIFO order.
func Example() {
	const nch = 3
	cfg := stripe.Config{Quanta: stripe.UniformQuanta(nch, 1500)}

	chans := make([]*stripe.LocalChannel, nch)
	senders := make([]stripe.ChannelSender, nch)
	for i := range chans {
		chans[i] = stripe.NewLocalChannel(stripe.LocalChannelConfig{})
		senders[i] = chans[i]
	}
	tx, _ := stripe.NewSender(senders, cfg)
	rx, _ := stripe.NewReceiver(nch, cfg)

	for i, ch := range chans {
		rx.Attach(i, ch) // one read pump per channel, stopped by Close
	}

	for i := 0; i < 5; i++ {
		payload := make([]byte, 800)
		copy(payload, fmt.Sprintf("msg-%d", i))
		tx.SendBytes(payload)
	}
	for i := 0; i < 5; i++ {
		p := rx.Recv()
		fmt.Printf("%s\n", p.Payload[:5])
	}
	rx.Close()
	for _, ch := range chans {
		ch.Close()
	}
	// Output:
	// msg-0
	// msg-1
	// msg-2
	// msg-3
	// msg-4
}

// ExampleQuantaForRates shows quanta for a 10 Mb/s Ethernet plus a
// 45 Mb/s DS3, the dissimilar-link case the paper motivates.
func ExampleQuantaForRates() {
	quanta, _ := stripe.QuantaForRates([]float64{10e6, 45e6}, 1500)
	fmt.Println(quanta)
	// Output:
	// [1500 6750]
}
