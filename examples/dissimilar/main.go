// Dissimilar links: stripe over a 4 Mb/s and a 10 Mb/s channel (think
// Ethernet + ATM PVC, scaled down for a quick run) and show that SRR
// with bandwidth-proportional quanta aggregates both links, while plain
// round robin is pinned near twice the slower link — the Section 6.2
// comparison, live.
//
//	go run ./examples/dissimilar
package main

import (
	"fmt"
	"log"
	"time"

	"stripe"
)

const (
	slowRate = 4e6
	fastRate = 10e6
	seconds  = 3
)

// run stripes a backlogged stream of 1000/200-byte alternating packets
// (the adversarial mix) for a fixed duration and returns goodput.
func run(label string, cfg stripe.Config) float64 {
	const nch = 2

	chans := make([]*stripe.LocalChannel, nch)
	senders := make([]stripe.ChannelSender, nch)
	for i, rate := range []float64{slowRate, fastRate} {
		chans[i] = stripe.NewLocalChannel(stripe.LocalChannelConfig{
			RateBps: rate,
			Delay:   2 * time.Millisecond,
			Seed:    int64(i),
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
	for i, ch := range chans {
		rx.Attach(i, ch)
	}

	stop := time.After(seconds * time.Second)
	done := make(chan struct{})
	var bytes int64
	go func() {
		defer close(done)
		for {
			p := rx.Recv()
			if p == nil {
				return
			}
			bytes += int64(p.Len())
		}
	}()

	// Backlogged sender: LocalChannel.Send applies backpressure when a
	// link's transmit queue is full, so the striper paces itself.
	i := 0
sendLoop:
	for {
		select {
		case <-stop:
			break sendLoop
		default:
		}
		size := 1000
		if i%2 == 1 {
			size = 200
		}
		if err := tx.SendBytes(make([]byte, size)); err != nil {
			break
		}
		i++
	}
	rx.Close()
	for _, ch := range chans {
		ch.Close()
	}
	<-done

	mbps := float64(bytes) * 8 / seconds / 1e6
	fmt.Printf("%-28s %6.2f Mb/s\n", label, mbps)
	return mbps
}

func main() {
	fmt.Printf("two links: %.0f + %.0f Mb/s; alternating 1000/200-byte packets, %ds each run\n\n",
		slowRate/1e6, fastRate/1e6, seconds)

	quanta, err := stripe.QuantaForRates([]float64{slowRate, fastRate}, 1500)
	if err != nil {
		log.Fatal(err)
	}
	srr := run("SRR (weighted quanta)", stripe.Config{Quanta: quanta})
	rr := run("RR (one packet per link)", stripe.Config{Scheme: stripe.SchemeRR, Quanta: stripe.UniformQuanta(2, 1)})

	fmt.Printf("\naggregate capacity %.0f Mb/s; SRR achieves %.0f%%, RR only %.0f%%\n",
		(slowRate+fastRate)/1e6, srr/((slowRate+fastRate)/1e6)*100, rr/((slowRate+fastRate)/1e6)*100)
	fmt.Println("RR ignores packet sizes, so the alternating workload lands every large")
	fmt.Println("packet on one link — the Section 6.2 pathology SRR's byte accounting avoids.")
}
