// Duplex session: a bidirectional striped connection over two UDP
// channel pairs per direction, with credit-based flow control
// piggybacked on the periodic markers (Section 6.3). A fast producer is
// throttled to the consumer's pace with zero packet loss, despite UDP
// providing no flow control of its own.
//
//	go run ./examples/duplex
package main

import (
	"fmt"
	"log"
	"time"

	"stripe"
)

func main() {
	const nch = 2
	cfg := stripe.SessionConfig{
		Config: stripe.Config{
			Quanta:  stripe.UniformQuanta(nch, 1500),
			Markers: stripe.MarkerPolicy{Every: 2, Position: 0},
		},
		CreditWindow:   16 * 1024,
		MarkerInterval: 5 * time.Millisecond,
	}

	// Two directions x two channels of loopback UDP.
	mkDirection := func() ([]stripe.ChannelSender, []*stripe.UDPChannel) {
		send := make([]stripe.ChannelSender, nch)
		recv := make([]*stripe.UDPChannel, nch)
		for i := 0; i < nch; i++ {
			s, r, err := stripe.NewUDPChannelPair()
			if err != nil {
				log.Fatal(err)
			}
			send[i], recv[i] = s, r
		}
		return send, recv
	}
	abSend, abRecv := mkDirection()
	baSend, baRecv := mkDirection()

	alice, err := stripe.NewSession(abSend, cfg)
	if err != nil {
		log.Fatal(err)
	}
	bob, err := stripe.NewSession(baSend, cfg)
	if err != nil {
		log.Fatal(err)
	}

	for i := 0; i < nch; i++ {
		bob.Attach(i, abRecv[i])   // alice -> bob
		alice.Attach(i, baRecv[i]) // bob -> alice
	}

	const n = 400
	start := time.Now()

	// Alice floods requests; Bob consumes slowly and answers each one.
	go func() {
		for i := 0; i < n; i++ {
			req := make([]byte, 900)
			copy(req, fmt.Sprintf("req-%04d", i))
			if err := alice.SendBytes(req); err != nil {
				log.Print(err)
				return
			}
		}
	}()
	go func() {
		for i := 0; i < n; i++ {
			req := bob.Recv()
			if req == nil {
				return
			}
			time.Sleep(500 * time.Microsecond) // slow consumer
			resp := make([]byte, 200)
			copy(resp, fmt.Sprintf("ack-%04d", i))
			if err := bob.SendBytes(resp); err != nil {
				log.Print(err)
				return
			}
		}
	}()

	for i := 0; i < n; i++ {
		resp := alice.Recv()
		want := fmt.Sprintf("ack-%04d", i)
		if string(resp.Payload[:len(want)]) != want {
			log.Fatalf("response %d = %q, want %q", i, resp.Payload[:8], want)
		}
	}
	elapsed := time.Since(start)
	alice.Close()
	bob.Close()

	fmt.Printf("%d request/response pairs over %d striped UDP channels in %v\n", n, nch, elapsed.Round(time.Millisecond))
	fmt.Printf("bob consumed at ~2000 req/s; alice was credit-gated to match, losing nothing\n")
	fmt.Printf("alice recv stats: %+v\n", alice.Stats())
	fmt.Printf("bob   recv stats: %+v\n", bob.Stats())
}
