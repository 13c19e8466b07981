// Transport striping: carry a bulk transfer across three real TCP
// connections (the paper's "channel as a transport connection" case —
// one connection per intelligent adaptor) and verify the reassembled
// stream byte-for-byte.
//
//	go run ./examples/transport
package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"log"
	"math/rand"
	"time"

	"stripe"
)

func main() {
	const (
		nch       = 3
		chunk     = 16 * 1024
		totalMiB  = 32
		numChunks = totalMiB * 1024 * 1024 / chunk
	)
	cfg := stripe.Config{Quanta: stripe.UniformQuanta(nch, chunk)}

	sendEnds := make([]stripe.ChannelSender, nch)
	recvEnds := make([]*stripe.TCPChannel, nch)
	for i := 0; i < nch; i++ {
		s, r, err := stripe.NewTCPChannelPair()
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		defer r.Close()
		sendEnds[i] = s
		recvEnds[i] = r
	}
	tx, err := stripe.NewSender(sendEnds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	rx, err := stripe.NewReceiver(nch, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for i, rc := range recvEnds {
		rx.Attach(i, rc)
	}
	defer rx.Close()

	rng := rand.New(rand.NewSource(1))
	sendSum := sha256.New()
	start := time.Now()
	go func() {
		buf := make([]byte, chunk)
		for i := 0; i < numChunks; i++ {
			rng.Read(buf)
			sendSum.Write(buf)
			if err := tx.SendBytes(append([]byte(nil), buf...)); err != nil {
				log.Print(err)
				return
			}
		}
	}()

	recvSum := sha256.New()
	var got int64
	for i := 0; i < numChunks; i++ {
		p := rx.Recv()
		if p == nil {
			log.Fatal("receiver closed early")
		}
		recvSum.Write(p.Payload)
		got += int64(p.Len())
	}
	elapsed := time.Since(start)

	if !bytes.Equal(sendSum.Sum(nil), recvSum.Sum(nil)) {
		log.Fatal("checksum mismatch: stream corrupted or reordered")
	}
	fmt.Printf("transferred %d MiB across %d TCP connections in %v (%.0f Mb/s)\n",
		totalMiB, nch, elapsed.Round(time.Millisecond),
		float64(got)*8/elapsed.Seconds()/1e6)
	fmt.Println("SHA-256 of sent and received streams match: exact FIFO reassembly")
}
