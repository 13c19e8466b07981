// Video stream: stripe a synthetic NV-style video conference trace over
// four lossy UDP channels with quasi-FIFO delivery, and measure frame
// usability — the Section 6.3 experiment, live on real sockets.
//
//	go run ./examples/videostream            # 5% loss
//	go run ./examples/videostream -loss 0.4  # the paper's perceptibility threshold
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"stripe"
	"stripe/internal/trace"
)

// lossy drops data packets with probability p before a UDP channel.
type lossy struct {
	inner stripe.ChannelSender
	p     float64
	rng   *rand.Rand
}

func (l *lossy) Send(pkt *stripe.Packet) error {
	if pkt.Kind == stripe.KindData && l.rng.Float64() < l.p {
		return nil
	}
	return l.inner.Send(pkt)
}

func main() {
	var (
		loss   = flag.Float64("loss", 0.05, "per-packet loss probability")
		frames = flag.Int("frames", 300, "frames to stream")
	)
	flag.Parse()

	vt, err := trace.SynthesizeVideo(trace.VideoConfig{
		Frames: *frames,
		GOP:    8,
		IMean:  8000,
		PMean:  1500,
		MTU:    1024,
		Seed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}

	const nch = 4
	cfg := stripe.Config{
		Quanta:  stripe.UniformQuanta(nch, 1024),
		Markers: stripe.MarkerPolicy{Every: 2, Position: 0},
	}
	sendEnds := make([]stripe.ChannelSender, nch)
	recvEnds := make([]*stripe.UDPChannel, nch)
	for i := 0; i < nch; i++ {
		s, r, err := stripe.NewUDPChannelPair()
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		defer r.Close()
		sendEnds[i] = &lossy{inner: s, p: *loss, rng: rand.New(rand.NewSource(int64(i)))}
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

	// Stream the packetized trace; the frame index rides in the first
	// payload bytes so the receiver can score frames.
	fmt.Printf("streaming %d frames (%d packets) over %d UDP channels at %.0f%% loss\n",
		*frames, len(vt.Packets), nch, *loss*100)
	go func() {
		for _, vp := range vt.Packets {
			payload := make([]byte, vp.Size)
			if vp.Size >= 8 {
				payload[0] = byte(vp.Frame >> 16)
				payload[1] = byte(vp.Frame >> 8)
				payload[2] = byte(vp.Frame)
				if vp.LastOfFrame {
					payload[3] = 1
				}
			}
			if err := tx.SendBytes(payload); err != nil {
				log.Print(err)
				return
			}
			if vp.LastOfFrame {
				// Frame pacing (a fast-forwarded NV at ~200 fps): keeps
				// the UDP socket buffers from overflowing, as the real
				// application's frame rate would.
				time.Sleep(5 * time.Millisecond)
			}
		}
		for i := 0; i < 30; i++ { // keep markers flowing for the tail
			time.Sleep(10 * time.Millisecond)
			tx.EmitMarkers()
		}
	}()

	// Playout: a frame is usable if all its packets arrive before the
	// first packet of frame f+3 (a two-frame jitter buffer).
	ppf := vt.PacketsPerFrame()
	seen := make([]int, *frames)
	usable := make([]bool, *frames)
	for f := range usable {
		usable[f] = true
	}
	received := 0
	deadline := time.After(10 * time.Second)
collect:
	for received < len(vt.Packets) {
		done := make(chan *stripe.Packet, 1)
		go func() { done <- rx.Recv() }()
		select {
		case p := <-done:
			if p == nil || p.Len() < 8 {
				continue
			}
			f := int(p.Payload[0])<<16 | int(p.Payload[1])<<8 | int(p.Payload[2])
			if f >= *frames {
				continue
			}
			seen[f]++
			// Anything older than the playout window is now unusable if
			// incomplete.
			for g := 0; g < f-2; g++ {
				if seen[g] < ppf[g] {
					usable[g] = false
				}
			}
			received++
		case <-deadline:
			break collect
		}
	}
	rx.Close()
	for f := range usable {
		if seen[f] < ppf[f] {
			usable[f] = false
		}
	}
	good := 0
	for _, u := range usable {
		if u {
			good++
		}
	}
	st := rx.Stats()
	fmt.Printf("received %d/%d packets; %d/%d frames usable (%.1f%%)\n",
		received, len(vt.Packets), good, *frames, float64(good)/float64(*frames)*100)
	fmt.Printf("markers: %d, resyncs: %d — quasi-FIFO kept reordering inside loss windows\n",
		st.Markers, st.Resyncs)
}
