package sim

import (
	"testing"

	"stripe/internal/channel"
	"stripe/internal/packet"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 100 {
		t.Fatalf("Now = %d", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var fired []Time
	s.At(10, func() {
		fired = append(fired, s.Now())
		s.After(5, func() { fired = append(fired, s.Now()) })
	})
	s.Run(20)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestPastEventClamped(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run(10)
	ran := false
	s.At(3, func() { ran = true }) // in the past: runs "now"
	s.Run(10)
	if !ran {
		t.Fatal("past event never ran")
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	s := New()
	ran := false
	s.At(100, func() { ran = true })
	s.Run(50)
	if ran {
		t.Fatal("future event ran early")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.Run(100)
	if !ran {
		t.Fatal("event at boundary did not run")
	}
}

func TestLinkSerializationAndDelay(t *testing.T) {
	s := New()
	var arrivals []Time
	l, err := NewLink(s, "l", LinkConfig{RateBps: 8e6, Delay: Millisecond}, func(p *packet.Packet) {
		arrivals = append(arrivals, s.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1000 bytes at 8 Mb/s = 1 ms serialization.
	l.Send(packet.NewDataSized(1000))
	l.Send(packet.NewDataSized(1000))
	s.Run(10 * Second)
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d", len(arrivals))
	}
	if arrivals[0] != 2*Millisecond {
		t.Fatalf("first arrival at %v, want 2ms", arrivals[0])
	}
	if arrivals[1] != 3*Millisecond {
		t.Fatalf("second arrival at %v, want 3ms (FIFO, back-to-back)", arrivals[1])
	}
}

func TestLinkFIFO(t *testing.T) {
	s := New()
	var ids []uint64
	l, _ := NewLink(s, "l", LinkConfig{RateBps: 1e9, Delay: 10 * Microsecond, Queue: 200}, func(p *packet.Packet) {
		ids = append(ids, p.ID)
	})
	for i := 0; i < 100; i++ {
		p := packet.NewDataSized(1 + i%1400)
		p.ID = uint64(i)
		l.Send(p)
	}
	s.Run(Second)
	if len(ids) != 100 {
		t.Fatalf("delivered %d", len(ids))
	}
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("link reordered: %v", ids[:i+1])
		}
	}
}

func TestLinkQueueOverflow(t *testing.T) {
	s := New()
	n := 0
	l, _ := NewLink(s, "l", LinkConfig{RateBps: 1e3, Queue: 4}, func(p *packet.Packet) { n++ })
	for i := 0; i < 10; i++ {
		l.Send(packet.NewDataSized(100))
	}
	s.Run(100 * Second)
	if st := l.Stats(); st.Dropped != 6 || st.Sent != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if n != 4 {
		t.Fatalf("delivered %d", n)
	}
}

func TestLinkLossProcess(t *testing.T) {
	s := New()
	n := 0
	l, _ := NewLink(s, "l", LinkConfig{RateBps: 1e9, Loss: 0.5, Seed: 1, Queue: 1 << 20}, func(p *packet.Packet) { n++ })
	for i := 0; i < 2000; i++ {
		l.Send(packet.NewDataSized(100))
	}
	s.Run(10 * Second)
	if n < 800 || n > 1200 {
		t.Fatalf("delivered %d of 2000 at 50%% loss", n)
	}
	if st := l.Stats(); st.Lost+int64(n) != 2000 {
		t.Fatalf("lost %d + delivered %d != 2000", st.Lost, n)
	}
}

func TestLinkValidation(t *testing.T) {
	s := New()
	if _, err := NewLink(s, "l", LinkConfig{}, func(*packet.Packet) {}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewLink(s, "l", LinkConfig{RateBps: 1}, nil); err == nil {
		t.Error("nil deliver accepted")
	}
}

func TestHostBatchingAmortizesInterrupts(t *testing.T) {
	s := New()
	delivered := 0
	h, err := NewHost(s, 1, CPUConfig{PerInterrupt: 100 * Microsecond, PerPacket: 10 * Microsecond},
		func(nic int, p *packet.Packet) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	in := h.NICInput(0)
	// A burst of 50 packets while the CPU is busy with the first
	// interrupt: the rest are drained in large batches.
	for i := 0; i < 50; i++ {
		in(packet.NewDataSized(100))
	}
	s.Run(Second)
	st := h.Stats()
	if delivered != 50 || st.Packets != 50 {
		t.Fatalf("delivered %d, stats %+v", delivered, st)
	}
	if st.Interrupts >= 10 {
		t.Fatalf("%d interrupts for a 50-packet burst; batching broken", st.Interrupts)
	}
}

func TestHostTwoNICsMoreInterrupts(t *testing.T) {
	// The same packet stream through one NIC vs spread over two: two
	// NICs take more interrupts (smaller batches), the paper's stated
	// reason striping flattens.
	run := func(nics int) int64 {
		s := New()
		h, _ := NewHost(s, nics, CPUConfig{PerInterrupt: 50 * Microsecond, PerPacket: 5 * Microsecond},
			func(int, *packet.Packet) {})
		// Packets arrive every 20µs, alternating NICs.
		for i := 0; i < 400; i++ {
			i := i
			s.At(Time(i)*20*Microsecond, func() {
				h.arrive(i%nics, packet.NewDataSized(500))
			})
		}
		s.Run(Second)
		return h.Stats().Interrupts
	}
	one := run(1)
	two := run(2)
	if two <= one {
		t.Fatalf("interrupts: 1 NIC %d, 2 NICs %d; expected more with striping", one, two)
	}
}

func TestHostRingOverflow(t *testing.T) {
	s := New()
	h, _ := NewHost(s, 1, CPUConfig{PerInterrupt: Second, PerPacket: 0, Ring: 8},
		func(int, *packet.Packet) {})
	in := h.NICInput(0)
	for i := 0; i < 20; i++ {
		in(packet.NewDataSized(10))
	}
	s.Run(10 * Second)
	// First packet triggers an interrupt that drains a 1-packet batch;
	// during the long service the ring fills to 8; the rest drop.
	if st := h.Stats(); st.RingDrops != 20-1-8 {
		t.Fatalf("ring drops = %d, want %d (stats %+v)", st.RingDrops, 20-1-8, st)
	}
}

func TestHostValidation(t *testing.T) {
	s := New()
	if _, err := NewHost(s, 0, CPUConfig{}, func(int, *packet.Packet) {}); err == nil {
		t.Error("zero NICs accepted")
	}
	if _, err := NewHost(s, 1, CPUConfig{}, nil); err == nil {
		t.Error("nil output accepted")
	}
}

// TestHostCoalescingBatches checks the interrupt-coalescing window: a
// steady 100µs-spaced arrival stream with a 1ms window forms ~10-packet
// batches on one NIC but ~5-packet batches per NIC when split across
// two, roughly doubling the interrupt count — the Figure 15 mechanism.
func TestHostCoalescingBatches(t *testing.T) {
	run := func(nics int) int64 {
		s := New()
		h, _ := NewHost(s, nics, CPUConfig{
			PerInterrupt: 10 * Microsecond,
			PerPacket:    5 * Microsecond,
			Coalesce:     Millisecond,
		}, func(int, *packet.Packet) {})
		for i := 0; i < 1000; i++ {
			i := i
			s.At(Time(i)*100*Microsecond, func() {
				h.arrive(i%nics, packet.NewDataSized(500))
			})
		}
		s.Run(Second)
		return h.Stats().Interrupts
	}
	one := run(1)
	two := run(2)
	if one > 120 {
		t.Fatalf("single NIC took %d interrupts for 1000 packets; coalescing broken", one)
	}
	if float64(two) < 1.6*float64(one) {
		t.Fatalf("interrupts: 1 NIC %d, 2 NICs %d; want ~2x", one, two)
	}
}

// TestHostCoalescingRingFullRaisesEarly checks the latency bound: a
// full ring must not wait for the window.
func TestHostCoalescingRingFullRaisesEarly(t *testing.T) {
	s := New()
	served := 0
	h, _ := NewHost(s, 1, CPUConfig{
		PerInterrupt: Microsecond,
		PerPacket:    Microsecond,
		Ring:         4,
		Coalesce:     Second, // absurdly long window
	}, func(int, *packet.Packet) { served++ })
	in := h.NICInput(0)
	for i := 0; i < 4; i++ {
		in(packet.NewDataSized(10))
	}
	s.Run(10 * Millisecond) // well before the window expires
	if served != 4 {
		t.Fatalf("served %d, want 4 (ring-full must raise the interrupt)", served)
	}
}

// TestLinkJitterPreservesFIFO checks per-packet jitter never reorders
// the link (clamped release times) while still spreading arrivals.
func TestLinkJitterPreservesFIFO(t *testing.T) {
	s := New()
	var ids []uint64
	var times []Time
	l, _ := NewLink(s, "l", LinkConfig{
		RateBps: 1e9,
		Delay:   Millisecond,
		Jitter:  5 * Millisecond,
		Queue:   1000,
		Seed:    3,
	}, func(p *packet.Packet) {
		ids = append(ids, p.ID)
		times = append(times, s.Now())
	})
	for i := 0; i < 500; i++ {
		p := packet.NewDataSized(100)
		p.ID = uint64(i)
		l.Send(p)
	}
	s.Run(10 * Second)
	if len(ids) != 500 {
		t.Fatalf("delivered %d", len(ids))
	}
	varied := false
	for i := 1; i < len(ids); i++ {
		if ids[i] != uint64(i) {
			t.Fatalf("jitter reordered the link at %d", i)
		}
		if times[i] < times[i-1] {
			t.Fatal("delivery times went backwards")
		}
		gap := times[i] - times[i-1]
		if gap > 100*Microsecond {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter had no visible effect on arrival spacing")
	}
}

// TestLinkBurstLoss checks the Gilbert-Elliott process on simulated
// links: losses cluster and the aggregate rate is near the stationary
// value.
func TestLinkBurstLoss(t *testing.T) {
	s := New()
	delivered := 0
	l, _ := NewLink(s, "l", LinkConfig{
		RateBps: 1e9,
		Queue:   1 << 20,
		Seed:    4,
		Burst: channel.GilbertElliott{
			PGoodToBad: 0.02,
			PBadToGood: 0.25,
			BadLoss:    0.9,
		},
	}, func(p *packet.Packet) { delivered++ })
	const n = 50000
	for i := 0; i < n; i++ {
		l.Send(packet.NewDataSized(100))
	}
	s.Run(100 * Second)
	// Stationary bad probability = 0.02/0.27 ≈ 0.074; loss ≈ 6.7%.
	frac := float64(n-delivered) / n
	if frac < 0.05 || frac > 0.09 {
		t.Fatalf("burst loss fraction %.4f, want ~0.067", frac)
	}
	st := l.Stats()
	if st.Lost+int64(delivered) != n {
		t.Fatalf("lost %d + delivered %d != %d", st.Lost, delivered, n)
	}
}

// TestLinkKeepsControlCopy pins the control-packet ownership rule for
// Link: Send only borrows a control packet, which the emitter releases
// once Send returns, so the delivery scheduled for later must carry the
// link's own copy.
func TestLinkKeepsControlCopy(t *testing.T) {
	s := New()
	var got *packet.Packet
	l, err := NewLink(s, "l", LinkConfig{RateBps: 8e6, Delay: Millisecond}, func(p *packet.Packet) { got = p })
	if err != nil {
		t.Fatal(err)
	}
	want := packet.MarkerBlock{Channel: 2, Round: 5, Deficit: 700, Sent: 1 << 20}
	p := packet.NewMarker(want)
	l.Send(p)
	p.Release()
	for i := 0; i < 8; i++ { // reuse whatever the pool hands out
		q := packet.Get()
		q.Resize(packet.MarkerWireLen)
		for j := range q.Payload {
			q.Payload[j] = 0xA5
		}
	}
	s.Run(10 * Second)
	if got == nil {
		t.Fatal("marker not delivered")
	}
	if m, err := packet.MarkerOf(got); err != nil || m != want {
		t.Fatalf("delivered marker = %+v, %v; want %+v: the link kept the sender's released packet", m, err, want)
	}
}
