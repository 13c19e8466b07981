package core

import (
	"math/rand"
	"testing"

	"stripe/internal/channel"
	"stripe/internal/packet"
	"stripe/internal/sched"
)

// TestNextBatchEquivalentToNext feeds one impaired striped stream to
// two identical resequencers and drains one through Next and the other
// through NextBatch with awkward batch sizes. The run-continuation fast
// path inside NextBatch must produce exactly the delivery sequence the
// plain scan does, including across losses, markers, and the blocking
// boundaries where both drains come up empty.
func TestNextBatchEquivalentToNext(t *testing.T) {
	const nch = 3
	quanta := []int64{1500, 1000, 1500}
	g := channel.NewGroup(nch, channel.Impairments{Loss: 0.05, Seed: 11})
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: g.Senders(),
		Markers:  MarkerPolicy{Every: 2, Position: 0},
	})
	rsA := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical})
	rsB := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical})

	rng := rand.New(rand.NewSource(7))
	var gotA, gotB []uint64
	buf := make([]*packet.Packet, 16)
	drainBoth := func() {
		for {
			p, ok := rsA.Next()
			if !ok {
				break
			}
			gotA = append(gotA, p.ID)
		}
		for {
			// Batch sizes cycle through small odd values so batch
			// boundaries land at every possible offset within runs.
			n := rsB.NextBatch(buf[:1+rng.Intn(len(buf)-1)])
			if n == 0 {
				break
			}
			for _, p := range buf[:n] {
				gotB = append(gotB, p.ID)
			}
		}
	}

	for i := 0; i < 4000; i++ {
		size := 100 + rng.Intn(1300)
		if err := st.Send(packet.NewData(make([]byte, size))); err != nil {
			t.Fatal(err)
		}
		for c, q := range g.Queues {
			if p, ok := q.Recv(); ok {
				// Arrive owns control packets (it releases them once
				// consumed), so each resequencer gets its own copy,
				// cloned before either sees the packet.
				b := p.Clone()
				rsA.Arrive(c, p)
				rsB.Arrive(c, b)
			}
		}
		if i%17 == 0 {
			drainBoth()
		}
	}
	for c, q := range g.Queues {
		for {
			p, ok := q.Recv()
			if !ok {
				break
			}
			b := p.Clone()
			rsA.Arrive(c, p)
			rsB.Arrive(c, b)
		}
	}
	drainBoth()

	if len(gotA) == 0 {
		t.Fatal("no deliveries at all")
	}
	if len(gotA) != len(gotB) {
		t.Fatalf("Next delivered %d packets, NextBatch %d", len(gotA), len(gotB))
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Fatalf("delivery %d: Next gave ID %d, NextBatch gave ID %d", i, gotA[i], gotB[i])
		}
	}
	sa, sb := rsA.Stats(), rsB.Stats()
	if sa.Delivered != sb.Delivered || sa.DeliveredBytes != sb.DeliveredBytes {
		t.Fatalf("stats diverged: Next %+v, NextBatch %+v", sa, sb)
	}
}

// TestBatchedPathSteadyStateZeroAlloc pins the zero-allocation claim of
// the batched hot path: once the pool and every internal buffer have
// reached steady state, a full send-batch / arrive / next-batch /
// release cycle performs no heap allocation at all. With markers on,
// each marker is drawn from the packet pool and the resequencer
// releases it once consumed, so the claim holds there too.
func TestBatchedPathSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		markers MarkerPolicy
	}{
		{"markers_off", MarkerPolicy{}},
		{"markers_on", MarkerPolicy{Every: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.markers.Every != 0 && raceEnabled {
				t.Skip("markers cycle through sync.Pool, which drops Puts under -race")
			}
			testBatchedPathZeroAlloc(t, tc.markers)
		})
	}
}

func testBatchedPathZeroAlloc(t *testing.T, markers MarkerPolicy) {
	const nch, batch = 4, 64
	quanta := sched.UniformQuanta(nch, 1500)
	g := channel.NewGroup(nch, channel.Impairments{})
	st := mustStriper(t, StriperConfig{
		Sched:    sched.MustSRR(quanta),
		Channels: g.Senders(),
		Markers:  markers,
	})
	rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical})

	rng := rand.New(rand.NewSource(3))
	pkts := make([]*packet.Packet, batch)
	delivered := make([]*packet.Packet, batch+nch)
	cycle := func(size func() int) {
		packet.GetBatch(pkts)
		for _, p := range pkts {
			p.Kind = packet.Data
			p.Resize(size())
		}
		if n, err := st.SendBatch(pkts); err != nil || n != batch {
			t.Fatalf("SendBatch: n=%d err=%v", n, err)
		}
		for c, q := range g.Queues {
			for {
				p, ok := q.Recv()
				if !ok {
					break
				}
				rs.Arrive(c, p)
			}
		}
		for {
			n := rs.NextBatch(delivered)
			if n == 0 {
				break
			}
			packet.ReleaseBatch(delivered[:n])
		}
	}
	// Warm to steady state: the max-size pass grows every cycling
	// payload to full capacity so Resize never reallocates, then mixed
	// sizes settle the queue and resequencer buffers.
	for i := 0; i < 4; i++ {
		cycle(func() int { return 1000 })
	}
	for i := 0; i < 32; i++ {
		cycle(func() int { return 200 + rng.Intn(801) })
	}

	allocs := testing.AllocsPerRun(50, func() {
		cycle(func() int { return 200 + rng.Intn(801) })
	})
	if allocs != 0 {
		t.Fatalf("steady-state batched cycle allocates %.1f times per run, want 0", allocs)
	}
	if markers.Every != 0 && st.SentMarkers() == 0 {
		t.Fatal("no markers were sent")
	}
}

// discardSender accepts every packet and keeps none.
type discardSender struct{}

func (discardSender) Send(*packet.Packet) error { return nil }

// TestControlEmissionZeroAlloc pins the sender-owned control plane: a
// marker batch, a telemetry report and a reset are each drawn from the
// packet pool and released once the channel's Send returns, so cutting
// them allocates nothing in steady state.
func TestControlEmissionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("control packets cycle through sync.Pool, which drops Puts under -race")
	}
	const nch = 4
	quanta := sched.UniformQuanta(nch, 1500)
	senders := make([]channel.Sender, nch)
	for c := range senders {
		senders[c] = discardSender{}
	}
	st := mustStriper(t, StriperConfig{
		Sched:         sched.MustSRR(quanta),
		Channels:      senders,
		Markers:       MarkerPolicy{Every: 4},
		MarkerCredits: func(c int) uint64 { return uint64(c) << 20 },
	})
	rs := mustReseq(t, ResequencerConfig{Sched: sched.MustSRR(quanta), Mode: ModeLogical})
	for _, tc := range []struct {
		name string
		emit func() error
	}{
		{"EmitMarkers", func() error { st.EmitMarkers(); return nil }},
		{"SendTelemetry", func() error { return st.SendTelemetry(rs.TelemetryBlock()) }},
		{"Reset", st.Reset},
	} {
		t.Run(tc.name, func(t *testing.T) {
			emit := func() {
				if err := tc.emit(); err != nil {
					t.Fatal(err)
				}
			}
			emit()
			if allocs := testing.AllocsPerRun(100, emit); allocs != 0 {
				t.Fatalf("%s allocates %.1f times per call, want 0", tc.name, allocs)
			}
		})
	}
	if st.SentMarkers() == 0 {
		t.Fatal("no markers were sent")
	}
}
