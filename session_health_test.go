package stripe

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestScoreEvictionCatchesSilentLoss is the end-to-end check for
// evidence-based eviction: a channel dropping 90% of its traffic —
// silently, so the error-streak rule (disabled here anyway) never sees
// a transport error — must be evicted by the windowed health score,
// and the session must keep delivering on the survivor.
func TestScoreEvictionCatchesSilentLoss(t *testing.T) {
	const nch = 2
	colA := NewNamedCollector("score-evict-a", nch)
	colB := NewNamedCollector("score-evict-b", nch)
	NewWindows(colA, WindowConfig{
		Tick:  10 * time.Millisecond,
		Spans: []time.Duration{200 * time.Millisecond},
	})

	// Forward channels report losses to alice's collector; channel 1 is
	// the silently dying link.
	mk := func(col *Collector, lossOn1 float64) ([]*LocalChannel, []ChannelSender) {
		chans := make([]*LocalChannel, nch)
		senders := make([]ChannelSender, nch)
		for i := range chans {
			loss := 0.0
			if i == 1 {
				loss = lossOn1
			}
			chans[i] = NewLocalChannel(LocalChannelConfig{
				Loss:      loss,
				Seed:      int64(i + 1),
				Collector: col,
				Index:     i,
			})
			senders[i] = chans[i]
		}
		return chans, senders
	}
	abChans, abSenders := mk(colA, 0.9)
	baChans, baSenders := mk(nil, 0)

	cfg := SessionConfig{
		Config: Config{
			Quanta:    UniformQuanta(nch, 1500),
			Markers:   MarkerPolicy{Every: 2, Position: 0},
			Collector: colA,
		},
		CreditWindow:   64 * 1024,
		MarkerInterval: 2 * time.Millisecond,
		Health: HealthConfig{
			EvictAfter:      -1, // error-streak eviction off: the score must act alone
			ReinstateAfter:  -1,
			ScoreEvictBelow: 60,
			ScoreStreak:     2,
		},
	}
	bcfg := cfg
	bcfg.Collector = colB
	bcfg.Health = HealthConfig{}

	a, err := NewSession(abSenders, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(baSenders, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		a.Close()
		b.Close()
		for _, ch := range append(abChans, baChans...) {
			ch.Close()
		}
	}()
	for i := range abChans {
		b.Attach(i, abChans[i])
		a.Attach(i, baChans[i])
	}

	var stop atomic.Bool
	go func() {
		for !stop.Load() {
			if a.SendBytes(make([]byte, 600)) != nil {
				return
			}
		}
	}()
	go func() {
		for b.Recv() != nil {
		}
	}()
	go func() {
		for a.Recv() != nil {
		}
	}()
	defer stop.Store(true)

	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := a.Snapshot()
		if snap.Channels[1].MemberEvictions >= 1 {
			if snap.Channels[1].MemberActive {
				t.Fatalf("channel 1 evicted but still active: %+v", snap.Channels[1])
			}
			if !snap.Channels[0].MemberActive || snap.Channels[0].MemberEvictions != 0 {
				t.Fatalf("healthy channel 0 was disturbed: %+v", snap.Channels[0])
			}
			// The eviction came from windowed evidence: the score the
			// rollup assigned channel 1 is below the configured bar.
			if h := snap.Windows.Score(1); h.Score >= 60 || len(h.Reasons) == 0 {
				t.Fatalf("eviction without score evidence: %+v", h)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("score eviction never fired; windows=%+v channels=%+v",
				snap.Windows, snap.Channels)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
