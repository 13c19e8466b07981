package stripe

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stripe/internal/netchan"
)

// TestSessionGracefulMembership drives a duplex session pair across
// three channels and gracefully removes and re-adds one mid-transfer
// through the public API. The drain is delimited (the departing link is
// healthy), so delivery must be lossless and FIFO throughout, and the
// credit invariant checkers on both ends must stay silent.
func TestSessionGracefulMembership(t *testing.T) {
	const nch = 3
	const total = 3000

	colA := NewNamedCollector("gm-a", nch)
	colB := NewNamedCollector("gm-b", nch)
	colA.SetChecker(NewChecker())
	colB.SetChecker(NewChecker())

	mk := func(base int64) []*LocalChannel {
		chs := make([]*LocalChannel, nch)
		for i := range chs {
			chs[i] = NewLocalChannel(LocalChannelConfig{
				Delay: 100 * time.Microsecond,
				Seed:  base + int64(i)*7919,
			})
		}
		return chs
	}
	a2b, b2a := mk(11), mk(23)
	txA := make([]ChannelSender, nch)
	txB := make([]ChannelSender, nch)
	for i := 0; i < nch; i++ {
		txA[i], txB[i] = a2b[i], b2a[i]
	}

	cfg := func(col *Collector) SessionConfig {
		return SessionConfig{
			Config:         Config{Quanta: UniformQuanta(nch, 1500), Mode: ModeLogical, Collector: col},
			CreditWindow:   16 * 1024,
			MarkerInterval: 2 * time.Millisecond,
		}
	}
	a, err := NewSession(txA, cfg(colA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(txB, cfg(colB))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < nch; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for p := range a2b[i].Out() {
				b.Arrive(i, p)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			for p := range b2a[i].Out() {
				a.Arrive(i, p)
			}
		}(i)
	}

	var delivered, fifoBreaks atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := int64(-1)
		for {
			p := b.Recv()
			if p == nil {
				return
			}
			idx := int64(binary.BigEndian.Uint64(p.Payload[:8]))
			if idx <= last {
				fifoBreaks.Add(1)
			}
			last = idx
			delivered.Add(1)
		}
	}()

	for i := 0; i < total; i++ {
		switch i {
		case total / 3:
			if err := a.RemoveChannel(2); err != nil {
				t.Fatal(err)
			}
			if tx, _ := a.ChannelState(2); tx != MemberRemoved {
				t.Fatalf("after RemoveChannel: tx state = %v, want removed", tx)
			}
		case 2 * total / 3:
			if err := a.AddChannel(2, nil); err != nil {
				t.Fatal(err)
			}
			if tx, _ := a.ChannelState(2); tx != MemberActive {
				t.Fatalf("after AddChannel: tx state = %v, want active", tx)
			}
		}
		payload := make([]byte, 200)
		binary.BigEndian.PutUint64(payload, uint64(i))
		if err := a.SendBytes(payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && delivered.Load() < total {
		time.Sleep(time.Millisecond)
	}

	snapA, snapB := a.Snapshot(), b.Snapshot()
	a.Close()
	b.Close()
	for i := 0; i < nch; i++ {
		a2b[i].Close()
		b2a[i].Close()
	}
	wg.Wait()
	<-done

	if got := delivered.Load(); got != total {
		t.Errorf("delivered %d/%d packets; graceful removal must be lossless", got, total)
	}
	if got := fifoBreaks.Load(); got != 0 {
		t.Errorf("%d FIFO violations across the membership changes", got)
	}
	if v := snapA.InvariantViolations + snapB.InvariantViolations; v != 0 {
		t.Errorf("%d invariant violations; membership changes must not leak credits", v)
	}
}

// TestSessionTCPKillMidTransfer stripes a transfer over three real TCP
// connections and kills one cold, mid-transfer. The sender's error
// streak must evict the dead channel, the receiver must retire it and
// keep delivering in order, and the tail of the stream must complete on
// the survivors — the end-to-end version of the paper's claim that the
// protocol degrades gracefully when a physical channel fails.
func TestSessionTCPKillMidTransfer(t *testing.T) {
	const nch = 3
	const killCh = 1
	const total = 3000

	colA := NewNamedCollector("tcp-a", nch)
	colB := NewNamedCollector("tcp-b", nch)
	colA.SetChecker(NewChecker())
	colB.SetChecker(NewChecker())

	mkPairs := func() (tx, rx [nch]*netchan.TCPChannel) {
		for i := 0; i < nch; i++ {
			s, r, err := netchan.TCPPair()
			if err != nil {
				t.Fatal(err)
			}
			tx[i], rx[i] = s, r
		}
		return
	}
	txAB, rxAB := mkPairs()
	txBA, rxBA := mkPairs()

	cfg := func(col *Collector) SessionConfig {
		return SessionConfig{
			Config:         Config{Quanta: UniformQuanta(nch, 1500), Mode: ModeLogical, Collector: col},
			CreditWindow:   16 * 1024,
			MarkerInterval: 2 * time.Millisecond,
			Health:         HealthConfig{EvictAfter: 3},
		}
	}
	sendersA := make([]ChannelSender, nch)
	sendersB := make([]ChannelSender, nch)
	for i := 0; i < nch; i++ {
		sendersA[i], sendersB[i] = txAB[i], txBA[i]
	}
	a, err := NewSession(sendersA, cfg(colA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(sendersB, cfg(colB))
	if err != nil {
		t.Fatal(err)
	}

	// Socket pumps: a read error (the killed connection, or teardown)
	// ends the pump; timeouts just poll again.
	var stop atomic.Bool
	var wg sync.WaitGroup
	pump := func(ch *netchan.TCPChannel, deliver func(*Packet)) {
		defer wg.Done()
		for !stop.Load() {
			p, err := ch.ReadPacket(50 * time.Millisecond)
			if err != nil {
				return
			}
			if p != nil {
				deliver(p)
			}
		}
	}
	for i := 0; i < nch; i++ {
		i := i
		wg.Add(2)
		go pump(rxAB[i], func(p *Packet) { b.Arrive(i, p) })
		go pump(rxBA[i], func(p *Packet) { a.Arrive(i, p) })
	}

	var delivered, fifoBreaks atomic.Int64
	var lastIdx atomic.Int64
	lastIdx.Store(-1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := int64(-1)
		for {
			p := b.Recv()
			if p == nil {
				return
			}
			idx := int64(binary.BigEndian.Uint64(p.Payload[:8]))
			if idx <= last {
				fifoBreaks.Add(1)
			}
			last = idx
			lastIdx.Store(last)
			delivered.Add(1)
		}
	}()

	for i := 0; i < total; i++ {
		if i == total/3 {
			// Kill the connection cold from both ends: writes fail at A,
			// whatever the kernel still buffered is destroyed.
			txAB[killCh].Close()
			rxAB[killCh].Close()
		}
		payload := make([]byte, 200)
		binary.BigEndian.PutUint64(payload, uint64(i))
		if err := a.SendBytes(payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	// The last packet is sent after the eviction settles, over healthy
	// survivors: its delivery is the completion signal.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && lastIdx.Load() != total-1 {
		time.Sleep(time.Millisecond)
	}

	snapA := a.Snapshot()
	stop.Store(true)
	a.Close()
	b.Close()
	for i := 0; i < nch; i++ {
		txAB[i].Close()
		rxAB[i].Close()
		txBA[i].Close()
		rxBA[i].Close()
	}
	wg.Wait()
	<-done

	if got := lastIdx.Load(); got != total-1 {
		t.Fatalf("transfer did not complete on the survivors: last index %d of %d", got, total-1)
	}
	if got := fifoBreaks.Load(); got != 0 {
		t.Errorf("%d FIFO violations after the link kill", got)
	}
	if tx, _ := a.ChannelState(killCh); tx != MemberRemoved {
		t.Errorf("killed channel tx state = %v, want removed (evicted)", tx)
	}
	var evictions int64
	for _, cs := range snapA.Channels {
		evictions += cs.MemberEvictions
	}
	if evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", evictions)
	}
	// Loss is bounded by what the dead connection had in flight; the
	// survivors' share must all arrive.
	if got := delivered.Load(); got < total*2/3 {
		t.Errorf("delivered only %d/%d packets", got, total)
	}
}

// mutableSender forwards to a channel until it is cut, after which it
// accepts every send and delivers nothing: a link that dies silently.
type mutableSender struct {
	ch  ChannelSender
	cut atomic.Bool
}

func (m *mutableSender) Send(p *Packet) error {
	if m.cut.Load() {
		return nil
	}
	return m.ch.Send(p)
}

// TestSessionDeadDrainRetires removes a channel whose link has already
// died silently, so the leave announcement reaches the receiver on the
// survivors but the departing link's in-flight packets and delimiter
// never do. The receiving Session must retire the draining slot within
// the drain bound and resume delivery on the survivors, with the
// marker timer on and off.
func TestSessionDeadDrainRetires(t *testing.T) {
	for _, interval := range []time.Duration{-1, 0} {
		t.Run(fmt.Sprintf("markerInterval=%v", interval), func(t *testing.T) {
			testDeadDrainRetires(t, interval)
		})
	}
}

func testDeadDrainRetires(t *testing.T, interval time.Duration) {
	const nch, deadCh, phase = 3, 2, 30
	a2b, b2a := make([]*LocalChannel, nch), make([]*LocalChannel, nch)
	txA, txB := make([]ChannelSender, nch), make([]ChannelSender, nch)
	for i := 0; i < nch; i++ {
		a2b[i] = NewLocalChannel(LocalChannelConfig{Delay: 100 * time.Microsecond})
		b2a[i] = NewLocalChannel(LocalChannelConfig{Delay: 100 * time.Microsecond})
		txA[i], txB[i] = a2b[i], b2a[i]
		defer a2b[i].Close()
		defer b2a[i].Close()
	}
	dead := &mutableSender{ch: a2b[deadCh]}
	txA[deadCh] = dead
	cfg := SessionConfig{
		Config:         Config{Quanta: UniformQuanta(nch, 1500), Mode: ModeLogical},
		MarkerInterval: interval,
		Health:         HealthConfig{Disable: true},
	}
	a, err := NewSession(txA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewSession(txB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < nch; i++ {
		b.Attach(i, a2b[i])
		a.Attach(i, b2a[i])
	}

	got := make(chan uint64, 3*phase)
	go func() {
		for p := b.Recv(); p != nil; p = b.Recv() {
			got <- binary.BigEndian.Uint64(p.Payload)
		}
		close(got)
	}()
	send := func(from, to int) {
		for i := from; i < to; i++ {
			payload := make([]byte, 200)
			binary.BigEndian.PutUint64(payload, uint64(i))
			if err := a.SendBytes(payload); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
	}
	recvUntil := func(last uint64, within time.Duration) []uint64 {
		var ids []uint64
		timeout := time.After(within)
		for {
			select {
			case id := <-got:
				ids = append(ids, id)
				if id == last {
					return ids
				}
			case <-timeout:
				t.Fatalf("packet %d not delivered within %v (got %v)", last, within, ids)
			}
		}
	}

	send(0, phase)
	recvUntil(phase-1, 2*time.Second)
	dead.cut.Store(true)
	send(phase, 2*phase) // the dead channel's share is lost
	if err := a.RemoveChannel(deadCh); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	send(2*phase, 3*phase)
	ids := recvUntil(3*phase-1, 2*time.Second)
	took := time.Since(start)

	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("delivery out of order: %v", ids)
		}
	}
	if n := len(ids); n < phase || ids[n-phase] != 2*phase {
		t.Errorf("delivered %v after the cut; want every packet sent after the removal", ids)
	}
	if _, rx := b.ChannelState(deadCh); rx != MemberRemoved {
		t.Errorf("dead channel rx state = %v, want removed", rx)
	}
	// The scan must not retire the slot on its own: only the drain bound
	// (drainIdleTicks ticks of at least defaultMarkerInterval) may.
	if bound := drainIdleTicks * defaultMarkerInterval; took < bound/2 {
		t.Errorf("delivery resumed after %v, before the drain bound (%v) could retire the slot", took, bound)
	}
}
