package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stripe"
)

// nch is the number of channels per direction: one per CPU of the
// two-CPU host the workloads were sized on.
const nch = 2

// readTimeout is the read pumps' poll interval, as in the repository's
// duplex example.
const readTimeout = 50 * time.Millisecond

// end is one Session with the benchmark's call helpers around it. With a
// nil tracer the helpers call straight through.
type end struct {
	s       *stripe.Session
	col     *stripe.Collector // nil unless the workload attaches one
	tr      *tracer
	agg     *aggs         // spans of the application goroutine using this end
	sending atomic.Uint32 // id of the in-flight session.send span
}

func (e *end) sendBatch(pkts []*stripe.Packet) (int, error) {
	if e.tr == nil {
		return e.s.SendBatch(pkts)
	}
	id, start := e.tr.begin()
	e.sending.Store(id)
	n, err := e.s.SendBatch(pkts)
	e.sending.Store(0)
	var op uint64
	if len(pkts) > 0 {
		op = opOf(pkts[0])
	}
	e.tr.end(e.agg, lSessSend, id, start, 0, nil, op, n, 0)
	return n, err
}

func (e *end) recvBatch(dst []*stripe.Packet) int {
	if e.tr == nil {
		return e.s.RecvBatch(dst)
	}
	id, start := e.tr.begin()
	n := e.s.RecvBatch(dst)
	var op uint64
	if n > 0 {
		op = opOf(dst[0])
	}
	e.tr.end(e.agg, lSessRecv, id, start, 0, nil, op, n, 0)
	return n
}

// get fills dst from the packet pool, dst[i] sized size(i). One span
// covers the whole loop of GetPacketSized calls.
func (e *end) get(dst []*stripe.Packet, size func(i int) int) {
	var id uint32
	var start int64
	if e.tr != nil {
		id, start = e.tr.begin()
	}
	for i := range dst {
		dst[i] = stripe.GetPacketSized(size(i))
	}
	if e.tr != nil {
		e.tr.end(e.agg, lPktGet, id, start, 0, nil, 0, len(dst), 0)
	}
}

// release hands pkts back to the pool, one span for the loop.
func (e *end) release(pkts []*stripe.Packet) {
	var id uint32
	var start int64
	if e.tr != nil {
		id, start = e.tr.begin()
	}
	for _, p := range pkts {
		p.Release()
	}
	if e.tr != nil {
		e.tr.end(e.agg, lPktRelease, id, start, 0, nil, 0, len(pkts), 0)
	}
}

// lossPer10k is lossy_udp's loss rate: 1%.
const lossPer10k = 100

// lossSender drops a seeded, independent 1% of every packet kind the
// session hands to one channel. The decision for the i-th packet is a
// hash of (seed, direction, channel, i), so one seed gives one loss
// pattern. Dropped packets count as accepted — to the sender, wire loss.
// The striper calls channels under the session lock, which serializes
// idx and keep.
type lossSender struct {
	inner   batchSender
	key     uint64
	armed   *atomic.Bool
	idx     uint64
	keep    []*stripe.Packet
	dropped atomic.Int64
}

func (l *lossSender) drop() bool {
	if !l.armed.Load() {
		return false
	}
	i := l.idx
	l.idx++
	if mix(l.key^mix(i))%10000 < lossPer10k {
		l.dropped.Add(1)
		return true
	}
	return false
}

func (l *lossSender) Send(p *stripe.Packet) error {
	if l.drop() {
		return nil
	}
	return l.inner.Send(p)
}

func (l *lossSender) SendBatch(pkts []*stripe.Packet) (int, error) {
	l.keep = l.keep[:0]
	var at []int // original index of each kept packet, built only on loss
	for i, p := range pkts {
		if l.drop() {
			if at == nil {
				at = make([]int, 0, len(pkts))
				for j := range l.keep {
					at = append(at, j)
				}
			}
			continue
		}
		l.keep = append(l.keep, p)
		if at != nil {
			at = append(at, i)
		}
	}
	if len(l.keep) == 0 {
		return len(pkts), nil
	}
	n, err := l.inner.SendBatch(l.keep)
	if err == nil {
		return len(pkts), nil
	}
	if at == nil {
		return n, err
	}
	if n == len(at) {
		return len(pkts), err
	}
	return at[n], err
}

// faultSender damages the stream once, after skip data packets: it
// duplicates, corrupts or reorders data. It exists for the self-test,
// which proves the delivery check catches each fault.
type faultSender struct {
	inner batchSender
	kind  string
	skip  int
	done  bool
}

func (f *faultSender) Send(p *stripe.Packet) error {
	_, err := f.SendBatch([]*stripe.Packet{p})
	return err
}

func (f *faultSender) SendBatch(pkts []*stripe.Packet) (int, error) {
	if f.done || pkts[0].Kind != stripe.KindData {
		return f.inner.SendBatch(pkts)
	}
	if f.skip > 0 {
		f.skip -= len(pkts)
		return f.inner.SendBatch(pkts)
	}
	switch f.kind {
	case "dup":
		f.done = true
		batch := append([]*stripe.Packet{pkts[0]}, pkts...)
		n, err := f.inner.SendBatch(batch)
		if n > 0 {
			n--
		}
		return n, err
	case "corrupt":
		f.done = true
		p := pkts[0].Payload
		p[len(p)-1] ^= 0xff
	case "reorder":
		if len(pkts) < 2 {
			return f.inner.SendBatch(pkts)
		}
		f.done = true
		pkts[0], pkts[1] = pkts[1], pkts[0]
	}
	return f.inner.SendBatch(pkts)
}

// reader is the receive side of both netchan channel types.
type reader interface {
	ReadPacket(timeout time.Duration) (*stripe.Packet, error)
}

// stackOpts describes one pair of sessions over loopback sockets.
type stackOpts struct {
	udp     bool
	session func() (a, b stripe.SessionConfig)
	loss    bool
	seed    uint64
	tr      *tracer
	inject  string // fault for the self-test, or ""
}

// stack is a Session pair, a, sending to b over nch channels per
// direction, with the read pumps that feed each Session's Arrive.
type stack struct {
	a, b     *end
	closers  []io.Closer
	armed    atomic.Bool // lossSenders drop only once armed
	losses   []*lossSender
	stop     atomic.Bool
	pumps    sync.WaitGroup
	timeouts atomic.Int64
	readErrs atomic.Int64 // read errors before stop: a broken channel
	closed   sync.Once
}

func newStack(o stackOpts) (*stack, error) {
	st := &stack{}
	if err := st.open(o); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) open(o stackOpts) error {
	var txA, txB [nch]batchSender
	var rxA, rxB [nch]reader // rxA: what a reads (sent by b)
	var scA, scB [nch]*chanScope
	for i := range scA {
		scA[i] = &chanScope{txAgg: o.tr.site(), rxAgg: o.tr.site()}
		scB[i] = &chanScope{txAgg: o.tr.site(), rxAgg: o.tr.site()}
	}
	if o.udp {
		for i := 0; i < nch; i++ {
			s, r, err := stripe.NewUDPChannelPair()
			if err != nil {
				return fmt.Errorf("udp channel a->b %d: %w", i, err)
			}
			st.closers = append(st.closers, s, r)
			txA[i], rxB[i] = s, r
			s, r, err = stripe.NewUDPChannelPair()
			if err != nil {
				return fmt.Errorf("udp channel b->a %d: %w", i, err)
			}
			st.closers = append(st.closers, s, r)
			txB[i], rxA[i] = s, r
		}
	} else {
		// One TCP connection per channel index, carrying a->b channel i in
		// one direction and b->a channel i in the other.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		defer ln.Close()
		for i := 0; i < nch; i++ {
			ca, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return fmt.Errorf("dial %d: %w", i, err)
			}
			st.closers = append(st.closers, ca)
			cb, err := ln.Accept()
			if err != nil {
				return fmt.Errorf("accept %d: %w", i, err)
			}
			st.closers = append(st.closers, cb)
			if o.tr != nil {
				ca = &tracedConn{Conn: ca, tr: o.tr, agg: o.tr.site(), scope: scA[i]}
				cb = &tracedConn{Conn: cb, tr: o.tr, agg: o.tr.site(), scope: scB[i]}
			}
			ta, tb := stripe.NewTCPChannel(ca), stripe.NewTCPChannel(cb)
			txA[i], rxA[i] = ta, ta
			txB[i], rxB[i] = tb, tb
		}
	}

	st.a = &end{tr: o.tr, agg: o.tr.site()}
	st.b = &end{tr: o.tr, agg: o.tr.site()}
	cfgA, cfgB := o.session()
	build := func(e *end, cfg stripe.SessionConfig, tx [nch]batchSender, sc [nch]*chanScope, dir uint64) error {
		chans := make([]stripe.ChannelSender, nch)
		for i, c := range tx {
			if o.tr != nil {
				c = &tracedSender{inner: c, tr: o.tr, agg: sc[i].txAgg, owner: e, scope: sc[i]}
			}
			if o.inject != "" && dir == 0 && i == 0 {
				c = &faultSender{inner: c, kind: o.inject, skip: 1000}
			}
			if o.loss {
				l := &lossSender{inner: c, key: mix(o.seed ^ mix(dir<<8|uint64(i))), armed: &st.armed}
				st.losses = append(st.losses, l)
				c = l
			}
			chans[i] = c
		}
		s, err := stripe.NewSession(chans, cfg)
		if err != nil {
			return err
		}
		e.s, e.col = s, cfg.Collector
		return nil
	}
	if err := build(st.a, cfgA, txA, scA, 0); err != nil {
		return fmt.Errorf("session a: %w", err)
	}
	if err := build(st.b, cfgB, txB, scB, 1); err != nil {
		return fmt.Errorf("session b: %w", err)
	}
	for i := 0; i < nch; i++ {
		st.pump(st.b, i, rxB[i], scB[i])
		st.pump(st.a, i, rxA[i], scA[i])
	}
	return nil
}

// pump feeds e.Arrive from one channel until the stack closes.
func (st *stack) pump(e *end, c int, r reader, sc *chanScope) {
	st.pumps.Add(1)
	go func() {
		defer st.pumps.Done()
		tr, agg := e.tr, sc.rxAgg
		for {
			var id uint32
			var start int64
			if tr != nil {
				id, start = tr.begin()
				sc.rx.Store(id)
			}
			p, err := r.ReadPacket(readTimeout)
			if err != nil {
				if !st.stop.Load() {
					st.readErrs.Add(1)
				}
				return
			}
			if p == nil {
				st.timeouts.Add(1)
				if st.stop.Load() {
					return
				}
				continue
			}
			if tr == nil {
				e.s.Arrive(c, p)
				continue
			}
			op := opOf(p) // read before Arrive hands the packet over
			tr.end(agg, lNetRead, id, start, 0, nil, op, 1, frameLen(p))
			id, start = tr.begin()
			e.s.Arrive(c, p)
			tr.end(agg, lSessArrive, id, start, 0, nil, op, 1, 0)
		}
	}()
}

// probe sends one data packet a->b and waits for its in-order delivery,
// the last step of set-up.
func (st *stack) probe() error {
	p := stripe.GetPacketSized(64)
	fill(p.Payload, 0, 0, 0, 0)
	if err := st.a.s.Send(p); err != nil {
		return fmt.Errorf("probe send: %w", err)
	}
	p.Release()
	timer := time.AfterFunc(10*time.Second, st.b.s.Close)
	defer timer.Stop()
	got := st.b.s.Recv()
	if got == nil {
		return errors.New("probe not delivered within 10s")
	}
	got.Release()
	return nil
}

// close stops the sessions and sockets and waits for the read pumps.
func (st *stack) close() {
	st.closed.Do(func() {
		st.stop.Store(true)
		for _, e := range []*end{st.a, st.b} {
			if e != nil && e.s != nil {
				e.s.Close()
			}
		}
		for _, c := range st.closers {
			c.Close()
		}
		st.pumps.Wait()
	})
}

// discard is a channel that accepts and drops everything: it isolates
// the Session's own transmit cost for the decomposition check.
type discard struct{}

func (discard) Send(*stripe.Packet) error                 { return nil }
func (discard) SendBatch(p []*stripe.Packet) (int, error) { return len(p), nil }
