package main

import (
	"math"
	"sync/atomic"
	"time"

	"stripe"
)

// Load shape: one producer (or client) goroutine and one consumer (or
// server) goroutine per workload, plus the read pumps the API requires.
const (
	bulkBatch   = 64   // packets per SendBatch on the one-way workloads
	recvBatch   = 256  // RecvBatch capacity
	rpcWindow   = 16   // requests a client keeps outstanding
	rpcReqSize  = 128  // request payload bytes
	rpcRespSize = 1024 // response payload bytes
)

// live holds the counters the measuring goroutine reads while a
// workload runs. An op is one delivered data packet (one-way workloads)
// or one completed round trip (rpc_tcp).
type live struct {
	ops       atomic.Int64 // completed ops
	bytes     atomic.Int64 // in-order payload bytes delivered
	attempted atomic.Int64 // ops started
	misorders atomic.Int64 // deliveries below an already delivered seq
	failures  atomic.Int64
	stopping  atomic.Bool
	// The measured window is n slots of slot ns from lo, which holds
	// "never" until the window opens. Ops are bucketed by send time.
	lo   atomic.Int64
	slot int64
	n    int
}

func (l *live) init(slot time.Duration, n int) {
	l.lo.Store(math.MaxInt64)
	l.slot, l.n = int64(slot), n
}

// bucket is the window slot send time t falls in, or -1 outside it.
func (l *live) bucket(t int64) int {
	lo := l.lo.Load()
	if t < lo {
		return -1
	}
	if i := (t - lo) / l.slot; i < int64(l.n) {
		return int(i)
	}
	return -1
}

// buckets are latency samples (ns) per window slot.
type buckets [][]int64

func (b *buckets) add(i int, v ...int64) {
	for len(*b) <= i {
		*b = append(*b, nil)
	}
	(*b)[i] = append((*b)[i], v...)
}

// driver runs one workload on a stack.
type driver interface {
	start()
	counters() *live
	// mark is called as the measured window opens and as it closes.
	mark(open bool)
	// stop ends the load and waits, up to a deadline, for every op in
	// flight to complete; it reports ops that never completed.
	stop() (lost int64)
	// finish returns the samples; call it after the stack is closed.
	finish() samples
}

// samples are the per-op figures a run keeps, in nanoseconds.
type samples struct {
	lat buckets // one-way: send call to in-order delivery, per slot
	rtt buckets // rpc_tcp: send call to response delivered, per slot
	// delivered counts the distinct ops in [seqLo, seqHi) that
	// completed: the measured window's sequence numbers on the one-way
	// workloads, the whole run on rpc_tcp.
	seqLo, seqHi uint64
	delivered    int64
}

// clock is the benchmark's time base for the timestamps in payloads.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// stream is the one-way workload: a producer batching pooled packets
// into a.SendBatch, a consumer checking every b.RecvBatch delivery.
type stream struct {
	live
	st     *stack
	clk    clock
	seed   uint64
	strict bool // TCP: any gap or misorder is a failure
	next   atomic.Uint64
	total  atomic.Int64 // deliveries, failed ones and warm-up included
	lat    buckets
	seen   bitset
	// seqLo/seqHi bracket the window in sequence numbers.
	seqLo, seqHi atomic.Uint64
	prodDone     chan struct{}
	consDone     chan struct{}
}

func newStream(st *stack, clk clock, seed uint64, strict bool, slot time.Duration, n int) *stream {
	s := &stream{st: st, clk: clk, seed: seed, strict: strict,
		prodDone: make(chan struct{}), consDone: make(chan struct{})}
	s.init(slot, n)
	return s
}

func (s *stream) counters() *live { return &s.live }

func (s *stream) start() {
	go s.produce()
	go s.consume()
}

func (s *stream) produce() {
	defer close(s.prodDone)
	a := s.st.a
	pkts := make([]*stripe.Packet, bulkBatch)
	var next uint64
	for !s.stopping.Load() {
		ts := s.clk.now()
		a.get(pkts, func(i int) int { return bulkSize(s.seed, next+uint64(i)) })
		for i, p := range pkts {
			fill(p.Payload, next+uint64(i), ts, 0, s.seed)
		}
		n, err := a.sendBatch(pkts)
		a.release(pkts)
		next += uint64(n)
		s.next.Store(next)
		if s.bucket(ts) >= 0 {
			s.attempted.Add(int64(n))
		}
		if err != nil {
			s.failures.Add(1)
			return
		}
	}
}

func (s *stream) consume() {
	defer close(s.consDone)
	b := s.st.b
	dst := make([]*stripe.Packet, recvBatch)
	var expect, maxSeq uint64
	var any bool
	for {
		n := b.recvBatch(dst)
		if n == 0 {
			return
		}
		now := s.clk.now()
		var ops, bytes, misorders, fails int64
		for _, p := range dst[:n] {
			h, ok := verify(p.Payload, 0, s.seed)
			switch {
			case !ok || len(p.Payload) != bulkSize(s.seed, h.seq):
				fails++
			case s.seen.set(h.seq):
				fails++ // duplicate
			default:
				if s.strict && h.seq != expect {
					fails++
				}
				if any && h.seq < maxSeq {
					misorders++
				}
				if !any || h.seq > maxSeq {
					maxSeq = h.seq
				}
				any = true
				expect = h.seq + 1
				ops++
				bytes += int64(len(p.Payload))
				if i := s.bucket(h.sent); i >= 0 {
					s.lat.add(i, now-h.sent)
				}
			}
		}
		b.release(dst[:n])
		s.total.Add(int64(n))
		s.ops.Add(ops)
		s.bytes.Add(bytes)
		s.misorders.Add(misorders)
		s.failures.Add(fails)
	}
}

// mark records the window's bounds in sequence numbers.
func (s *stream) mark(open bool) {
	if open {
		s.seqLo.Store(s.next.Load())
	} else {
		s.seqHi.Store(s.next.Load())
	}
}

func (s *stream) stop() int64 {
	s.stopping.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	select {
	case <-s.prodDone:
	case <-time.After(time.Until(deadline)):
		return 1 // a producer wedged in SendBatch; closing the stack frees it
	}
	sent := int64(s.next.Load())
	last, idleSince := s.total.Load(), time.Now()
	for {
		got := s.total.Load()
		if got >= sent {
			return 0
		}
		if got != last {
			last, idleSince = got, time.Now()
		}
		// Over a lossy channel the tail never completes; stop once
		// several marker intervals pass without a delivery.
		if !s.strict && time.Since(idleSince) > 300*time.Millisecond {
			return 0
		}
		if time.Now().After(deadline) {
			return sent - got
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *stream) finish() samples {
	<-s.prodDone
	<-s.consDone
	lo, hi := s.seqLo.Load(), s.seqHi.Load()
	return samples{lat: s.lat, seqLo: lo, seqHi: hi, delivered: s.seen.countRange(lo, hi)}
}

// rpc is the closed-loop request/response workload: a client on a
// keeping rpcWindow requests outstanding, a server on b answering each.
type rpc struct {
	live
	st         *stack
	clk        clock
	seed       uint64
	rtt, lat   buckets       // client side: round trips, response legs
	done       int64         // client side: round trips completed
	srvLat     buckets       // server side: request legs
	sent       atomic.Uint64 // requests sent, warm-up included
	clientDone chan struct{}
	serverDone chan struct{}
}

func newRPC(st *stack, clk clock, seed uint64, slot time.Duration, n int) *rpc {
	r := &rpc{st: st, clk: clk, seed: seed,
		clientDone: make(chan struct{}), serverDone: make(chan struct{})}
	r.init(slot, n)
	return r
}

func (r *rpc) counters() *live { return &r.live }

func (r *rpc) mark(bool) {}

func (r *rpc) start() {
	go r.client()
	go r.server()
}

// Requests and responses use different check-pattern salts, so a
// request delivered where a response belongs fails the check.
func (r *rpc) reqSalt() uint64  { return r.seed }
func (r *rpc) respSalt() uint64 { return ^r.seed }

func (r *rpc) client() {
	defer close(r.clientDone)
	a := r.st.a
	var next, expect uint64
	outstanding := 0
	reqs := make([]*stripe.Packet, 0, recvBatch)
	send := func(k int) bool {
		ts := r.clk.now()
		reqs = reqs[:k]
		a.get(reqs, func(int) int { return rpcReqSize })
		for i, p := range reqs {
			fill(p.Payload, next+uint64(i), ts, 0, r.reqSalt())
		}
		n, err := a.sendBatch(reqs)
		a.release(reqs)
		next += uint64(n)
		r.sent.Store(next)
		outstanding += n
		if r.bucket(ts) >= 0 {
			r.attempted.Add(int64(n))
		}
		if err != nil {
			r.failures.Add(1)
			return false
		}
		return true
	}
	if !send(rpcWindow) {
		return
	}
	dst := make([]*stripe.Packet, recvBatch)
	for outstanding > 0 {
		n := a.recvBatch(dst)
		if n == 0 {
			return
		}
		now := r.clk.now()
		var ops, bytes, fails int64
		for _, p := range dst[:n] {
			h, ok := verify(p.Payload, rpcRespSize, r.respSalt())
			if !ok || h.seq != expect {
				fails++
			} else {
				ops++
				bytes += int64(len(p.Payload))
				if i := r.bucket(h.echo); i >= 0 {
					r.rtt.add(i, now-h.echo)
					r.lat.add(i, now-h.sent)
				}
			}
			expect = h.seq + 1
		}
		a.release(dst[:n])
		outstanding -= n
		r.done += ops
		r.ops.Add(ops)
		r.bytes.Add(bytes)
		r.failures.Add(fails)
		if !r.stopping.Load() && !send(n) {
			return
		}
	}
}

func (r *rpc) server() {
	defer close(r.serverDone)
	b := r.st.b
	dst := make([]*stripe.Packet, recvBatch)
	resps := make([]*stripe.Packet, 0, recvBatch)
	var expect uint64
	for {
		n := b.recvBatch(dst)
		if n == 0 {
			return
		}
		now := r.clk.now()
		var bytes, fails int64
		resps = resps[:n]
		b.get(resps, func(int) int { return rpcRespSize })
		for i, p := range dst[:n] {
			h, ok := verify(p.Payload, rpcReqSize, r.reqSalt())
			if !ok || h.seq != expect {
				fails++
			} else {
				bytes += int64(len(p.Payload))
				if i := r.bucket(h.sent); i >= 0 {
					r.srvLat.add(i, now-h.sent)
				}
			}
			expect = h.seq + 1
			fill(resps[i].Payload, h.seq, now, h.sent, r.respSalt())
		}
		b.release(dst[:n])
		r.bytes.Add(bytes)
		r.failures.Add(fails)
		_, err := b.sendBatch(resps)
		b.release(resps)
		if err != nil {
			r.failures.Add(1)
			return
		}
	}
}

func (r *rpc) stop() int64 {
	r.stopping.Store(true)
	select {
	case <-r.clientDone:
		return 0
	case <-time.After(10 * time.Second):
		return rpcWindow
	}
}

func (r *rpc) finish() samples {
	<-r.clientDone
	<-r.serverDone
	// The loop drains before the stack closes, so every request sent
	// should have completed.
	for i, v := range r.srvLat {
		r.lat.add(i, v...)
	}
	return samples{lat: r.lat, rtt: r.rtt,
		seqHi: r.sent.Load(), delivered: r.done}
}
