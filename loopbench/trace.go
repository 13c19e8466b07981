package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"stripe"
)

// Span names: one per public boundary the benchmark calls into (or, for
// netchan.write and netchan.sysread, that the program calls out of into
// the wrapped net.Conn). The program itself carries no instrumentation;
// every span is recorded here, around the call.
const (
	lSessSend   = iota // Session.SendBatch, from the application
	lSessRecv          // Session.RecvBatch
	lSessArrive        // Session.Arrive, from a read pump
	lNetSend           // ChannelSender.Send/SendBatch, from the striper
	lNetWrite          // net.Conn.Write under a TCPChannel (one write call)
	lNetRead           // ReadPacket calls that returned a packet
	lNetSysRead        // net.Conn.Read under a TCPChannel (one read call)
	lPktGet            // GetPacketSized
	lPktRelease        // Packet.Release
	numLayers
)

var layerNames = [numLayers]string{
	"session.send", "session.recv", "session.arrive", "netchan.send",
	"netchan.write", "netchan.read", "netchan.sysread", "packet.get",
	"packet.release",
}

// layerAgg accumulates the spans of one name recorded at one site,
// padded to its own cache line so goroutines recording at different
// sites do not contend.
type layerAgg struct {
	calls, ns, childNs, items, bytes atomic.Int64
	_                                [24]byte
}

// aggs is one recording site's set of aggregates. Each goroutine-bound
// site (an end's application calls, a read pump, a channel wrapper)
// gets its own, and a snapshot sums them.
type aggs [numLayers]layerAgg

// aggSnap is a layer's totals at one instant; differences of two
// snapshots give a window's totals.
type aggSnap struct {
	calls, ns, childNs, items, bytes int64
}

func (a aggSnap) sub(b aggSnap) aggSnap {
	return aggSnap{a.calls - b.calls, a.ns - b.ns, a.childNs - b.childNs, a.items - b.items, a.bytes - b.bytes}
}

// span is one recorded call: ids are process-unique, parent is 0 for a
// root, op is the benchmark sequence number of the first data packet
// the call carried (0 when it carried none).
type span struct {
	id, parent uint32
	layer      uint8
	start, end int64
	op         uint64
}

// maxSpans bounds the spans kept for the trace file; aggregates cover
// every span regardless.
const maxSpans = 1 << 16

// unstored is the id of a span begun once the span buffer is full: it
// still marks its children as nested, without a shared id counter.
const unstored = ^uint32(0)

// tracer records spans in memory. A nil *tracer records nothing, which
// is how the untraced runs call the same helpers.
type tracer struct {
	base   time.Time
	ids    atomic.Uint32
	from   atomic.Int64 // spans starting before this are aggregated but not stored
	stored atomic.Int64
	spans  []span

	mu   sync.Mutex
	sets []*aggs
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), spans: make([]span, maxSpans)}
	t.from.Store(math.MaxInt64)
	return t
}

// site returns a fresh set of aggregates for one recording site; nil
// on a nil tracer.
func (t *tracer) site() *aggs {
	if t == nil {
		return nil
	}
	a := new(aggs)
	t.mu.Lock()
	t.sets = append(t.sets, a)
	t.mu.Unlock()
	return a
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin() (uint32, int64) {
	if t.stored.Load() >= maxSpans {
		return unstored, t.now()
	}
	return t.ids.Add(1), t.now()
}

// end closes span id of layer l, recorded into a. parent is the
// enclosing span's id (0 for none) and pa the aggregate charged its
// duration as child time.
func (t *tracer) end(a *aggs, l int, id uint32, start int64, parent uint32, pa *layerAgg, op uint64, items, bytes int) {
	end := t.now()
	d := end - start
	g := &a[l]
	g.calls.Add(1)
	g.ns.Add(d)
	g.items.Add(int64(items))
	g.bytes.Add(int64(bytes))
	if parent != 0 {
		pa.childNs.Add(d)
	}
	if id != unstored && start >= t.from.Load() {
		if k := t.stored.Add(1) - 1; k < int64(len(t.spans)) {
			t.spans[k] = span{id: id, parent: parent, layer: uint8(l), start: start, end: end, op: op}
		}
	}
}

func (t *tracer) snapshot() [numLayers]aggSnap {
	var s [numLayers]aggSnap
	if t == nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.sets {
		for i := range a {
			g := &a[i]
			s[i].calls += g.calls.Load()
			s[i].ns += g.ns.Load()
			s[i].childNs += g.childNs.Load()
			s[i].items += g.items.Load()
			s[i].bytes += g.bytes.Load()
		}
	}
	return s
}

// write stores the kept spans as CSV. Call it only after every
// goroutine that records spans has stopped.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns,op")
	n := t.stored.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	for _, s := range t.spans[:n] {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", s.id, s.parent, layerNames[s.layer], s.start, s.end, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opOf is the benchmark sequence number a data packet carries.
func opOf(p *stripe.Packet) uint64 {
	if p.Kind != stripe.KindData || len(p.Payload) < hdrLen {
		return 0
	}
	return binary.LittleEndian.Uint64(p.Payload)
}

// frameLen is the datagram size netchan writes for p: a 2-byte header,
// the optional 8-byte sequence number, and the payload.
func frameLen(p *stripe.Packet) int {
	n := 2 + len(p.Payload)
	if p.HasSeq {
		n += 8
	}
	return n
}

// chanScope carries the in-flight spans one channel end's wrapped
// net.Conn parents its calls under, and where their child time goes.
type chanScope struct {
	tx    atomic.Uint32 // current netchan.send span
	rx    atomic.Uint32 // current netchan.read span
	txAgg *aggs         // the channel's tracedSender
	rxAgg *aggs         // the channel's read pump
}

// batchSender is the channel shape the striper drives with one call per
// same-channel run; both netchan channel types implement it, so every
// wrapper here does too, or the striper would fall back to one call
// per packet and the benchmark would change what it measures.
type batchSender interface {
	Send(*stripe.Packet) error
	SendBatch([]*stripe.Packet) (int, error)
}

// tracedSender times the striper's calls into one channel.
type tracedSender struct {
	inner batchSender
	tr    *tracer
	agg   *aggs
	owner *end
	scope *chanScope
}

func (w *tracedSender) Send(p *stripe.Packet) error {
	id, start := w.tr.begin()
	w.scope.tx.Store(id)
	err := w.inner.Send(p)
	w.tr.end(w.agg, lNetSend, id, start, w.owner.sending.Load(), &w.owner.agg[lSessSend], opOf(p), 1, frameLen(p))
	return err
}

func (w *tracedSender) SendBatch(pkts []*stripe.Packet) (int, error) {
	id, start := w.tr.begin()
	w.scope.tx.Store(id)
	n, err := w.inner.SendBatch(pkts)
	bytes := 0
	for _, p := range pkts[:n] {
		bytes += frameLen(p)
	}
	var op uint64
	if len(pkts) > 0 {
		op = opOf(pkts[0])
	}
	w.tr.end(w.agg, lNetSend, id, start, w.owner.sending.Load(), &w.owner.agg[lSessSend], op, n, bytes)
	return n, err
}

// tracedConn times the write and read calls a TCPChannel makes on its
// connection: each is one write or read system call on the socket.
type tracedConn struct {
	net.Conn
	tr    *tracer
	agg   *aggs
	scope *chanScope
}

func (c *tracedConn) Write(b []byte) (int, error) {
	id, start := c.tr.begin()
	n, err := c.Conn.Write(b)
	c.tr.end(c.agg, lNetWrite, id, start, c.scope.tx.Load(), &c.scope.txAgg[lNetSend], 0, 1, n)
	return n, err
}

func (c *tracedConn) Read(b []byte) (int, error) {
	id, start := c.tr.begin()
	n, err := c.Conn.Read(b)
	c.tr.end(c.agg, lNetSysRead, id, start, c.scope.rx.Load(), &c.scope.rxAgg[lNetRead], 0, 1, n)
	return n, err
}
