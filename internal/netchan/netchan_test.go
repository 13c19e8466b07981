package netchan

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"testing/quick"
	"time"

	"stripe/internal/packet"
)

func TestFrameRoundTrip(t *testing.T) {
	check := func(kind uint8, seq uint64, hasSeq bool, payload []byte) bool {
		p := &packet.Packet{Kind: packet.Kind(kind % 4), Payload: payload}
		if hasSeq {
			p.Seq, p.HasSeq = seq, true
		}
		got, err := DecodeFrame(EncodeFrame(nil, p))
		if err != nil {
			return false
		}
		return got.Kind == p.Kind &&
			got.HasSeq == p.HasSeq &&
			(!p.HasSeq || got.Seq == p.Seq) &&
			bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameInstrumentationNotTransmitted(t *testing.T) {
	p := packet.NewDataSized(10)
	p.ID = 42
	p.Ingress = 7
	got, err := DecodeFrame(EncodeFrame(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0 || got.Ingress != 0 {
		t.Fatalf("instrumentation metadata leaked onto the wire: %+v", got)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	if _, err := DecodeFrame(nil); err != ErrFrameTooShort {
		t.Errorf("nil frame: %v", err)
	}
	if _, err := DecodeFrame([]byte{0}); err != ErrFrameTooShort {
		t.Errorf("1-byte frame: %v", err)
	}
	// Sequence flag set but no sequence bytes.
	if _, err := DecodeFrame([]byte{0, flagSeq, 1, 2}); err != ErrFrameTooShort {
		t.Errorf("truncated seq: %v", err)
	}
}

func TestUDPChannelRoundTrip(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()

	want := [][]byte{[]byte("alpha"), []byte("beta"), make([]byte, 1400)}
	for _, pl := range want {
		if err := send.Send(packet.NewData(pl)); err != nil {
			t.Fatal(err)
		}
	}
	for i, pl := range want {
		p, err := recv.ReadPacket(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			t.Fatalf("packet %d timed out", i)
		}
		if !bytes.Equal(p.Payload, pl) {
			t.Fatalf("packet %d payload mismatch", i)
		}
	}
}

func TestUDPChannelMarker(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()

	m := packet.MarkerBlock{Channel: 3, Round: 17, Deficit: -42}
	if err := send.Send(packet.NewMarker(m)); err != nil {
		t.Fatal(err)
	}
	p, err := recv.ReadPacket(2 * time.Second)
	if err != nil || p == nil {
		t.Fatalf("recv: %v %v", p, err)
	}
	if p.Kind != packet.Marker {
		t.Fatalf("kind = %v", p.Kind)
	}
	got, err := packet.MarkerOf(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("marker = %+v, want %+v", got, m)
	}
}

func TestUDPReadTimeout(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	p, err := recv.ReadPacket(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Fatalf("unexpected packet %v", p)
	}
}

func TestTCPChannelFIFOBulk(t *testing.T) {
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()

	const n = 500
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			p := packet.NewDataSized(100 + i%1300)
			p.Seq, p.HasSeq = uint64(i), true
			if err := send.Send(p); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		p, err := recv.ReadPacket(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			t.Fatalf("packet %d timed out", i)
		}
		if !p.HasSeq || p.Seq != uint64(i) {
			t.Fatalf("packet %d has seq %d (FIFO violated?)", i, p.Seq)
		}
		if p.Len() != 100+i%1300 {
			t.Fatalf("packet %d length %d", i, p.Len())
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTCPReadTimeout(t *testing.T) {
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	p, err := recv.ReadPacket(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Fatalf("unexpected packet %v", p)
	}
}

func TestTCPOversizeRejected(t *testing.T) {
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	p := packet.NewDataSized(MaxFrame + 1)
	if err := send.Send(p); err != ErrFrameTooBig {
		t.Fatalf("Send = %v, want ErrFrameTooBig", err)
	}
}

func TestDecodeFrameStrictness(t *testing.T) {
	// Unknown codepoints and reserved flag bits are rejected, keeping
	// decode/encode canonical (pinned by the fuzzers).
	if _, err := DecodeFrame([]byte{9, 0, 1, 2}); err != ErrBadCodepoint {
		t.Errorf("bad codepoint: %v", err)
	}
	if _, err := DecodeFrame([]byte{0, 0x30, 1, 2}); err != ErrBadFlags {
		t.Errorf("reserved flags: %v", err)
	}
}

// TestDecodeFrameBound pins the decode bound to the highest declared
// codepoint: a frame carrying the max kind decodes, one past it is
// ErrBadCodepoint. The wiresym pass enforces this statically; this test
// catches the same drift at run time (the bound was once left at the
// previous max when Telemetry landed, killing read pumps on valid
// frames).
func TestDecodeFrameBound(t *testing.T) {
	p, err := DecodeFrame([]byte{byte(packet.Telemetry), 0})
	if err != nil {
		t.Fatalf("frame at the codepoint bound rejected: %v", err)
	}
	if p.Kind != packet.Telemetry {
		t.Fatalf("decoded Kind = %v, want Telemetry", p.Kind)
	}
	p.Release()
	if _, err := DecodeFrame([]byte{byte(packet.Telemetry) + 1, 0}); err != ErrBadCodepoint {
		t.Fatalf("frame one past the bound: err = %v, want ErrBadCodepoint", err)
	}
}

func TestUDPSendAfterCloseFails(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	recv.Close()
	send.Close()
	if err := send.Send(packet.NewDataSized(10)); err == nil {
		t.Fatal("send on closed socket succeeded")
	}
	if _, err := recv.ReadPacket(10 * time.Millisecond); err == nil {
		t.Fatal("read on closed socket succeeded")
	}
}

func TestUDPLocalAddr(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	if send.LocalAddr() == nil || recv.LocalAddr() == nil {
		t.Fatal("nil local address")
	}
}

func TestTCPTruncatedRecord(t *testing.T) {
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	// Write a length prefix promising 100 bytes, deliver 3, then close.
	raw := send.conn
	raw.Write([]byte{0, 0, 0, 100, 1, 2, 3})
	raw.Close()
	if _, err := recv.ReadPacket(2 * time.Second); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestTCPOversizeRecordRejectedOnRead(t *testing.T) {
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	defer send.Close()
	// A length prefix beyond MaxFrame must be rejected before any
	// allocation.
	send.conn.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := recv.ReadPacket(2 * time.Second); err != ErrFrameTooBig {
		t.Fatalf("oversize read: %v", err)
	}
}

// --- Framing-desync regression tests ------------------------------------

// scriptedConn is a net.Conn whose Read follows a script: each step
// either delivers a chunk of bytes or injects a deadline-style timeout
// error. It reproduces, deterministically, a read deadline firing at an
// arbitrary byte position inside a record.
type scriptedConn struct {
	steps []scriptStep
}

type scriptStep struct {
	data    []byte
	timeout bool
}

type timeoutError struct{}

func (timeoutError) Error() string   { return "i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

func (c *scriptedConn) Read(b []byte) (int, error) {
	if len(c.steps) == 0 {
		return 0, io.EOF
	}
	s := c.steps[0]
	if s.timeout {
		c.steps = c.steps[1:]
		return 0, timeoutError{}
	}
	n := copy(b, s.data)
	if n < len(s.data) {
		c.steps[0].data = s.data[n:]
	} else {
		c.steps = c.steps[1:]
	}
	return n, nil
}

func (c *scriptedConn) Write(b []byte) (int, error)      { return len(b), nil }
func (c *scriptedConn) Close() error                     { return nil }
func (c *scriptedConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptedConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// record builds one length-prefixed wire record for p.
func record(t *testing.T, p *packet.Packet) []byte {
	t.Helper()
	frame := EncodeFrame(nil, p)
	rec := make([]byte, recordLn+len(frame))
	binary.BigEndian.PutUint32(rec, uint32(len(frame)))
	copy(rec[recordLn:], frame)
	return rec
}

// TestTCPTimeoutMidPrefixKeepsSync reproduces the framing desync where
// a read deadline fired after part of the 4-byte length prefix had been
// consumed: the old ReadPacket returned (nil, nil) and discarded the
// partial prefix, so the next call misparsed mid-record bytes as a
// fresh prefix and every subsequent frame on the connection was lost.
// With partial-read state persisted, the timeout is reported as
// idleness and the record — and every record after it — decodes intact.
func TestTCPTimeoutMidPrefixKeepsSync(t *testing.T) {
	a := &packet.Packet{Kind: packet.Data, Payload: []byte("first-record"), Seq: 7, HasSeq: true}
	b := &packet.Packet{Kind: packet.Data, Payload: []byte("second-record")}
	recA, recB := record(t, a), record(t, b)
	ch := NewTCPChannel(&scriptedConn{steps: []scriptStep{
		{data: recA[:2]}, // half the length prefix...
		{timeout: true},  // ...then the deadline fires
		{data: recA[2:]},
		{data: recB},
	}})

	p, err := ch.ReadPacket(time.Second)
	if err != nil || p != nil {
		t.Fatalf("timeout mid-prefix: got (%v, %v), want (nil, nil)", p, err)
	}
	p, err = ch.ReadPacket(time.Second)
	if err != nil {
		t.Fatalf("resumed read: %v", err)
	}
	if p == nil || string(p.Payload) != "first-record" || !p.HasSeq || p.Seq != 7 {
		t.Fatalf("resumed read returned %+v, want the first record intact", p)
	}
	p, err = ch.ReadPacket(time.Second)
	if err != nil {
		t.Fatalf("follow-up read: %v", err)
	}
	if p == nil || string(p.Payload) != "second-record" {
		t.Fatalf("stream desynced after timeout: follow-up record %+v", p)
	}
}

// TestTCPTimeoutMidBodyKeepsSync reproduces the second desync: a
// deadline firing mid-record was reported as a permanent "truncated
// record" error even though the connection was healthy and the rest of
// the record was still in flight. It must read as idleness, and the
// record must complete on the next call.
func TestTCPTimeoutMidBodyKeepsSync(t *testing.T) {
	a := &packet.Packet{Kind: packet.Data, Payload: []byte("slow-but-whole")}
	b := &packet.Packet{Kind: packet.Marker, Payload: []byte("after")}
	recA, recB := record(t, a), record(t, b)
	ch := NewTCPChannel(&scriptedConn{steps: []scriptStep{
		{data: recA[:recordLn+5]}, // prefix plus a body fragment...
		{timeout: true},           // ...then the deadline fires mid-body
		{timeout: true},           // (twice: the poller polls again)
		{data: recA[recordLn+5:]},
		{data: recB},
	}})

	for i := 0; i < 2; i++ {
		p, err := ch.ReadPacket(time.Second)
		if err != nil || p != nil {
			t.Fatalf("timeout mid-body #%d: got (%v, %v), want (nil, nil)", i, p, err)
		}
	}
	p, err := ch.ReadPacket(time.Second)
	if err != nil {
		t.Fatalf("resumed read: %v", err)
	}
	if p == nil || string(p.Payload) != "slow-but-whole" {
		t.Fatalf("resumed read returned %+v, want the full record", p)
	}
	p, err = ch.ReadPacket(time.Second)
	if err != nil || p == nil || p.Kind != packet.Marker || string(p.Payload) != "after" {
		t.Fatalf("stream desynced after mid-body timeout: got (%+v, %v)", p, err)
	}
}

// TestTCPDribbledStreamKeepsSync drives a whole multi-record stream
// byte by byte with a timeout injected between every byte — the
// worst-case deadline placement — and requires every record to arrive
// intact and in order.
func TestTCPDribbledStreamKeepsSync(t *testing.T) {
	var wire []byte
	want := make([]string, 5)
	for i := range want {
		want[i] = string(rune('a'+i)) + "-payload"
		wire = append(wire, record(t, &packet.Packet{Kind: packet.Data, Payload: []byte(want[i])})...)
	}
	var steps []scriptStep
	for i := range wire {
		steps = append(steps, scriptStep{data: wire[i : i+1]}, scriptStep{timeout: true})
	}
	ch := NewTCPChannel(&scriptedConn{steps: steps})

	var got []string
	for i := 0; i < 2*len(wire) && len(got) < len(want); i++ {
		p, err := ch.ReadPacket(time.Second)
		if err != nil {
			t.Fatalf("after %d records: %v", len(got), err)
		}
		if p != nil {
			got = append(got, string(p.Payload))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q (stream desynced)", i, got[i], want[i])
		}
	}
}

// TestTCPReadBufferReuseDoesNotAlias pins DecodeFrame's copy semantics:
// ReadPacket reuses one channel-owned record buffer, so the packets it
// returns must not alias it — an earlier packet's payload must survive
// later reads.
func TestTCPReadBufferReuseDoesNotAlias(t *testing.T) {
	a := &packet.Packet{Kind: packet.Data, Payload: []byte("aaaaaaaa")}
	b := &packet.Packet{Kind: packet.Data, Payload: []byte("bbbbbbbb")}
	ch := NewTCPChannel(&scriptedConn{steps: []scriptStep{
		{data: record(t, a)}, {data: record(t, b)},
	}})
	pa, err := ch.ReadPacket(time.Second)
	if err != nil || pa == nil {
		t.Fatalf("first read: (%v, %v)", pa, err)
	}
	pb, err := ch.ReadPacket(time.Second)
	if err != nil || pb == nil {
		t.Fatalf("second read: (%v, %v)", pb, err)
	}
	if string(pa.Payload) != "aaaaaaaa" {
		t.Fatalf("first payload corrupted by buffer reuse: %q", pa.Payload)
	}
}

// TestTCPSendBatchRoundTrip drives the batched TCP send path over a
// real socket pair: one SendBatch flush, every record delivered FIFO.
func TestTCPSendBatchRoundTrip(t *testing.T) {
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	pkts := make([]*packet.Packet, 32)
	for i := range pkts {
		pl := make([]byte, 64)
		binary.BigEndian.PutUint64(pl, uint64(i))
		pkts[i] = &packet.Packet{Kind: packet.Data, Payload: pl, Seq: uint64(i), HasSeq: true}
	}
	n, err := send.SendBatch(pkts)
	if err != nil || n != len(pkts) {
		t.Fatalf("SendBatch = (%d, %v), want (%d, nil)", n, err, len(pkts))
	}
	for i := range pkts {
		p, err := recv.ReadPacket(2 * time.Second)
		if err != nil || p == nil {
			t.Fatalf("read %d: (%v, %v)", i, p, err)
		}
		if got := binary.BigEndian.Uint64(p.Payload); got != uint64(i) || p.Seq != uint64(i) {
			t.Fatalf("record %d arrived as payload %d seq %d", i, got, p.Seq)
		}
		p.Release()
	}
}

// TestUDPSendBatchRoundTrip covers the per-datagram batched UDP path.
func TestUDPSendBatchRoundTrip(t *testing.T) {
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	pkts := make([]*packet.Packet, 8)
	for i := range pkts {
		pl := make([]byte, 32)
		binary.BigEndian.PutUint64(pl, uint64(i))
		pkts[i] = &packet.Packet{Kind: packet.Data, Payload: pl}
	}
	n, err := send.SendBatch(pkts)
	if err != nil || n != len(pkts) {
		t.Fatalf("SendBatch = (%d, %v), want (%d, nil)", n, err, len(pkts))
	}
	for i := range pkts {
		p, err := recv.ReadPacket(2 * time.Second)
		if err != nil || p == nil {
			t.Fatalf("read %d: (%v, %v)", i, p, err)
		}
		if got := binary.BigEndian.Uint64(p.Payload); got != uint64(i) {
			t.Fatalf("datagram %d arrived as %d", i, got)
		}
	}
}

// TestTCPRoundTripZeroAlloc pins the allocation-free TCP path: in steady
// state a SendBatch of framed records and the ReadPacket of each, with
// the decoded packets released, allocate nothing.
func TestTCPRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("decoded packets cycle through sync.Pool, which drops Puts under -race")
	}
	send, recv, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	pkts := make([]*packet.Packet, 16)
	for i := range pkts {
		pkts[i] = &packet.Packet{Kind: packet.Data, Payload: make([]byte, 64+90*i), Seq: uint64(i), HasSeq: true}
	}
	roundTrip := func() {
		if n, err := send.SendBatch(pkts); err != nil || n != len(pkts) {
			t.Fatalf("SendBatch = (%d, %v)", n, err)
		}
		for i := range pkts {
			p, err := recv.ReadPacket(2 * time.Second)
			if err != nil || p == nil {
				t.Fatalf("read %d: (%v, %v)", i, p, err)
			}
			p.Release()
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs != 0 {
		t.Fatalf("TCP round trip of %d records allocates %.1f times, want 0", len(pkts), allocs)
	}
}

// TestUDPRoundTripZeroAlloc is the datagram counterpart: a Send and the
// matching ReadPacket, with the decoded packet released, allocate
// nothing in steady state.
func TestUDPRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("decoded packets cycle through sync.Pool, which drops Puts under -race")
	}
	send, recv, err := UDPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	defer recv.Close()
	pkt := &packet.Packet{Kind: packet.Data, Payload: make([]byte, 1400)}
	roundTrip := func() {
		if err := send.Send(pkt); err != nil {
			t.Fatal(err)
		}
		p, err := recv.ReadPacket(2 * time.Second)
		if err != nil || p == nil {
			t.Fatalf("read: (%v, %v)", p, err)
		}
		p.Release()
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("UDP round trip allocates %.1f times, want 0", allocs)
	}
}
