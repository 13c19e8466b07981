// Package netchan carries striped channels over real sockets, the way
// the paper's Section 6.3 experiments striped packets across multiple
// application sockets. A TCP connection is a FIFO channel with flow
// control; a UDP socket pair is a channel with neither reliability nor
// flow control (the configuration the credit-based scheme was added
// for).
//
// The framing plays the role of the data link header: a one-byte
// codepoint distinguishes control packets (markers, credits, resets,
// membership, telemetry) from data
// (the paper's requirement that the lower layer provide demultiplexing
// for markers), a flag byte and optional sequence number support the
// "with header" protocol variants, and the data payload is carried
// verbatim.
package netchan

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"stripe/internal/packet"
)

// MaxFrame is the largest accepted frame payload; larger frames are
// rejected as corrupt rather than allocated.
const MaxFrame = 1 << 24

// Frame header layout:
//
//	0    1  codepoint (packet.Kind)
//	1    1  flags (bit 0: sequence number present)
//	2    8  sequence number (present only when flagged)
//	...     payload
const (
	flagSeq  = 0x01
	hdrBase  = 2
	hdrSeq   = 8
	recordLn = 4 // TCP length prefix
)

// ErrFrameTooShort is returned when a frame cannot hold its own header.
var ErrFrameTooShort = errors.New("netchan: frame too short")

// ErrFrameTooBig is returned when a record length exceeds MaxFrame.
var ErrFrameTooBig = errors.New("netchan: frame exceeds MaxFrame")

// ErrBadCodepoint is returned for an unknown packet kind.
var ErrBadCodepoint = errors.New("netchan: unknown frame codepoint")

// ErrBadFlags is returned when reserved flag bits are set.
var ErrBadFlags = errors.New("netchan: reserved flag bits set")

// EncodeFrame serialises p into the channel framing, appending to dst.
func EncodeFrame(dst []byte, p *packet.Packet) []byte {
	var flags byte
	if p.HasSeq {
		flags |= flagSeq
	}
	dst = append(dst, byte(p.Kind), flags)
	if p.HasSeq {
		var seq [8]byte
		binary.BigEndian.PutUint64(seq[:], p.Seq)
		dst = append(dst, seq[:]...)
	}
	return append(dst, p.Payload...)
}

// DecodeFrame parses a frame back into a packet. The payload is copied
// out of b — never aliased — so the caller may reuse (or overwrite) the
// buffer immediately; that copy is what lets the channels below read
// every record into one channel-owned buffer. The returned packet is
// drawn from the packet pool: once the receiver is done with it (and
// retains no slice of its payload) it may hand it back with
// Packet.Release, making the steady-state receive path allocation-free.
func DecodeFrame(b []byte) (*packet.Packet, error) {
	if len(b) < hdrBase {
		return nil, ErrFrameTooShort
	}
	if b[0] > byte(packet.Telemetry) {
		return nil, ErrBadCodepoint
	}
	flags := b[1]
	if flags&^flagSeq != 0 {
		return nil, ErrBadFlags
	}
	p := packet.Get()
	p.Kind = packet.Kind(b[0])
	b = b[hdrBase:]
	if flags&flagSeq != 0 {
		if len(b) < hdrSeq {
			p.Release()
			return nil, ErrFrameTooShort
		}
		p.Seq = binary.BigEndian.Uint64(b[:hdrSeq])
		p.HasSeq = true
		b = b[hdrSeq:]
	}
	p.Resize(len(b))
	copy(p.Payload, b)
	return p, nil
}

// UDPChannel is one striped channel over a pair of connected UDP
// sockets. The send side implements channel.Sender; the receive side
// blocks in ReadPacket. Loopback UDP is FIFO in practice; occasional
// deviations fall under the paper's burst-error model and are exactly
// what the marker protocol recovers from.
type UDPChannel struct {
	conn *net.UDPConn
	buf  []byte
}

// UDPPair creates a connected loopback socket pair and returns the two
// channel ends.
func UDPPair() (send *UDPChannel, recv *UDPChannel, err error) {
	b, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, nil, err
	}
	// A connected sender socket needs no per-write address and lets the
	// kernel filter stray datagrams.
	ac, err := net.DialUDP("udp", nil, b.LocalAddr().(*net.UDPAddr))
	if err != nil {
		b.Close()
		return nil, nil, err
	}
	return &UDPChannel{conn: ac, buf: make([]byte, 64*1024)},
		&UDPChannel{conn: b, buf: make([]byte, 64*1024)}, nil
}

// Send implements channel.Sender: one frame per datagram.
func (u *UDPChannel) Send(p *packet.Packet) error {
	frame := EncodeFrame(u.buf[:0], p)
	_, err := u.conn.Write(frame)
	return err
}

// SendBatch implements channel.BatchSender. Datagram boundaries are
// packet boundaries, so each packet still goes out as its own write —
// there is nothing to coalesce without sendmmsg — but the whole batch
// reuses the channel's one encode buffer, so batched UDP sends allocate
// nothing.
func (u *UDPChannel) SendBatch(pkts []*packet.Packet) (int, error) {
	for i, p := range pkts {
		if err := u.Send(p); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// ReadPacket blocks for up to timeout (zero means forever) and returns
// the next packet. A timeout returns (nil, nil) so pollers can
// distinguish idleness from failure.
func (u *UDPChannel) ReadPacket(timeout time.Duration) (*packet.Packet, error) {
	if timeout > 0 {
		if err := u.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	} else {
		if err := u.conn.SetReadDeadline(time.Time{}); err != nil {
			return nil, err
		}
	}
	n, err := u.conn.Read(u.buf)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil, nil
		}
		return nil, err
	}
	return DecodeFrame(u.buf[:n])
}

// Close releases the socket.
func (u *UDPChannel) Close() error { return u.conn.Close() }

// LocalAddr exposes the bound address (tests and demos print it).
func (u *UDPChannel) LocalAddr() net.Addr { return u.conn.LocalAddr() }

// TCPChannel is one striped channel over a TCP connection with
// length-prefixed records. TCP supplies FIFO order, reliability and
// flow control; it models the paper's "channel as a transport
// connection" case (striping across multiple intelligent adaptors).
type TCPChannel struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	wbuf []byte

	// In-flight read state, persisted across ReadPacket calls so a read
	// deadline can fire at any byte position without desyncing the
	// record stream: however much of the current record has been
	// consumed stays here, and the next call resumes where this one
	// stopped.
	rlen     [recordLn]byte // partially read length prefix
	rlenN    int            // bytes of rlen consumed so far
	rbody    []byte         // channel-owned record buffer, reused every read
	rbodyN   int            // bytes of the current record consumed so far
	rbodyLen int            // current record length; -1 while reading the prefix
}

// NewTCPChannel wraps an established connection.
func NewTCPChannel(conn net.Conn) *TCPChannel {
	return &TCPChannel{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 64*1024),
		br:       bufio.NewReaderSize(conn, 64*1024),
		rbodyLen: -1,
	}
}

// TCPPair returns both ends of a loopback TCP connection.
func TCPPair() (*TCPChannel, *TCPChannel, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	//stripe:allowleak bounded: Accept returns once the deferred ln.Close runs on every exit path, and the buffered send then completes
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	acc := <-ch
	if acc.err != nil {
		dial.Close()
		return nil, nil, acc.err
	}
	return NewTCPChannel(dial), NewTCPChannel(acc.c), nil
}

// writeFrame encodes p and buffers its length-prefixed record without
// flushing. The prefix is reserved at the front of the channel's encode
// buffer, so the record goes to the writer in one Write and nothing
// escapes per frame.
func (t *TCPChannel) writeFrame(p *packet.Packet) error {
	t.wbuf = EncodeFrame(append(t.wbuf[:0], make([]byte, recordLn)...), p)
	n := len(t.wbuf) - recordLn
	if n > MaxFrame {
		return ErrFrameTooBig
	}
	binary.BigEndian.PutUint32(t.wbuf[:recordLn], uint32(n))
	_, err := t.bw.Write(t.wbuf)
	return err
}

// Send implements channel.Sender: the frame is written as one record
// and flushed, preserving packet boundaries over the byte stream.
func (t *TCPChannel) Send(p *packet.Packet) error {
	if err := t.writeFrame(p); err != nil {
		return err
	}
	return t.bw.Flush()
}

// SendBatch implements channel.BatchSender: every record is buffered
// and the writer flushed once, so a batch costs one write syscall
// instead of one per packet — the writev of the record stream. A flush
// failure leaves delivery of the buffered records uncertain; they are
// counted as accepted (indistinguishable from wire loss, which the
// striping protocol already recovers from) and the error is returned.
func (t *TCPChannel) SendBatch(pkts []*packet.Packet) (int, error) {
	for i, p := range pkts {
		if err := t.writeFrame(p); err != nil {
			// Push any complete records already buffered so a failure on
			// pkts[i] cannot desync the stream for its predecessors.
			if ferr := t.bw.Flush(); ferr != nil {
				return i, ferr
			}
			return i, err
		}
	}
	if err := t.bw.Flush(); err != nil {
		return len(pkts), err
	}
	return len(pkts), nil
}

// ReadPacket blocks for up to timeout (zero means forever) and returns
// the next packet; a timeout returns (nil, nil).
//
// A deadline may fire at any byte position — half-way through the
// 4-byte length prefix, or mid-record — without corrupting the stream:
// the partial state is persisted on the channel and the next call
// resumes the same record where this one stopped. (The previous
// implementation discarded a partial prefix on timeout and reported a
// mid-record timeout as a permanent truncation; either desynced every
// subsequent frame on the connection.) A non-timeout error mid-record
// (connection torn down) is reported as a truncated record.
func (t *TCPChannel) ReadPacket(timeout time.Duration) (*packet.Packet, error) {
	if timeout > 0 {
		if err := t.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	} else {
		if err := t.conn.SetReadDeadline(time.Time{}); err != nil {
			return nil, err
		}
	}
	if t.rbodyLen < 0 {
		for t.rlenN < recordLn {
			m, err := t.br.Read(t.rlen[t.rlenN:])
			t.rlenN += m
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					return nil, nil // prefix bytes so far stay in rlen
				}
				return nil, err
			}
		}
		n := binary.BigEndian.Uint32(t.rlen[:])
		t.rlenN = 0
		if n > MaxFrame {
			return nil, ErrFrameTooBig
		}
		t.rbodyLen = int(n)
		t.rbodyN = 0
		if cap(t.rbody) < t.rbodyLen {
			t.rbody = make([]byte, t.rbodyLen)
		}
	}
	body := t.rbody[:t.rbodyLen]
	for t.rbodyN < t.rbodyLen {
		m, err := t.br.Read(body[t.rbodyN:])
		t.rbodyN += m
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return nil, nil // record bytes so far stay in rbody
			}
			return nil, fmt.Errorf("netchan: truncated record: %w", err)
		}
	}
	// The record is complete; DecodeFrame copies the payload out of
	// body, so rbody is free for the next record immediately.
	t.rbodyLen = -1
	return DecodeFrame(body)
}

// Close releases the connection.
func (t *TCPChannel) Close() error { return t.conn.Close() }
