package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// MarkerBlock is the payload of a marker packet for one channel
// (Section 5). It carries the implicit packet number — the tuple
// (Round, Deficit) — of the next packet the sender will transmit on the
// channel, together with the sender's numbering of the channel so both
// ends agree on the round-robin visiting order (condition C2).
//
// Markers are the only control traffic the basic protocol needs. They
// never touch data packets; they are distinguished by the channel's
// codepoint mechanism.
type MarkerBlock struct {
	// Channel is the sender's number for the channel the marker was sent
	// on. Receivers adopt this numbering (condition C2 of Section 5).
	Channel uint32
	// Round is the sender's global round number G for the next packet to
	// be sent on this channel.
	Round uint64
	// Deficit is the channel's deficit counter immediately before the
	// next service of the channel (before the quantum is added).
	Deficit int64
	// Credits optionally piggybacks a cumulative flow-control credit
	// grant (for the reverse direction's channel) on the periodic
	// marker, as suggested in Section 6.3. Zero means "no credit
	// information" — grants are monotone and start positive.
	Credits uint64
	// Sent is the sender's cumulative count of data payload bytes
	// transmitted on this channel at the instant the marker was cut —
	// the authoritative sender position that lets the receiver
	// reconcile flow-control credits after loss. Because channels are
	// FIFO, every data byte counted here has either arrived before the
	// marker or is lost, so Sent minus the receiver's arrival count is
	// exactly the cumulative loss on the channel.
	Sent uint64
	// RNG optionally carries the 64-bit state of a randomized (RFQ)
	// scheduler so the receiver can resynchronize its simulation of a
	// randomized striper. Zero for deterministic schedulers.
	RNG uint64
	// TxNs is the sender-clock timestamp (nanoseconds) at the instant
	// the marker was cut. Paired with the receiver's arrival clock it
	// feeds the peer telemetry plane's NTP-style min-filter one-way
	// delay estimate per channel; each raw sample includes the clock
	// offset between the two hosts, so only cross-channel differences
	// are meaningful. Zero means "unstamped" and disables the estimate.
	TxNs int64
}

// Marker wire format:
//
//	offset size  field
//	0      4     magic "SMRK"
//	4      4     channel (big endian)
//	8      8     round
//	16     8     deficit (two's complement)
//	24     8     credits (cumulative grant)
//	32     8     sent (cumulative data bytes sent on the channel)
//	40     8     rng state
//	48     8     txns (sender-clock timestamp, two's complement)
//	56     4     CRC-32C (Castagnoli) over bytes [0,56)
//
// The format is fixed-size so markers are cheap to produce and validate
// even at high rates, and checksummed so a corrupted marker is discarded
// rather than desynchronizing the receiver (the marker-recovery theorem
// assumes corruption is detectable).
const (
	markerMagic = "SMRK"
	// MarkerWireLen is the encoded size of a marker block in bytes.
	MarkerWireLen = 60
)

// Errors returned by marker and credit decoding.
var (
	ErrBadMagic  = errors.New("packet: bad control-block magic")
	ErrBadLength = errors.New("packet: control block truncated")
	ErrChecksum  = errors.New("packet: control-block checksum mismatch")
)

// ctrlTable is the CRC-32C (Castagnoli) table used by every control
// block. Castagnoli rather than IEEE because Go computes it with the
// dedicated CRC instruction on common platforms, which matters at
// marker rates: control blocks are cut and validated on the data hot
// path, and both ends of a stripe group share this constant by
// construction.
var ctrlTable = crc32.MakeTable(crc32.Castagnoli)

// ctrlCRC is the checksum over a control block's fixed-size body.
//
//stripe:hotpath
func ctrlCRC(b []byte) uint32 { return crc32.Checksum(b, ctrlTable) }

// Encode appends the wire representation of the block to dst and returns
// the extended slice.
func (m *MarkerBlock) Encode(dst []byte) []byte {
	dst, b := extend(dst, MarkerWireLen)
	copy(b[0:4], markerMagic)
	binary.BigEndian.PutUint32(b[4:8], m.Channel)
	binary.BigEndian.PutUint64(b[8:16], m.Round)
	binary.BigEndian.PutUint64(b[16:24], uint64(m.Deficit)) // two's-complement wire form; DecodeMarker undoes it exactly
	binary.BigEndian.PutUint64(b[24:32], m.Credits)
	binary.BigEndian.PutUint64(b[32:40], m.Sent)
	binary.BigEndian.PutUint64(b[40:48], m.RNG)
	binary.BigEndian.PutUint64(b[48:56], uint64(m.TxNs)) // two's-complement wire form, like Deficit
	binary.BigEndian.PutUint32(b[56:60], ctrlCRC(b[0:56]))
	return dst
}

// DecodeMarker parses a marker block from b.
func DecodeMarker(b []byte) (MarkerBlock, error) {
	var m MarkerBlock
	if len(b) < MarkerWireLen {
		return m, ErrBadLength
	}
	if string(b[0:4]) != markerMagic {
		return m, ErrBadMagic
	}
	if ctrlCRC(b[0:56]) != binary.BigEndian.Uint32(b[56:60]) {
		return m, ErrChecksum
	}
	m.Channel = binary.BigEndian.Uint32(b[4:8])
	m.Round = binary.BigEndian.Uint64(b[8:16])
	m.Deficit = int64(binary.BigEndian.Uint64(b[16:24])) // inverse of Encode's two's-complement form; a deficit is signed
	m.Credits = binary.BigEndian.Uint64(b[24:32])
	m.Sent = binary.BigEndian.Uint64(b[32:40])
	m.RNG = binary.BigEndian.Uint64(b[40:48])
	m.TxNs = int64(binary.BigEndian.Uint64(b[48:56])) // inverse of Encode's two's-complement form
	return m, nil
}

// NewMarker returns a pooled marker packet carrying the block (see
// Control for its ownership).
func NewMarker(m MarkerBlock) *Packet {
	p := Control(Marker)
	p.Payload = m.Encode(p.Payload)
	return p
}

// MarkerOf extracts the marker block from a marker packet.
//
//stripe:allowescape error construction only on mis-kinded packets, and the magic-string check is compiler-elided; the valid-marker path is allocation-free
func MarkerOf(p *Packet) (MarkerBlock, error) {
	if p.Kind != Marker {
		return MarkerBlock{}, fmt.Errorf("packet: MarkerOf on %s packet", p.Kind)
	}
	return DecodeMarker(p.Payload)
}

// CreditBlock is the payload of a credit packet flowing from receiver to
// sender on one channel. Grant is cumulative: it names the highest byte
// count the sender is permitted to have sent on the channel, in the
// style of Kung's flow-controlled virtual channels.
type CreditBlock struct {
	// Channel is the channel the grant applies to.
	Channel uint32
	// Grant is the cumulative number of payload bytes the receiver has
	// buffer space for on this channel.
	Grant uint64
}

const (
	creditMagic = "SCRD"
	// CreditWireLen is the encoded size of a credit block in bytes.
	CreditWireLen = 20
)

// Encode appends the wire representation of the block to dst.
func (c *CreditBlock) Encode(dst []byte) []byte {
	dst, b := extend(dst, CreditWireLen)
	copy(b[0:4], creditMagic)
	binary.BigEndian.PutUint32(b[4:8], c.Channel)
	binary.BigEndian.PutUint64(b[8:16], c.Grant)
	binary.BigEndian.PutUint32(b[16:20], ctrlCRC(b[0:16]))
	return dst
}

// DecodeCredit parses a credit block from b.
func DecodeCredit(b []byte) (CreditBlock, error) {
	var c CreditBlock
	if len(b) < CreditWireLen {
		return c, ErrBadLength
	}
	if string(b[0:4]) != creditMagic {
		return c, ErrBadMagic
	}
	if ctrlCRC(b[0:16]) != binary.BigEndian.Uint32(b[16:20]) {
		return c, ErrChecksum
	}
	c.Channel = binary.BigEndian.Uint32(b[4:8])
	c.Grant = binary.BigEndian.Uint64(b[8:16])
	return c, nil
}

// NewCredit returns a pooled credit packet carrying the block (see
// Control for its ownership).
func NewCredit(c CreditBlock) *Packet {
	p := Control(Credit)
	p.Payload = c.Encode(p.Payload)
	return p
}

// CreditOf extracts the credit block from a credit packet.
func CreditOf(p *Packet) (CreditBlock, error) {
	if p.Kind != Credit {
		return CreditBlock{}, fmt.Errorf("packet: CreditOf on %s packet", p.Kind)
	}
	return DecodeCredit(p.Payload)
}
