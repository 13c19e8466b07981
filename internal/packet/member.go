package packet

import (
	"encoding/binary"
	"fmt"
)

// MemberOp names the membership transition a Member packet announces.
type MemberOp uint8

const (
	// MemberLeave announces that Target has left the sender's transmit
	// set (drained or evicted).
	MemberLeave MemberOp = iota
	// MemberJoin announces that Target has (re)joined; Round carries the
	// round in which the sender's scheduler will first serve it, so the
	// receiver can re-derive the Section 5 skip rule for the newcomer.
	MemberJoin
	// MemberStatus is a keepalive restating the current membership with
	// no transition; health monitors also use it to probe an evicted
	// channel without perturbing protocol state.
	MemberStatus
)

// String returns the conventional name of the op.
func (o MemberOp) String() string {
	switch o {
	case MemberLeave:
		return "leave"
	case MemberJoin:
		return "join"
	case MemberStatus:
		return "status"
	default:
		return fmt.Sprintf("memberop(%d)", uint8(o))
	}
}

// MemberBlock is the payload of a Member packet: one announcement of
// the sender's live transmit channel set. The channel universe (the
// numbering of condition C2) is fixed at construction; membership
// enables and disables slots within it, so the block carries the full
// surviving set as a bitmap rather than a delta. Announcements are
// sequenced: the receiver applies only blocks whose Seq exceeds the
// last one it applied, which makes re-broadcast (for loss resilience)
// and reordering harmless.
type MemberBlock struct {
	// Seq is the sender's monotone announcement sequence number,
	// incremented on every membership transition.
	Seq uint64
	// Op is the transition being announced.
	Op MemberOp
	// Target is the channel joining or leaving (ignored for
	// MemberStatus).
	Target uint32
	// Round is, for MemberJoin, the round in which the sender's
	// scheduler first serves Target; for other ops, the sender's global
	// round number when the announcement was cut. Receivers that missed
	// earlier announcements use it as a conservative skip-until bound.
	Round uint64
	// Active is the post-transition membership bitmap: bit c set means
	// channel c is in the transmit set. The bitmap bounds dynamic
	// membership to 64-channel universes, far above the paper's
	// deployments.
	Active uint64
	// N is the size of the fixed channel universe, for validation.
	N uint32
}

// ActiveChannel reports whether the bitmap marks channel c live.
func (m *MemberBlock) ActiveChannel(c int) bool {
	if c < 0 || c >= 64 {
		return false
	}
	return m.Active&(uint64(1)<<uint(c)) != 0 // c is range-checked above, so the shift is in [0,64)
}

// Member wire format:
//
//	offset size  field
//	0      4     magic "SMBR"
//	4      8     seq
//	12     1     op
//	13     4     target (big endian)
//	17     8     round
//	25     8     active bitmap
//	33     4     n (universe size)
//	37     4     CRC-32C (Castagnoli) over bytes [0,37)
//
// Fixed-size and checksummed for the same reasons as markers: cheap to
// validate, and a corrupted announcement is dropped rather than
// desynchronizing the two ends' membership views.
const (
	memberMagic = "SMBR"
	// MemberWireLen is the encoded size of a member block in bytes.
	MemberWireLen = 41
)

// Encode appends the wire representation of the block to dst and
// returns the extended slice.
func (m *MemberBlock) Encode(dst []byte) []byte {
	dst, b := extend(dst, MemberWireLen)
	copy(b[0:4], memberMagic)
	binary.BigEndian.PutUint64(b[4:12], m.Seq)
	b[12] = byte(m.Op) // MemberOp is uint8-valued by construction
	binary.BigEndian.PutUint32(b[13:17], m.Target)
	binary.BigEndian.PutUint64(b[17:25], m.Round)
	binary.BigEndian.PutUint64(b[25:33], m.Active)
	binary.BigEndian.PutUint32(b[33:37], m.N)
	binary.BigEndian.PutUint32(b[37:41], ctrlCRC(b[0:37]))
	return dst
}

// DecodeMember parses a member block from b.
func DecodeMember(b []byte) (MemberBlock, error) {
	var m MemberBlock
	if len(b) < MemberWireLen {
		return m, ErrBadLength
	}
	if string(b[0:4]) != memberMagic {
		return m, ErrBadMagic
	}
	if ctrlCRC(b[0:37]) != binary.BigEndian.Uint32(b[37:41]) {
		return m, ErrChecksum
	}
	m.Seq = binary.BigEndian.Uint64(b[4:12])
	m.Op = MemberOp(b[12])
	m.Target = binary.BigEndian.Uint32(b[13:17])
	m.Round = binary.BigEndian.Uint64(b[17:25])
	m.Active = binary.BigEndian.Uint64(b[25:33])
	m.N = binary.BigEndian.Uint32(b[33:37])
	return m, nil
}

// NewMember returns a pooled member packet carrying the block (see
// Control for its ownership).
func NewMember(m MemberBlock) *Packet {
	p := Control(Member)
	p.Payload = m.Encode(p.Payload)
	return p
}

// MemberOf extracts the member block from a member packet.
//
//stripe:allowescape error construction only on mis-kinded packets, and the magic-string check is compiler-elided; the valid-member path is allocation-free
func MemberOf(p *Packet) (MemberBlock, error) {
	if p.Kind != Member {
		return MemberBlock{}, fmt.Errorf("packet: MemberOf on %s packet", p.Kind)
	}
	return DecodeMember(p.Payload)
}
