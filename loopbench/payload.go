package main

import "encoding/binary"

// Every payload starts with a 24-byte header — sequence number, send
// time and an echo field (a response carries its request's send time) —
// followed by a check pattern derived from the sequence number and a
// salt, so a delivery's order, duplication and integrity are all
// checked from the packet alone. Payload sizes are multiples of 8.
const hdrLen = 24

// mix is the splitmix64 finalizer: a cheap, well-spread hash that turns
// (seed, index) pairs into independent pseudo-random draws, so the size
// mix and the loss pattern depend on the seed and nothing else.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bulkSize is the seeded 50/50 mix of the smallest packet (64 B, where
// per-packet cost dominates) and a near-MTU one (1400 B, where copy cost
// dominates).
func bulkSize(seed, seq uint64) int {
	if mix(seed^mix(seq))&1 == 0 {
		return 64
	}
	return 1400
}

// fill writes the header and check pattern into p.
func fill(p []byte, seq uint64, sent, echo int64, salt uint64) {
	binary.LittleEndian.PutUint64(p[0:], seq)
	binary.LittleEndian.PutUint64(p[8:], uint64(sent))
	binary.LittleEndian.PutUint64(p[16:], uint64(echo))
	w := mix(seq ^ salt)
	for i := hdrLen; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], w+uint64(i))
	}
}

// header is a decoded, verified payload header.
type header struct {
	seq  uint64
	sent int64
	echo int64
}

// verify decodes p and checks its length against want (0 accepts any
// valid length) and its check pattern against salt.
func verify(p []byte, want int, salt uint64) (header, bool) {
	if len(p) < hdrLen || len(p)%8 != 0 || (want > 0 && len(p) != want) {
		return header{}, false
	}
	h := header{
		seq:  binary.LittleEndian.Uint64(p[0:]),
		sent: int64(binary.LittleEndian.Uint64(p[8:])),
		echo: int64(binary.LittleEndian.Uint64(p[16:])),
	}
	w := mix(h.seq ^ salt)
	for i := hdrLen; i+8 <= len(p); i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) != w+uint64(i) {
			return header{}, false
		}
	}
	return h, true
}

// bitset records which sequence numbers were delivered, to tell
// duplicates from first deliveries.
type bitset []uint64

// set marks i and reports whether it was already marked.
func (b *bitset) set(i uint64) bool {
	w := int(i / 64)
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	m := uint64(1) << (i % 64)
	was := (*b)[w]&m != 0
	(*b)[w] |= m
	return was
}

// countRange counts the marked indices in [lo, hi).
func (b bitset) countRange(lo, hi uint64) int64 {
	var n int64
	for i := lo; i < hi; i++ {
		if w := int(i / 64); w < len(b) && b[w]&(1<<(i%64)) != 0 {
			n++
		}
	}
	return n
}
