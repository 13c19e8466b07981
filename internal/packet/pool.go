// Pooled packets: the free-list behind the zero-allocation batched
// hot path. Steady-state striping moves millions of packets per second
// through Send/Arrive/Next; allocating a fresh Packet (and payload
// backing array) per call makes the garbage collector a bandwidth tax.
// The pool recycles both together — a released packet keeps its payload
// capacity, so a traffic mix with a stable size distribution reaches a
// steady state where Get/Release allocate nothing at all. A pool miss
// costs one allocation: the packet and a pooledCap-byte payload
// backing array are allocated as one object.
//
// Lifetime rules (see also the package stripe doc.go walkthrough):
//
//   - Get/GetSized hand the caller exclusive ownership of the packet
//     AND its payload backing array.
//   - Release returns both to the pool. After Release the caller must
//     not touch the packet or any slice of its payload — the next Get
//     anywhere in the process may reuse them.
//   - Release is optional. A packet that is never released is simply
//     garbage collected; correctness never depends on the pool.
//   - Never Release a packet whose payload aliases memory you intend
//     to keep (for example one built with NewData around an
//     application buffer): Release donates the backing array to the
//     pool, and a later GetSized would hand it to a stranger.
//
// Control packets (every Kind but Data) follow one rule per direction.
// Their emitter owns them: a channel's Send only borrows one until it
// returns, and the emitter releases it right after — so a channel that
// holds packets past Send keeps a pooled copy (Keep), never the
// caller's pointer. The receiver owns every control packet it is
// handed and releases it once consumed or dropped. Data ownership is
// the application's, as above.
package packet

import "sync"

// pooledCap is the payload capacity every pooled packet starts with:
// one MTU class, a 1500-byte Ethernet payload plus framing, so common
// traffic never regrows a pooled payload.
const pooledCap = 2048

// pooled is what a pool miss allocates: the packet and its payload
// backing array in one object, so a miss costs one allocation.
type pooled struct {
	p   Packet
	buf [pooledCap]byte
}

// pool recycles packets together with their payload backing arrays.
var pool = sync.Pool{New: func() any {
	b := new(pooled)
	b.p.Payload = b.buf[:0]
	return &b.p
}}

// Get returns a zeroed packet from the pool. Its payload has length
// zero; a fresh one has pooledCap bytes of capacity, a recycled one
// whatever capacity its previous life left. Extend it with append or
// take a sized one with GetSized.
func Get() *Packet {
	return pool.Get().(*Packet)
}

// GetSized returns a pooled Data packet whose payload has length n,
// reusing the pooled backing array when its capacity allows. The
// payload contents are unspecified (they are whatever the previous
// owner left); callers that need zeroed memory should use NewDataSized
// instead.
func GetSized(n int) *Packet {
	p := pool.Get().(*Packet)
	p.Kind = Data
	p.Resize(n)
	return p
}

// Control returns a pooled packet of control kind k with an empty
// payload, for a block's Encode to fill. Whoever emits it owns it: hand
// it to a channel's Send, then Release it once Send returns.
//
//stripe:allowescape sync.Pool's per-P fast path takes no lock, and a steady state of released control packets never misses
func Control(k Kind) *Packet {
	p := pool.Get().(*Packet)
	p.Kind = k
	return p
}

// Keep returns the packet a channel may hold once Send has returned.
// Send borrows a control packet only for the call, so a channel that
// queues packets keeps a pooled copy of one — owned by the channel
// until it hands the copy to a receiver — and never the caller's
// pointer. A data packet is handed over by Send and is returned as is.
func (p *Packet) Keep() *Packet {
	if p.Kind == Data {
		return p // small enough to inline: data pays one compare
	}
	return p.pooledCopy()
}

// pooledCopy returns a pooled deep copy of p.
func (p *Packet) pooledCopy() *Packet {
	q := pool.Get().(*Packet)
	buf := q.Payload
	*q = *p
	q.Payload = append(buf, p.Payload...)
	return q
}

// Release resets the packet and returns it — payload backing array
// included — to the pool. The caller must hold the only reference: the
// packet must already have been delivered (or never sent) and no slice
// of its payload may be retained. Releasing is always optional; skip it
// and the packet is ordinary garbage.
//
//stripe:allowescape sync.Pool's per-P fast path takes no lock
func (p *Packet) Release() {
	p.reset()
	pool.Put(p)
}

// reset clears the packet for its next life, keeping the payload
// backing array.
func (p *Packet) reset() {
	buf := p.Payload
	if buf != nil {
		buf = buf[:0]
	}
	*p = Packet{Payload: buf}
}

// extend grows dst by n zero bytes in place when its capacity allows,
// returning the grown slice and its new n-byte tail. Control-block
// encoders use it to write into a pooled payload.
//
//stripe:allowescape reallocates only when dst lacks capacity; a pooled payload (pooledCap bytes) holds every marker, member and credit block and a telemetry block of up to 50 channels
func extend(dst []byte, n int) (grown, tail []byte) {
	off := len(dst)
	dst = append(dst, make([]byte, n)...)
	return dst, dst[off:]
}

// Resize sets the payload length to n, reusing the backing array when
// its capacity allows. Contents are unspecified. A payload that must
// grow gets at least pooledCap bytes of capacity, so a packet whose
// payload once aliased a small buffer regrows once, not per size step.
// This is how a batch producer sizes packets taken with GetBatch.
func (p *Packet) Resize(n int) {
	if cap(p.Payload) < n {
		p.Payload = make([]byte, n, max(n, pooledCap))
	} else {
		p.Payload = p.Payload[:n]
	}
}

// The batch tier: sync.Pool costs two synchronized operations per
// packet, which at batched line rate is the single largest remaining
// per-packet tax. A whole batch can instead be recycled through one
// mutex round trip on a plain LIFO slab; the slab is bounded, and
// overflow spills into the sync.Pool so nothing is ever lost.
const slabMax = 4096

var (
	slabMu sync.Mutex
	slab   []*Packet
)

// GetBatch fills dst with zeroed pooled packets — one lock round trip
// for the whole batch, falling back to the per-packet pool only when
// the slab runs dry. Payloads have length zero with recycled capacity;
// size them with Resize.
func GetBatch(dst []*Packet) {
	slabMu.Lock()
	n := len(slab)
	take := len(dst)
	if take > n {
		take = n
	}
	copy(dst[:take], slab[n-take:])
	for i := n - take; i < n; i++ {
		slab[i] = nil
	}
	slab = slab[:n-take]
	slabMu.Unlock()
	for i := take; i < len(dst); i++ {
		dst[i] = pool.Get().(*Packet)
	}
}

// ReleaseBatch releases every packet in pkts in one lock round trip
// (nil entries are skipped). The same ownership rules as Release apply
// to each packet. This is the intended partner of RecvBatch: receive a
// batch, consume the payloads, release the batch.
func ReleaseBatch(pkts []*Packet) {
	for _, p := range pkts {
		if p != nil {
			p.reset()
		}
	}
	slabMu.Lock()
	room := slabMax - len(slab)
	keep := len(pkts)
	if keep > room {
		keep = room
	}
	for _, p := range pkts[:keep] {
		if p != nil {
			slab = append(slab, p)
		}
	}
	slabMu.Unlock()
	for _, p := range pkts[keep:] {
		if p != nil {
			pool.Put(p)
		}
	}
}
