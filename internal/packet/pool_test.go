package packet

import (
	"runtime"
	"testing"
)

var sinkPacket *Packet

// TestPoolMissIsOneAllocation pins the cost of a pool miss: the packet
// and its MTU-class payload backing array come from one allocation, so
// sizing a fresh packet for a full-size frame allocates nothing more.
func TestPoolMissIsOneAllocation(t *testing.T) {
	// Two collections empty the pool, victim cache included; nothing
	// below puts a packet back, so every Get misses.
	runtime.GC()
	runtime.GC()
	allocs := testing.AllocsPerRun(100, func() {
		sinkPacket = GetSized(1500)
	})
	if allocs != 1 {
		t.Fatalf("pool miss + GetSized(1500) allocates %.1f times, want 1", allocs)
	}
	if c := cap(sinkPacket.Payload); c != pooledCap {
		t.Fatalf("fresh pooled payload capacity %d, want %d", c, pooledCap)
	}
}

// TestResizeKeepsPooledFloor checks that a payload which must grow gets
// at least the pooled capacity, so a packet that once carried a small
// buffer regrows once rather than at every larger size it meets.
func TestResizeKeepsPooledFloor(t *testing.T) {
	p := &Packet{Payload: make([]byte, 8)}
	p.Resize(100)
	if len(p.Payload) != 100 || cap(p.Payload) != pooledCap {
		t.Fatalf("Resize(100) from cap 8: len %d cap %d, want 100 and %d", len(p.Payload), cap(p.Payload), pooledCap)
	}
	p.Resize(pooledCap + 1)
	if len(p.Payload) != pooledCap+1 {
		t.Fatalf("Resize past the floor: len %d", len(p.Payload))
	}
	p.Resize(10)
	if len(p.Payload) != 10 || cap(p.Payload) != pooledCap+1 {
		t.Fatalf("shrinking Resize reallocated: len %d cap %d", len(p.Payload), cap(p.Payload))
	}
}
