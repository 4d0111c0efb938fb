package nicbase

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Size classes span 64 B (small write and control payloads) to 4 MB (the
// largest block size the experiments use). Each class holds buffers of
// exactly its power-of-two capacity, so Put can classify by cap alone and a
// recycled buffer always satisfies any request that maps to its class.
const (
	poolMinBits = 6
	poolMaxBits = 22
	poolClasses = poolMaxBits - poolMinBits + 1
)

// BufPool recycles block-sized byte buffers across transfers through
// power-of-two size classes. The dataplane allocates one staging or arrival
// buffer per block in steady state (the first-block landing area, early
// arrivals the receiver has not posted for, inbound write payloads);
// classing by size means a workload mixing 1 MB blocks
// with 64 B control payloads recycles both instead of thrashing one shared
// free list. Requests beyond the largest class fall through to the garbage
// collector, and Put drops any buffer whose capacity is not an exact class
// size — an oversize or foreign buffer can never poison a class. A class
// holds a buffer as the pointer to its first byte, which an interface
// carries without an allocation; the exact class capacity rebuilds the
// slice.
type BufPool struct {
	classes [poolClasses]sync.Pool
}

// classFor maps a request of n bytes to the smallest class that holds it.
// Callers have already bounded n to (0, 1<<poolMaxBits].
func classFor(n int) int {
	c := bits.Len(uint(n-1)) - poolMinBits
	if c < 0 {
		return 0
	}
	return c
}

// Get returns a buffer of length n (contents unspecified). Buffers larger
// than the top class are freshly allocated and will not be pooled on Put.
func (p *BufPool) Get(n int) []byte {
	if n <= 0 {
		// Zero-length requests still get a non-nil buffer: nil payloads
		// mean "virtual frame" to the transports, and a zero-size
		// allocation costs nothing.
		return []byte{}
	}
	if n > 1<<poolMaxBits {
		return make([]byte, n)
	}
	c := classFor(n)
	if v := p.classes[c].Get(); v != nil {
		return unsafe.Slice(v.(*byte), 1<<(c+poolMinBits))[:n]
	}
	return make([]byte, n, 1<<(c+poolMinBits))
}

// Put recycles a buffer obtained from Get once its contents have been
// consumed. The caller must not touch b afterwards. Buffers whose capacity
// is not an exact class size (oversize allocations, slices from elsewhere)
// are dropped for the GC rather than filed under a class they don't fit.
func (p *BufPool) Put(b []byte) {
	c := cap(b)
	if c < 1<<poolMinBits || c > 1<<poolMaxBits || c&(c-1) != 0 {
		return
	}
	p.classes[bits.Len(uint(c))-1-poolMinBits].Put(unsafe.SliceData(b))
}
