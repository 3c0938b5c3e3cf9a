package bufpool

import "zynqfusion/internal/frame"

// Scratch is one reusable float32 work buffer: a transform's line buffer
// or a fusion rule's activity plane. Its backing store is leased from a
// pool when one is given (the board keeps line buffers in the same DDR
// arena as its frame stores), falling back to a plain allocation when the
// pool is absent or at its cap. The buffer reallocates only when asked to
// grow past its capacity, so in steady state Grow is a reslice. The zero
// value is an empty buffer.
type Scratch struct {
	buf   []float32
	lease *frame.Frame
}

// Grow returns the buffer resized to n samples, leasing a larger backing
// store from pool (nil: a plain allocation) when it must grow. Contents
// are unspecified; every caller fully overwrites before reading.
func (s *Scratch) Grow(pool *Pool, n int) []float32 {
	if cap(s.buf) >= n {
		s.buf = s.buf[:n]
		return s.buf
	}
	s.Release()
	if pool != nil {
		if f, err := pool.Get(n, 1); err == nil {
			s.lease = f
			s.buf = f.Pix[:n]
		}
	}
	if s.buf == nil {
		s.buf = make([]float32, n)
	}
	return s.buf
}

// Buf returns the buffer as the last Grow sized it (nil after Release).
func (s *Scratch) Buf() []float32 { return s.buf }

// Release returns the lease, if any, and drops the buffer.
func (s *Scratch) Release() {
	if s.lease != nil {
		s.lease.Release()
		s.lease = nil
	}
	s.buf = nil
}
