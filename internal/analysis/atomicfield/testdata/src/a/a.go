package a

import "sync/atomic"

type counter struct {
	n    int64
	safe atomic.Int64 // typed: its methods are the only way in
	p    atomic.Pointer[int]
}

func (c *counter) inc() {
	atomic.AddInt64(&c.n, 1) // want `atomic\.AddInt64 makes only this access atomic; use a typed atomic`
	c.safe.Add(1)
	c.p.Store(nil)
}

func (c *counter) read() int64 {
	return atomic.LoadInt64(&c.n) + c.safe.Load() // want `atomic\.LoadInt64 makes only this access atomic`
}

// bump hides the function behind a value; it is still a use.
var bump = atomic.AddInt64 // want `atomic\.AddInt64 makes only this access atomic`
