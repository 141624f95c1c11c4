// Package order seeds the lock-order violations of the locks analyzer next
// to the legal shapes that must stay silent: a direct two-lock cycle, a
// transitive cycle through a same-package call, a declared-order
// violation and a stale directive, beside the declared direction and
// release-before-acquire.
package order

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
	c sync.Mutex
}

// ab and ba acquire S.a and S.b in opposite orders: a cycle.
func (s *S) ab() {
	s.a.Lock()
	defer s.a.Unlock()
	s.b.Lock() // want `lock-order cycle S\.a → S\.b → S\.a is a potential deadlock`
	s.b.Unlock()
}

func (s *S) ba() {
	s.b.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}

// handOff releases each lock before taking the next: no edges, no
// cycle with either order of use.
func (s *S) handOff() {
	s.a.Lock()
	s.a.Unlock()
	s.c.Lock()
	s.c.Unlock()
	s.c.Lock()
	s.c.Unlock()
	s.a.Lock()
	s.a.Unlock()
}

type T struct {
	x sync.Mutex
	y sync.Mutex
}

//eugene:lockorder T.x before T.y

func (t *T) lockY() {
	t.y.Lock()
	t.y.Unlock()
}

// good acquires in the declared direction, through a call: legal.
func (t *T) good() {
	t.x.Lock()
	t.lockY()
	t.x.Unlock()
}

// bad acquires against the declared order.
func (t *T) bad() {
	t.y.Lock()
	t.x.Lock() // want `acquires T\.x while holding T\.y, violating the declared lock order "T\.x" before "T\.y"`
	t.x.Unlock()
	t.y.Unlock()
}

/*eugene:lockorder T.x before T.nosuch*/ // want `lockorder directive names "T\.nosuch", but the package never acquires a lock by that name`

type U struct {
	p sync.Mutex
	q sync.Mutex
}

func (u *U) lockQ() {
	u.q.Lock()
	u.q.Unlock()
}

// pThenQ creates the U.p→U.q edge transitively, via lockQ.
func (u *U) pThenQ() {
	u.p.Lock()
	u.lockQ() // want `lock-order cycle U\.p → U\.q → U\.p is a potential deadlock \(via call to lockQ\)`
	u.p.Unlock()
}

func (u *U) qThenP() {
	u.q.Lock()
	u.p.Lock()
	u.p.Unlock()
	u.q.Unlock()
}

// branchScoped releases on the early-return path before sleeping on a
// second lock elsewhere: the walker must not leak the then-branch's
// unlock into the fall-through path (S.c is still held below the if).
func (s *S) branchScoped(cond bool) {
	s.c.Lock()
	if cond {
		s.c.Unlock()
		return
	}
	s.c.Unlock()
}
