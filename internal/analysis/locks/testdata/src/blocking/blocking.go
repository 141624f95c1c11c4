// Package blocking seeds the blocking-under-lock violations of the locks
// analyzer (sleeps, waits, I/O and channel operations under a held
// mutex) next to the legal shapes: blocking after release, on a
// released branch, or behind a select with a default clause.
package blocking

import (
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

type G struct {
	mu   sync.Mutex
	cond *sync.Cond
	ch   chan int
	wg   sync.WaitGroup
}

func (g *G) sleepLocked() {
	g.mu.Lock()
	time.Sleep(time.Millisecond) // want `call to time\.Sleep blocks while holding G\.mu`
	g.mu.Unlock()
}

func (g *G) sleepUnlocked() {
	g.mu.Lock()
	g.mu.Unlock()
	time.Sleep(time.Millisecond)
}

func (g *G) waitUnderDeferredUnlock() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.wg.Wait() // want `call to WaitGroup\.Wait blocks while holding G\.mu`
}

func (g *G) releasedBranch(c bool) {
	g.mu.Lock()
	if c {
		g.mu.Unlock()
		time.Sleep(time.Millisecond)
		return
	}
	g.mu.Unlock()
}

func (g *G) chanOps() {
	g.mu.Lock()
	g.ch <- 1 // want `channel send may block while holding G\.mu`
	<-g.ch    // want `channel receive may block while holding G\.mu`
	select {  // want `select without a default clause blocks while holding G\.mu`
	case v := <-g.ch:
		_ = v
	}
	select {
	case g.ch <- 2:
	default:
	}
	g.mu.Unlock()
}

func (g *G) httpLocked(cl *http.Client, req *http.Request) {
	g.mu.Lock()
	defer g.mu.Unlock()
	resp, err := cl.Do(req) // want `call to Client\.Do blocks while holding G\.mu`
	if err == nil {
		resp.Body.Close()
	}
}

func (g *G) fileLocked(f *os.File, buf []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, _ = f.Read(buf)   // want `call to File\.Read blocks while holding G\.mu`
	_, _ = io.ReadAll(f) // want `call to io\.ReadAll blocks while holding G\.mu`
}

// condWait is the contract exemption: sync.Cond.Wait must hold the
// lock.
func (g *G) condWait() {
	g.mu.Lock()
	for g.ready() {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *G) ready() bool { return true }

// nonBlockingWake is a wake token: sends under the lock, but every
// send sits behind a default clause.
func (g *G) nonBlockingWake() {
	g.mu.Lock()
	select {
	case g.ch <- 1:
	default:
	}
	g.mu.Unlock()
}
