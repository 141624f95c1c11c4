// Package a seeds the cases that need both rules of the locks analyzer
// at once, or a declared order and a cycle: one function acquires
// against a declared order and sleeps under the lock it took, and a
// three-lock cycle runs through a declared edge. The per-rule cases live
// in the order and blocking fixtures beside this one.
package a

import (
	"sync"
	"time"
)

type V struct {
	r sync.Mutex
	w sync.Mutex
}

//eugene:lockorder V.r before V.w

// inverted takes V.r under V.w, against the declared order, and sleeps
// under V.r: the one walk reports both.
func (v *V) inverted() {
	v.w.Lock()
	v.r.Lock()                   // want `acquires V\.r while holding V\.w, violating the declared lock order "V\.r" before "V\.w"`
	time.Sleep(time.Millisecond) // want `call to time\.Sleep blocks while holding V\.r`
	v.r.Unlock()
	v.w.Unlock()
}

type W struct {
	a sync.Mutex
	b sync.Mutex
	c sync.Mutex
}

//eugene:lockorder W.a before W.b

// aThenB takes the declared direction; bThenC and cThenA close the
// cycle W.a → W.b → W.c → W.a, a three-lock deadlock the directive does
// not make legal.
func (w *W) aThenB() {
	w.a.Lock()
	w.b.Lock() // want `lock-order cycle W\.a → W\.b → W\.c → W\.a is a potential deadlock`
	w.b.Unlock()
	w.a.Unlock()
}

func (w *W) bThenC() {
	w.b.Lock()
	w.c.Lock()
	w.c.Unlock()
	w.b.Unlock()
}

func (w *W) cThenA() {
	w.c.Lock()
	w.a.Lock()
	w.a.Unlock()
	w.c.Unlock()
}
