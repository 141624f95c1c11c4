// Package a seeds the case that needs both rules of the locks analyzer
// at once: one function acquires against a declared order and sleeps
// under the lock it took. The per-rule cases live in the fixtures of
// the lockorder and blockinlock test directories.
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
