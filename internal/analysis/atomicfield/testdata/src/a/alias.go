package a

import at "sync/atomic"

func swap(v *uint32) bool {
	return at.CompareAndSwapUint32(v, 0, 1) // want `atomic\.CompareAndSwapUint32 makes only this access atomic`
}
