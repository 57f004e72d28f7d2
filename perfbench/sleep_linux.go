package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the calling thread in nanosleep(2), which wakes on a
// high-resolution timer; the runtime's own sleep rounds waits shorter
// than a millisecond up to one when its scheduler is idle.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
