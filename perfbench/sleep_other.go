//go:build !linux

package main

import "time"

// sleepPrecise falls back to the runtime's sleep off Linux.
func sleepPrecise(d time.Duration) { time.Sleep(d) }
