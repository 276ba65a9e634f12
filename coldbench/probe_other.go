//go:build !linux

package main

import "time"

var processStart = time.Now()

// threadCPU falls back to the wall clock where the thread CPU clock is not
// wired up; the probe then also counts whatever interrupts it.
func threadCPU() time.Duration { return time.Since(processStart) }
