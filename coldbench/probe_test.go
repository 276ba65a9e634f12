package main

import (
	"runtime"
	"testing"
	"time"
)

// The probe allocates nothing, so the program's garbage collection, which
// a run's requests drive, cannot reach into the probe's time.
func TestProbeWorkAllocatesNothing(t *testing.T) {
	p := newHostProbe()
	if n := testing.AllocsPerRun(20, p.work); n != 0 {
		t.Fatalf("probe work allocates %v times per run, want 0", n)
	}
}

// speed is the reference time over the median probe time of the phase.
func TestProbeSpeed(t *testing.T) {
	p := newHostProbe()
	p.times = []float64{probeRefMs * 2, probeRefMs * 4, probeRefMs * 2.5}
	if got, want := p.speed(), 0.4; got != want {
		t.Fatalf("speed %v, want %v", got, want)
	}
}

// The probe's clock counts the thread's CPU time, not time it spent
// waiting.
func TestThreadCPUSkipsSleep(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("thread CPU clock is wired up on linux only")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	time.Sleep(100 * time.Millisecond)
	if d := threadCPU() - c0; d > 20*time.Millisecond {
		t.Fatalf("thread CPU time rose by %v over a 100ms sleep", d)
	}
	c0 = threadCPU()
	for t0 := time.Now(); time.Since(t0) < 50*time.Millisecond; {
	}
	if d := threadCPU() - c0; d < 5*time.Millisecond {
		t.Fatalf("thread CPU time rose by %v over 50ms of spinning", d)
	}
}
