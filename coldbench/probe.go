package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host probe times, in thread CPU time, a fixed piece of the
// benchmark's own work — string edit distances, map updates and a float
// sort, about a millisecond — every probeEvery while a phase of the run
// goes on: between requests and between set-up builds, never inside a
// timed call. Its code is not the program's and it allocates nothing, so
// its time moves with the speed of the machine alone. On a shared 2-vCPU
// virtual machine that speed drifted by a third within minutes, and across
// runs the program's latency followed the probe's time with a correlation
// above 0.9. So the end-to-end time metrics are scaled to a reference
// speed: by probeRefMs / (the probe's median in the phase they were
// measured in).
const (
	probeEvery = 100 * time.Millisecond
	// probeRefMs is the probe's time at the reference speed, about its
	// usual time on the 2-vCPU Xeon virtual machine the benchmark was
	// tuned on.
	probeRefMs = 1.5
)

type hostProbe struct {
	mu    sync.Mutex
	last  time.Time
	times []float64 // ms per probe in the current phase

	words     []string
	counts    map[string]int
	prev, cur []int
	src, xs   []float64
	checksum  int // keeps the work's results live
}

var probe = newHostProbe()

func newHostProbe() *hostProbe {
	r := rand.New(rand.NewSource(2))
	p := &hostProbe{words: make([]string, 200), counts: make(map[string]int, 200)}
	for i := range p.words {
		b := make([]byte, 8+r.Intn(12))
		for j := range b {
			b[j] = byte('a' + r.Intn(26))
		}
		p.words[i] = string(b)
		p.counts[p.words[i]] = 0
	}
	p.prev, p.cur = make([]int, 32), make([]int, 32)
	p.src, p.xs = make([]float64, 10000), make([]float64, 10000)
	for i := range p.src {
		p.src[i] = r.Float64()
	}
	return p
}

// startPhase forgets the probe times so far and probes at once.
func (p *hostProbe) startPhase() {
	p.mu.Lock()
	p.times, p.last = p.times[:0], time.Time{}
	p.mu.Unlock()
	p.tick()
}

// tick runs the probe when probeEvery has passed since the last one. A
// caller that finds another probe running skips.
func (p *hostProbe) tick() {
	if !p.mu.TryLock() {
		return
	}
	defer p.mu.Unlock()
	if time.Since(p.last) < probeEvery {
		return
	}
	// Locked to its thread, the probe's thread CPU time is its own even
	// when the scheduler runs another goroutine, such as a GC worker the
	// program's allocations woke, in the middle of it.
	runtime.LockOSThread()
	c0 := threadCPU()
	p.work()
	p.times = append(p.times, ms(threadCPU()-c0))
	runtime.UnlockOSThread()
	p.last = time.Now()
}

// speed is probeRefMs over the median probe time of the current phase:
// below 1 when the machine runs slower than the reference.
func (p *hostProbe) speed() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ratio(probeRefMs, median(p.times))
}

func (p *hostProbe) work() {
	for i := 0; i < 200; i++ {
		a, b := p.words[i%len(p.words)], p.words[(i*7+3)%len(p.words)]
		p.counts[a] += p.editDistance(a, b)
	}
	copy(p.xs, p.src)
	sort.Float64s(p.xs)
	p.checksum += p.counts[p.words[0]] + int(p.xs[0]*1e6)
}

func (p *hostProbe) editDistance(a, b string) int {
	prev, cur := p.prev[:len(b)+1], p.cur[:len(b)+1]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			c := prev[j-1]
			if a[i-1] != b[j-1] {
				c++
			}
			cur[j] = min(c, prev[j]+1, cur[j-1]+1)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
