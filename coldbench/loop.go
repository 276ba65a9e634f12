package main

import (
	"context"
	"fmt"
	"net/http/httptrace"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what the benchmark keeps of one served request once its
// report has been checked: the report itself is dropped, so only the
// backend's own cache keeps reports alive.
type outcome struct {
	idx     int
	latency time.Duration
	digest  string
	effort  effort
	err     string // the request failed or its report broke an invariant

	// Traced runs only: the serve span's index in the recorder, and the
	// pipeline stage time the report records (match + cluster + generate).
	serveSpan int
	stages    time.Duration
}

// loopResult is one closed-loop run.
type loopResult struct {
	outcomes   []outcome // by request index
	clients    int
	allocBytes uint64 // heap bytes allocated while the loop ran
}

// add appends another run's outcomes and allocations.
func (r *loopResult) add(o *loopResult) {
	r.outcomes = append(r.outcomes, o.outcomes...)
	r.allocBytes += o.allocBytes
}

// runLoop drives the deployment with clients closed-loop clients, serving
// request indices lo, lo+1, … up to hi (exclusive) or, when dur > 0, until
// dur has elapsed. Each client takes the next index, sends that request and
// waits for the reply before taking another. Checking a reply happens
// between requests, outside the timed call. rec, when non-nil, records
// spans.
func runLoop(ctx context.Context, d *deployment, st *requestStream, clients, lo, hi int, dur time.Duration, rec *recorder) (*loopResult, error) {
	var next atomic.Int64
	next.Store(int64(lo))
	per := make([][]outcome, clients)
	errs := make([]error, clients)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for dur <= 0 || time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				req, err := st.at(i)
				if err != nil {
					errs[c] = fmt.Errorf("request %d: %w", i, err)
					return
				}
				per[c] = append(per[c], serveOne(ctx, d, req, i, rec))
				probe.tick()
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &loopResult{clients: clients, allocBytes: ms1.TotalAlloc - ms0.TotalAlloc}
	for _, oc := range per {
		res.outcomes = append(res.outcomes, oc...)
	}
	sort.Slice(res.outcomes, func(i, j int) bool { return res.outcomes[i].idx < res.outcomes[j].idx })
	return res, nil
}

// serveOne sends one request through Backend.Match and checks the reply.
func serveOne(ctx context.Context, d *deployment, req *request, idx int, rec *recorder) outcome {
	o := outcome{idx: idx, serveSpan: -1}
	if rec != nil && len(d.hosts) > 0 {
		// The shard clients send this request's RPCs with ctx, so the HTTP
		// transport reports the connections they use; a shard host's match
		// handler sees the same connection (see recorder.wrapMatch).
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { rec.bindConn(info.Conn.LocalAddr().String(), idx) },
		})
	}
	start := time.Now()
	rep, err := d.backend.Match(ctx, req.tree, req.opts)
	o.latency = time.Since(start)
	if rec != nil {
		s := start.Sub(rec.epoch)
		o.serveSpan = rec.add(span{name: "serve", req: idx, start: s, end: s + o.latency})
	}
	if err != nil {
		o.err = err.Error()
		return o
	}
	if err := validate(rep, req.opts); err != nil {
		o.err = err.Error()
		return o
	}
	o.digest = digest(rep, req.opts.TopN)
	o.effort = effortOf(rep)
	o.stages = rep.MatchTime + rep.ClusterTime + rep.GenTime
	return o
}

// latencies returns the loop's request latencies in milliseconds.
func (r *loopResult) latencies() []float64 {
	out := make([]float64, len(r.outcomes))
	for i, o := range r.outcomes {
		out[i] = ms(o.latency)
	}
	return out
}

// throughput is the closed loop's completion rate while its clients were
// waiting on the system: clients / mean latency, so client-side checking
// between requests does not count against the system.
func (r *loopResult) throughput() float64 {
	var sum time.Duration
	for _, o := range r.outcomes {
		sum += o.latency
	}
	return ratio(float64(r.clients*len(r.outcomes)), sum.Seconds())
}
