package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
)

// maxReplays and maxReplayTime cap the stage replay.
const (
	maxReplays    = 200
	maxReplayTime = 10 * time.Second
)

// traceRun serves the untraced run's request sequence again on a fresh
// deployment with spans recorded around the public calls into each layer,
// checks that its reports and effort counters equal the untraced run's,
// and returns the per-layer metrics.
//
// Spans: "serve" around Backend.Match (Service.Match or Router.Match);
// "shardrpc" around each shard host's HandleMatch; and, in a replay after
// the loop, "matcher", "cluster" and "mapgen" around Runner.MatchCandidates,
// pipeline.ComputeClusters and Runner.RunWithClusters on the unsharded
// reference runner, one request at a time, so each call's allocations and
// kernel counters are its own.
func (b *bench) traceRun(ctx context.Context) (map[string]metric, error) {
	m := make(map[string]metric)
	b.setupLayers(m)

	rec := newRecorder()
	d, err := deploy(b.w, rec.wrapMatch)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	run, err := b.serveRun(ctx, d, rec.wrapMatch, rec)
	if err != nil {
		return nil, err
	}
	b.check("traced", run.loopResult)
	b.compareRuns(run.loopResult)

	b.serveLayer(m, run, rec)
	b.shardLayer(m, run.loopResult, rec)
	if err := b.replay(ctx, m, run.loopResult, rec); err != nil {
		return nil, err
	}
	tracedP50 := percentile(run.latencies(), 0.5)
	plainP50 := percentile(b.plain.latencies(), 0.5)
	m["trace.overhead_pct"] = metric{100 * ratio(tracedP50-plainP50, plainP50), "%"}
	return m, nil
}

// compareRuns checks the traced run's replies against the untraced run's
// for every request index both served: the same report digest and the
// same effort counters.
func (b *bench) compareRuns(res *loopResult) {
	plain := make(map[int]outcome, len(b.plain.outcomes))
	for _, o := range b.plain.outcomes {
		plain[o.idx] = o
	}
	for _, o := range res.outcomes {
		p, ok := plain[o.idx]
		if !ok || o.err != "" || p.err != "" {
			continue
		}
		if o.digest != p.digest {
			b.fail("traced", o.idx, "report differs from the untraced run's")
		}
		if o.effort != p.effort {
			b.fail("traced", o.idx, fmt.Sprintf("effort counters %+v differ from the untraced run's %+v", o.effort, p.effort))
		}
	}
}

// setupLayers times the set-up layers on their own: repository generation,
// the labelling index and the name-similarity index, setupReps times each.
func (b *bench) setupLayers(m map[string]metric) {
	var gen, ix, ni []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		repo, err := newRepository()
		if err != nil {
			continue
		}
		t1 := time.Now()
		labeling.NewIndex(repo)
		t2 := time.Now()
		matcher.NewNameIndex(repo)
		t3 := time.Now()
		gen = append(gen, t1.Sub(t0).Seconds())
		ix = append(ix, t2.Sub(t1).Seconds())
		ni = append(ni, t3.Sub(t2).Seconds())
	}
	m["repogen.build_s"] = metric{median(gen), "s"}
	m["labeling.index_s"] = metric{median(ix), "s"}
	m["matcher.name_index_s"] = metric{median(ni), "s"}
}

// serveLayer computes the serving layer's metrics: self time of the serve
// span, and the backend's own counters over the traced run. The serve
// span's children are the work it waited on: on an unsharded Service, the
// pipeline stages (their durations as the report records them; every
// request of the unsharded workloads runs them); behind a router, the
// shard hosts' match handlers.
func (b *bench) serveLayer(m map[string]metric, run *servedRun, rec *recorder) {
	children := make(map[int][]span)
	for _, r := range rec.rpcs {
		if r.req >= 0 {
			children[r.req] = append(children[r.req], r.span)
		}
	}
	var self []float64
	for _, o := range run.outcomes {
		sp := rec.spans[o.serveSpan]
		st := sp.dur() - o.stages
		if b.w.shards > 0 {
			st = selfTime(sp, children[o.idx])
		}
		self = append(self, ms(st))
	}
	m["serve.self_ms_p50"] = metric{percentile(self, 0.5), "ms"}
	m["serve.self_ms_p95"] = metric{percentile(self, 0.95), "ms"}
	routerSelf := 0.0
	if b.w.shards > 0 {
		routerSelf = percentile(self, 0.5)
	}
	m["serve.router_self_ms_p50"] = metric{routerSelf, "ms"}

	c := run.stats
	n := float64(len(run.outcomes))
	m["serve.cache_hit_rate"] = metric{ratio(float64(c.hits), float64(c.hits+c.misses)), "frac"}
	m["serve.deduped_in_flight_frac"] = metric{ratio(float64(c.deduped), float64(c.requests)), "frac"}
	m["serve.pipeline_runs_per_req"] = metric{ratio(float64(c.runs), n), "count"}
	m["serve.prepass_per_req"] = metric{ratio(float64(c.prepass), n), "count"}
	m["serve.cache_mb"] = metric{median(c.cacheMB), "MB"}
}

// shardLayer computes the shard wire's metrics from the handler spans.
func (b *bench) shardLayer(m map[string]metric, res *loopResult, rec *recorder) {
	var handler []float64
	var bytes int64
	retries := 0
	for _, r := range rec.rpcs {
		handler = append(handler, ms(r.dur()))
		bytes += r.inBytes + r.outBytes
		if r.status == 428 {
			retries++
		}
	}
	n := float64(len(res.outcomes))
	m["shardrpc.handler_ms_p50"] = metric{percentile(handler, 0.5), "ms"}
	m["shardrpc.handler_ms_p95"] = metric{percentile(handler, 0.95), "ms"}
	m["shardrpc.rpcs_per_req"] = metric{ratio(float64(len(rec.rpcs)), n), "count"}
	m["shardrpc.wire_kb_per_req"] = metric{ratio(float64(bytes), n) / 1e3, "kB"}
	m["shardrpc.retry_frac"] = metric{ratio(float64(retries), float64(len(rec.rpcs))), "frac"}
}

// replay re-runs the traced run's distinct requests stage by stage on the
// reference runner — the calls the serving layers make — with a span and an
// allocation count around each call, and checks each replayed report
// against the served one. It stops after maxReplays requests or
// maxReplayTime.
func (b *bench) replay(ctx context.Context, m map[string]metric, res *loopResult, rec *recorder) error {
	var (
		alloc                               = map[string]uint64{}
		calls                               = map[string]int{}
		cands, clusters, useful, iterations float64
		space, partials, completes, maps    float64
		n                                   int
	)
	ks0 := b.ref.NameIndex().KernelStats()
	gs0 := b.ref.GenStats().Snapshot()
	var ms0, ms1 runtime.MemStats
	// call times fn as a span named name and counts the bytes it allocates.
	call := func(name string, idx int, fn func()) {
		runtime.ReadMemStats(&ms0)
		t0 := rec.now()
		fn()
		t1 := rec.now()
		runtime.ReadMemStats(&ms1)
		rec.add(span{name: name, req: idx, start: t0, end: t1})
		alloc[name] += ms1.TotalAlloc - ms0.TotalAlloc
		calls[name]++
	}
	seen := make(map[string]bool)
	start := time.Now()
	for _, o := range res.outcomes {
		if n >= maxReplays || time.Since(start) >= maxReplayTime {
			break
		}
		req, err := b.stream.at(o.idx)
		if err != nil {
			return err
		}
		if o.err != "" || seen[req.sig] {
			continue
		}
		seen[req.sig] = true
		mt := req.opts.Matcher
		if mt == nil {
			mt = matcher.NameMatcher{}
		}
		var cs *matcher.Candidates
		var rep *pipeline.Report
		var runErr error
		call("matcher", o.idx, func() {
			cs = b.ref.MatchCandidates(req.tree, mt, matcher.Config{MinSim: req.opts.MinSim})
		})
		var cls []*cluster.Cluster
		var iters int
		call("cluster", o.idx, func() {
			cls, iters, runErr = pipeline.ComputeClusters(b.ref.Index(), cs, req.opts)
		})
		if runErr == nil {
			call("mapgen", o.idx, func() {
				rep, runErr = b.ref.RunWithClusters(ctx, req.tree, cs, cls, iters, req.opts)
			})
		}
		if runErr != nil {
			b.fail("replay", o.idx, runErr.Error())
			continue
		}
		if digest(rep, req.opts.TopN) != o.digest {
			b.fail("replay", o.idx, fmt.Sprintf("stage-by-stage report differs from the served one for %s", req.personal))
		}
		n++
		cands += float64(cs.TotalMappingElements())
		clusters += float64(rep.Clusters)
		useful += float64(rep.UsefulClusters)
		iterations += float64(rep.Iterations)
		space += rep.Counters.SearchSpace
		partials += float64(rep.Counters.PartialMappings)
		completes += float64(rep.Counters.CompleteMappings)
		maps += float64(len(rep.Mappings))
	}
	ks1 := b.ref.NameIndex().KernelStats()
	gs1 := b.ref.GenStats().Snapshot()
	fn := float64(n)
	busy := make(map[string][]float64)
	for _, s := range rec.spans {
		busy[s.name] = append(busy[s.name], ms(s.dur()))
	}
	for _, layer := range []string{"matcher", "cluster", "mapgen"} {
		m[layer+".busy_ms_p50"] = metric{percentile(busy[layer], 0.5), "ms"}
		m[layer+".busy_ms_p95"] = metric{percentile(busy[layer], 0.95), "ms"}
		m[layer+".alloc_kb_per_call"] = metric{ratio(float64(alloc[layer]), float64(calls[layer])) / 1e3, "kB"}
	}
	m["matcher.candidates_per_req"] = metric{ratio(cands, fn), "count"}
	m["matcher.sim_calls_saved_per_req"] = metric{ratio(float64(ks1.SavedCalls-ks0.SavedCalls), fn), "count"}
	m["cluster.clusters_per_req"] = metric{ratio(clusters, fn), "count"}
	m["cluster.useful_frac"] = metric{ratio(useful, clusters), "frac"}
	m["cluster.kmeans_iterations_per_req"] = metric{ratio(iterations, fn), "count"}
	m["mapgen.search_space_per_req"] = metric{ratio(space, fn), "count"}
	m["mapgen.partial_mappings_per_req"] = metric{ratio(partials, fn), "count"}
	m["mapgen.complete_per_partial"] = metric{ratio(completes, partials), "frac"}
	m["mapgen.mappings_per_req"] = metric{ratio(maps, fn), "count"}
	m["mapgen.clusters_skipped_by_bound_per_req"] = metric{ratio(float64(gs1.ClustersSkippedByBound-gs0.ClustersSkippedByBound), fn), "count"}
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
