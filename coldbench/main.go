// Command coldbench is the cold-path benchmark of the Bellflower serving
// stack. It drives the public Backend.Match surface with one seeded
// workload in a closed loop against the paper-scale synthetic repository
// and the default ServiceConfig, checks every report, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric from a
// separate traced run) with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 912, "failed": 0, "metrics": {"latency_p50_ms": {"value": 6.1, "unit": "ms"}, ...}}
//
// Usage:
//
//	coldbench --workload topn-cold --seed 1 --seconds 10 --trace 0
//
// It exits non-zero when any request fails or any report is wrong. See
// README.md for the workloads, the metrics and the checks.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"bellflower/internal/pipeline"
	"bellflower/internal/serve"
)

// A run builds the deployment at least setupReps times and for at least
// setupMin; setup_s is the median, and the last build serves the run. The
// speed of a shared machine moves in phases of a fraction of a second, so
// a median over a few seconds of builds is steadier than one over a fixed
// count of 15 ms builds.
const (
	setupReps = 25
	setupMin  = 3 * time.Second
)

// warmUpMax caps the warm-up before the measured runs.
const warmUpMax = 2 * time.Second

// procs is GOMAXPROCS for the whole run, the deployment and its clients
// alike. The default ServiceConfig sizes its worker pools from GOMAXPROCS,
// so the benchmark measures a one-CPU deployment: on a shared 2-vCPU
// virtual machine a run using both vCPUs was slowed by whatever else the
// host ran, and its time figures spread two to three times as wide between
// runs.
const procs = 1

// refChecks is how many distinct requests of a run are re-run through an
// untimed unsharded pipeline.Runner and compared with the served reports.
const refChecks = 32

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "coldbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("coldbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "topn-cold", "workload name")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds  = fs.Int("seconds", 10, "how long each closed-loop run measures")
		traced   = fs.Int("trace", 0, "1: add a traced run and print the per-layer metrics instead of the end-to-end ones")
		stateDir = fs.String("state-dir", ".bench_build/coldbench/effort", "directory for the effort-counter logs compared across runs")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return 0, err
	}
	if *seconds < 1 {
		return 0, fmt.Errorf("-seconds %d < 1", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return 0, fmt.Errorf("-trace %d: want 0 or 1", *traced)
	}
	runtime.GOMAXPROCS(procs)
	dur := time.Duration(*seconds) * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 3*dur+60*time.Second)
	defer cancel()

	b := &bench{w: w, seed: *seed, dur: dur, failed: make(map[string]bool)}
	defer func() { b.d.close() }()
	if err := b.setup(ctx); err != nil {
		return 0, err
	}
	if err := b.measure(ctx); err != nil {
		return 0, err
	}
	if err := b.checkEffort(*stateDir); err != nil {
		return 0, err
	}
	var metrics map[string]metric
	if *traced == 1 {
		if metrics, err = b.traceRun(ctx); err != nil {
			return 0, err
		}
	} else {
		metrics = b.endToEnd()
	}

	res := result{
		Correct:   len(b.failed) == 0,
		Attempted: b.attempted,
		Failed:    len(b.failed),
		Metrics:   metrics,
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s  seed %d  requests %d  failed %d\n", w.name, b.seed, b.attempted, len(b.failed))
	fmt.Printf("host speed (probe %.2f ms ÷ its median): set-up %.4f, run %.4f\n", probeRefMs, b.setupSpeed, b.plainSpeed)
	for _, n := range names {
		fmt.Printf("%-42s %14.6f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// bench is one invocation: the workload, its deployment and what the runs
// found.
type bench struct {
	w    workload
	seed int64
	dur  time.Duration

	d      *deployment
	ref    *pipeline.Runner // untimed unsharded reference over the front door's repository
	stream *requestStream
	setups []float64 // seconds per deployment build

	plain *servedRun // the untraced run

	// Host speed (see hostProbe) during the set-up builds and during the
	// untraced run.
	setupSpeed, plainSpeed float64

	attempted int
	failed    map[string]bool // failed request keys ("run/index")
}

// fail records a failed or wrong request and says why on standard error.
func (b *bench) fail(run string, idx int, why string) {
	key := fmt.Sprintf("%s/%d", run, idx)
	if !b.failed[key] {
		fmt.Fprintf(os.Stderr, "coldbench: %s request %d: %s\n", run, idx, why)
	}
	b.failed[key] = true
}

// setup first builds a deployment and serves warm-up traffic on it,
// drawn with a seed no run uses, so that set-up and the measured runs
// happen in a warm process (grown heap, code paths, pools, GC pacing).
// Then it builds the deployment setupReps times or more, timing each
// build, and keeps the last one, whose backend is cold.
func (b *bench) setup(ctx context.Context) error {
	d, err := deploy(b.w, nil)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	err = b.warmUp(ctx, d)
	d.close()
	if err != nil {
		return err
	}
	probe.startPhase()
	for start := time.Now(); len(b.setups) < setupReps || time.Since(start) < setupMin; {
		b.d.close()
		b.d = nil
		runtime.GC()
		t0 := time.Now()
		d, err := deploy(b.w, nil)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		b.d = d
		probe.tick()
	}
	b.setupSpeed = probe.speed()
	// The reference runner and the request stream get their own copy of
	// the repository, so that closing a deployment frees all of its memory.
	repo, err := newRepository()
	if err != nil {
		return err
	}
	b.ref = pipeline.NewRunner(repo)
	b.stream, err = newRequestStream(repo, b.w.mix, b.seed)
	return err
}

// warmUp serves the workload's traffic, drawn with a seed no run uses, on
// d for a fifth of the run length (at most warmUpMax).
func (b *bench) warmUp(ctx context.Context, d *deployment) error {
	mix := b.w.mix
	mix.fixed = 0 // fresh requests, not the measured fixed set
	st, err := newRequestStream(d.repo, mix, ^b.seed)
	if err != nil {
		return err
	}
	_, err = runLoop(ctx, d, st, b.w.clients, 0, math.MaxInt, min(b.dur/5, warmUpMax), nil)
	return err
}

// servedRun is one serving run of the workload, over one deployment or,
// for a fixed request set, one fresh deployment per pass.
type servedRun struct {
	*loopResult
	retainedMB []float64 // per pass: live heap that closing the pass's deployment freed
	stats      serveCounters
}

// serveCounters sums the backend's own counters over a run's passes.
type serveCounters struct {
	requests, hits, misses, deduped, runs, prepass int64
	cacheMB                                        []float64 // report cache size at the end of each pass
}

func (c *serveCounters) add(before, after serve.Stats) {
	c.requests += after.Requests - before.Requests
	c.hits += after.CacheHits - before.CacheHits
	c.misses += after.CacheMisses - before.CacheMisses
	c.deduped += after.DedupedInFlight - before.DedupedInFlight
	c.runs += after.PipelineRuns - before.PipelineRuns
	c.prepass += after.CandidatePrePass - before.CandidatePrePass
	c.cacheMB = append(c.cacheMB, float64(after.CacheBytes)/1e6)
}

// serveRun serves the workload starting on d, which it takes over and
// closes. An endless request stream runs for b.dur. A fixed request set
// runs in passes, each on a freshly built deployment so every request is
// cold, until b.dur has elapsed; a started pass always finishes. After each
// pass it measures the heap the deployment retained — what closing it
// frees — so the benchmark's own bookkeeping does not count. wrap and rec
// are passed to the deployments and the loop.
func (b *bench) serveRun(ctx context.Context, d *deployment, wrap func(http.HandlerFunc) http.HandlerFunc, rec *recorder) (*servedRun, error) {
	defer func() { d.close() }() // on error paths
	run := &servedRun{loopResult: &loopResult{clients: b.w.clients}}
	n := b.stream.passLen()
	start := time.Now()
	for pass := 0; pass == 0 || (n > 0 && time.Since(start) < b.dur); pass++ {
		if pass > 0 {
			var err error
			if d, err = deploy(b.w, wrap); err != nil {
				return nil, err
			}
		}
		lo, hi, dur := 0, math.MaxInt, b.dur
		if n > 0 {
			lo, hi, dur = pass*n, (pass+1)*n, 0
		}
		before := d.backend.Stats()
		runtime.GC()
		res, err := runLoop(ctx, d, b.stream, b.w.clients, lo, hi, dur, rec)
		if err != nil {
			return nil, err
		}
		after := d.backend.Stats()
		live := liveHeap()
		d.close()
		d = nil
		run.retainedMB = append(run.retainedMB, float64(live-liveHeap())/1e6)
		run.add(res)
		run.stats.add(before, after)
	}
	return run, nil
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// measure makes the untraced run and checks it: every report against the
// invariants, repeated requests against each other, and a sample against
// the reference runner.
func (b *bench) measure(ctx context.Context) error {
	d := b.d
	b.d = nil // serveRun owns it now; a reference here would keep it alive
	probe.startPhase()
	run, err := b.serveRun(ctx, d, nil, nil)
	if err != nil {
		return err
	}
	b.plainSpeed = probe.speed()
	b.plain = run
	b.check("plain", run.loopResult)
	return b.checkReference(ctx, run.loopResult)
}

// check counts a run's failed requests and wrong reports, and checks that
// every request served more than once got the same report and effort
// counters each time.
func (b *bench) check(name string, res *loopResult) {
	b.attempted += len(res.outcomes)
	bySig := make(map[string]outcome)
	for _, o := range res.outcomes {
		if o.err != "" {
			b.fail(name, o.idx, o.err)
			continue
		}
		req, _ := b.stream.at(o.idx)
		prev, ok := bySig[req.sig]
		if !ok {
			bySig[req.sig] = o
			continue
		}
		if o.digest != prev.digest || o.effort != prev.effort {
			b.fail(name, o.idx, fmt.Sprintf("report or effort counters differ from request %d's, the same request", prev.idx))
		}
	}
}

// checkReference re-runs up to refChecks distinct requests of the run,
// spread evenly over it, through the unsharded reference runner and
// compares the reports. On an unsharded backend the served report comes
// from the same pipeline, so its effort counters must match too.
func (b *bench) checkReference(ctx context.Context, res *loopResult) error {
	var distinct []outcome
	seen := make(map[string]bool)
	for _, o := range res.outcomes {
		req, err := b.stream.at(o.idx)
		if err != nil {
			return err
		}
		if o.err == "" && !seen[req.sig] {
			seen[req.sig] = true
			distinct = append(distinct, o)
		}
	}
	n := min(refChecks, len(distinct))
	for k := 0; k < n; k++ {
		o := distinct[k*len(distinct)/n]
		req, err := b.stream.at(o.idx)
		if err != nil {
			return err
		}
		rep, err := b.ref.RunContext(ctx, req.tree, req.opts)
		if err != nil {
			b.fail("plain", o.idx, "reference run: "+err.Error())
			continue
		}
		if d := digest(rep, req.opts.TopN); d != o.digest {
			b.fail("plain", o.idx, fmt.Sprintf("report differs from the unsharded reference for %s", req.personal))
		}
		if b.w.shards == 0 && effortOf(rep) != o.effort {
			b.fail("plain", o.idx, fmt.Sprintf("effort counters %+v differ from the reference's %+v", o.effort, effortOf(rep)))
		}
	}
	return nil
}

// checkEffort compares this run's Tab. 1 effort counters with those logged
// by earlier runs of the same program, workload and seed.
func (b *bench) checkEffort(dir string) error {
	log, err := loadEffortLog(dir, b.w.name, b.seed)
	if err != nil {
		return err
	}
	efforts := make(map[int]effort)
	for _, o := range b.plain.outcomes {
		if o.err == "" {
			efforts[o.idx] = o.effort
		}
	}
	for _, i := range log.merge(efforts) {
		b.fail("plain", i, "effort counters differ from an earlier run with the same seed")
	}
	return log.save()
}

// endToEnd returns the end-to-end metrics, times scaled to the reference
// host speed of the phase they were measured in.
func (b *bench) endToEnd() map[string]metric {
	lat := b.plain.latencies()
	s := b.plainSpeed
	return map[string]metric{
		"setup_s":          {median(b.setups) * b.setupSpeed, "s"},
		"latency_p50_ms":   {percentile(lat, 0.50) * s, "ms"},
		"latency_p95_ms":   {percentile(lat, 0.95) * s, "ms"},
		"throughput_rps":   {b.plain.throughput() / s, "1/s"},
		"alloc_mb_per_req": {ratio(float64(b.plain.allocBytes), float64(len(b.plain.outcomes))) / 1e6, "MB"},
		"retained_heap_mb": {median(b.plain.retainedMB), "MB"},
	}
}
