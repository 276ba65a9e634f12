package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"bellflower"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
)

// workload is one traffic mix the benchmark drives through the public
// Backend.Match surface in a closed loop: each of clients sends its next
// request only after the previous one has completed.
type workload struct {
	name    string
	mix     requestMix
	clients int
	// shards is 0 for one in-process Service; otherwise that many shard
	// hosts serve over loopback HTTP behind a distributed router.
	shards int
}

// topNOptions is the interactive "best 10" request as a client sends it.
const topNOptions = `{"top_n":10,"adaptive_top_n":true}`

var workloads = []workload{
	// The interactive "best 10" request, cold: clustering does most of the
	// work and generation stays small.
	{
		name:    "topn-cold",
		mix:     requestMix{minK: 3, maxK: 6, options: topNOptions},
		clients: 1,
	},
	// Every mapping with Δ ≥ δ: generation, ranking and report size
	// dominate, and the unbounded report cache shows in the heap.
	{
		name:    "threshold-cold",
		mix:     requestMix{minK: 4, maxK: 4, options: `{"top_n":0}`, fixed: 65},
		clients: 1,
	},
	// Repeated and fresh top-10 requests through the router, the shard wire
	// and the shard caches, which the unsharded workloads bypass. One
	// client: each request already fans out to both shard hosts, and a
	// second client made the figures depend more on how the two clients'
	// requests happened to interleave than on the program.
	{
		name: "repeat-distributed",
		mix: requestMix{minK: 3, maxK: 6, options: topNOptions,
			pool: 64, zipfS: 1.1, freshFrac: 0.1},
		clients: 1,
		shards:  2,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// newRepository generates the paper-scale synthetic repository (9,759
// nodes, the reference experiment's scale).
func newRepository() (*schema.Repository, error) {
	return repogen.Generate(repogen.DefaultConfig())
}

// deployment is one built backend: a Service over the repository, or a
// distributed router over shard hosts listening on loopback.
type deployment struct {
	repo    *schema.Repository // the front door's repository
	backend serve.Backend
	hosts   []*shardServer
	// goroutines is runtime.NumGoroutine() before the deployment started.
	goroutines int
}

// shardServer is one shard host serving the shard wire protocol over HTTP.
type shardServer struct {
	host *bellflower.ShardHost
	srv  *http.Server
	done chan error // receives Serve's return once it has exited
}

// deploy builds the workload's backend with the default ServiceConfig. Each
// shard host generates its own copy of the repository, as a separate
// process would. wrap, when non-nil, wraps each shard host's match handler.
func deploy(w workload, wrap func(http.HandlerFunc) http.HandlerFunc) (*deployment, error) {
	g := runtime.NumGoroutine()
	repo, err := newRepository()
	if err != nil {
		return nil, err
	}
	cfg := bellflower.ServiceConfig{}
	if w.shards == 0 {
		return &deployment{repo: repo, backend: bellflower.NewService(repo, cfg), goroutines: g}, nil
	}
	d := &deployment{repo: repo, goroutines: g}
	addrs := make([]string, w.shards)
	for i := range addrs {
		s, err := startShardServer(i, w.shards, wrap)
		if err != nil {
			d.close()
			return nil, err
		}
		d.hosts = append(d.hosts, s)
		addrs[i] = s.srv.Addr
	}
	b, err := bellflower.NewDistributedService(repo, addrs, cfg, bellflower.PartitionClustered)
	if err != nil {
		d.close()
		return nil, err
	}
	d.backend = b
	return d, nil
}

func startShardServer(shard, shards int, wrap func(http.HandlerFunc) http.HandlerFunc) (*shardServer, error) {
	repo, err := newRepository()
	if err != nil {
		return nil, err
	}
	host, err := bellflower.NewShardHost(repo, shard, shards, bellflower.ServiceConfig{}, bellflower.PartitionClustered)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		host.Close()
		return nil, err
	}
	match := http.HandlerFunc(host.HandleMatch)
	if wrap != nil {
		match = wrap(match)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/shard/match", match)
	mux.HandleFunc("/v1/shard/stats", host.HandleStats)
	s := &shardServer{
		host: host,
		srv:  &http.Server{Addr: ln.Addr().String(), Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close releases the backend, stops every shard server and waits for their
// Serve loops and connection goroutines to exit. Closing a nil deployment
// does nothing.
func (d *deployment) close() {
	if d == nil {
		return
	}
	if d.backend != nil {
		d.backend.Close()
	}
	for _, s := range d.hosts {
		_ = s.srv.Close() // Close also closes the listener; Serve returns ErrServerClosed
		if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "coldbench: shard server: %v\n", err)
		}
		s.host.Close()
	}
	// A closed server's connection goroutines exit on their own time, and
	// until they do they keep its shard host, repository and caches
	// reachable; on one CPU they may not have run yet. Wait for them, so a
	// heap measured after close no longer holds the deployment.
	for t0 := time.Now(); runtime.NumGoroutine() > d.goroutines && time.Since(t0) < 2*time.Second; {
		time.Sleep(time.Millisecond)
	}
}
