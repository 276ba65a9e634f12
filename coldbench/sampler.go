package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
	"bellflower/internal/shardrpc"
)

// sampler draws personal schemas from a repository: connected k-node
// subtrees of repository trees, so they carry the repository's own noisy
// names, misspellings and datatypes. A subtree is rooted at a uniformly
// chosen element with at least k nodes below it (itself included) and grown
// downward, one uniformly chosen child of the nodes taken so far at a time.
// The same seed yields the same sequence of subtrees.
type sampler struct {
	repo  *schema.Repository
	rng   *rand.Rand
	roots map[int][]*schema.Node // k → elements whose subtree has ≥ k nodes
}

func newSampler(repo *schema.Repository, seed int64) *sampler {
	return &sampler{repo: repo, rng: rand.New(rand.NewSource(seed)), roots: make(map[int][]*schema.Node)}
}

// rootsFor lists, in repository order, the elements that can root a k-node
// subtree.
func (s *sampler) rootsFor(k int) []*schema.Node {
	if rs, ok := s.roots[k]; ok {
		return rs
	}
	var rs []*schema.Node
	for _, n := range s.repo.Nodes() {
		if n.Kind == schema.KindElement && n.SubtreeSize() >= k {
			rs = append(rs, n)
		}
	}
	s.roots[k] = rs
	return rs
}

// subtree returns one k-node subtree in spec syntax (see schema.ParseSpec),
// or "" when the repository has no element with k nodes below it.
func (s *sampler) subtree(k int) string {
	roots := s.rootsFor(k)
	if len(roots) == 0 {
		return ""
	}
	root := roots[s.rng.Intn(len(roots))]
	taken := map[*schema.Node]bool{root: true}
	frontier := append([]*schema.Node(nil), root.Children()...)
	for len(taken) < k {
		i := s.rng.Intn(len(frontier))
		n := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		taken[n] = true
		frontier = append(frontier, n.Children()...)
	}
	var b strings.Builder
	writeSubtree(&b, root, taken)
	return b.String()
}

// writeSubtree renders the taken part of n's subtree as name[@][:type] with
// parenthesised children, in the repository's child order.
func writeSubtree(b *strings.Builder, n *schema.Node, taken map[*schema.Node]bool) {
	b.WriteString(n.Name)
	if n.Kind == schema.KindAttribute {
		b.WriteByte('@')
	}
	if n.Type != "" {
		b.WriteByte(':')
		b.WriteString(n.Type)
	}
	first := true
	for _, c := range n.Children() {
		if !taken[c] {
			continue
		}
		if first {
			b.WriteByte('(')
			first = false
		} else {
			b.WriteByte(',')
		}
		writeSubtree(b, c, taken)
	}
	if !first {
		b.WriteByte(')')
	}
}

// request is one match request in the shape a client sends it over HTTP —
// a personal schema in spec syntax and the options the client sets, such
// as {"top_n":10,"adaptive_top_n":true} — plus its decoded form.
type request struct {
	personal string // spec syntax
	tree     *schema.Tree
	opts     pipeline.Options
	sig      string // canonical request signature (serve.Signature)
}

// decodeRequest parses a client request. Options start from the library
// defaults and are overlaid by the client's JSON through the shard wire
// vocabulary, whose field names are the HTTP API's; keys the library no
// longer knows are ignored, as a server ignores a retired no-op field.
func decodeRequest(personal, options string) (*request, error) {
	tree, err := schema.ParseSpec(personal)
	if err != nil {
		return nil, err
	}
	wo, err := shardrpc.EncodeOptions(pipeline.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal([]byte(options), &wo); err != nil {
		return nil, fmt.Errorf("options %s: %w", options, err)
	}
	opts, err := shardrpc.DecodeOptions(wo)
	if err != nil {
		return nil, err
	}
	return &request{personal: personal, tree: tree, opts: opts, sig: serve.Signature(tree, opts)}, nil
}

// requestMix describes how a workload draws its requests.
type requestMix struct {
	minK, maxK int    // personal schema size range, inclusive
	options    string // client options JSON

	// pool > 0 repeats requests: one request at a seeded position in every
	// block of round(1/freshFrac) is fresh, so fresh requests take the same
	// share of every run, and the others are drawn by Zipf(zipfS) from pool
	// requests. The pool is sampled with fixedSetSeed whatever the run's seed:
	// which requests are hot would otherwise move every figure from seed
	// to seed, as a quarter of all requests go to the hottest one.
	pool      int
	zipfS     float64
	freshFrac float64

	// fixed > 0 serves one set of that many requests, sampled with
	// fixedSetSeed whatever the run's seed, in passes: every pass serves
	// the whole set once, in an order the run's seed shuffles. A workload
	// whose request costs span orders of magnitude and that has time for
	// only a few dozen requests per pass cannot sample a representative
	// set anew each run.
	fixed int
}

// fixedSetSeed samples the Zipf pool and the fixed request set.
const fixedSetSeed = 1

// requestStream hands out a workload's requests in index order. Requests
// are generated on demand but strictly sequentially, so request i is the
// same for a given seed however many clients draw from the stream and in
// whatever order they finish. Fresh requests are unique by signature
// within the stream.
type requestStream struct {
	mu    sync.Mutex
	mix   requestMix
	smp   *sampler
	rng   *rand.Rand // pool draws, fresh/pooled choices and pass orders
	zipf  *rand.Zipf
	seen  map[string]bool
	pool  []*request // the Zipf pool, or the fixed set
	reqs  []*request
	drawn int // fresh requests sampled so far
	fresh int // index of the fresh request in the current block
}

func newRequestStream(repo *schema.Repository, mix requestMix, seed int64) (*requestStream, error) {
	st := &requestStream{
		mix:  mix,
		smp:  newSampler(repo, seed),
		rng:  rand.New(rand.NewSource(seed ^ 0x5deece66d)),
		seen: make(map[string]bool),
	}
	// The Zipf pool and the fixed set are the same requests for every
	// seed; fresh requests are drawn with the run's seed.
	set := newSampler(repo, fixedSetSeed)
	for len(st.pool) < mix.pool+mix.fixed {
		r, err := st.freshRequest(set)
		if err != nil {
			return nil, err
		}
		st.pool = append(st.pool, r)
	}
	if mix.pool > 1 {
		st.zipf = rand.NewZipf(st.rng, mix.zipfS, 1, uint64(mix.pool-1))
	}
	return st, nil
}

// passLen is the number of requests in one pass of a fixed-set workload,
// or 0 for a workload whose stream never ends.
func (st *requestStream) passLen() int { return st.mix.fixed }

// freshRequest samples a request with smp whose signature the stream has
// not used.
// Schema sizes cycle through minK..maxK, so every size has the same share
// of a run whatever the seed.
func (st *requestStream) freshRequest(smp *sampler) (*request, error) {
	const maxTries = 1000
	k := st.mix.minK + st.drawn%(st.mix.maxK-st.mix.minK+1)
	st.drawn++
	for try := 0; try < maxTries; try++ {
		spec := smp.subtree(k)
		if spec == "" {
			continue
		}
		r, err := decodeRequest(spec, st.mix.options)
		if err != nil {
			return nil, err
		}
		if st.seen[r.sig] {
			continue
		}
		st.seen[r.sig] = true
		return r, nil
	}
	return nil, fmt.Errorf("no new %d-node schema after %d draws", k, maxTries)
}

// at returns request i, generating the stream up to it.
func (st *requestStream) at(i int) (*request, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.reqs) <= i {
		if st.mix.fixed > 0 {
			for _, j := range st.rng.Perm(len(st.pool)) {
				st.reqs = append(st.reqs, st.pool[j])
			}
			continue
		}
		var r *request
		if st.mix.pool > 0 && !st.freshAt(len(st.reqs)) {
			r = st.pool[st.zipfDraw()]
		} else {
			var err error
			if r, err = st.freshRequest(st.smp); err != nil {
				return nil, err
			}
		}
		st.reqs = append(st.reqs, r)
	}
	return st.reqs[i], nil
}

// freshAt reports whether request i of a pooled stream is fresh: one
// request, at a position drawn when the block starts, in every block of
// round(1/freshFrac) requests. It must be called for i = 0, 1, 2, … in turn.
func (st *requestStream) freshAt(i int) bool {
	if st.mix.freshFrac <= 0 {
		return false
	}
	block := max(1, int(math.Round(1/st.mix.freshFrac)))
	if i%block == 0 {
		st.fresh = i + st.rng.Intn(block)
	}
	return i == st.fresh
}

func (st *requestStream) zipfDraw() int {
	if st.zipf == nil {
		return 0
	}
	return int(st.zipf.Uint64())
}
