package main

import (
	"testing"

	"bellflower/internal/schema"
)

func testRepo(t *testing.T) *schema.Repository {
	t.Helper()
	repo, err := newRepository()
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

func draw(t *testing.T, repo *schema.Repository, mix requestMix, seed int64, n int) []*request {
	t.Helper()
	st, err := newRequestStream(repo, mix, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*request, n)
	for i := range out {
		if out[i], err = st.at(i); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestSamplerSameSeedSameRequests(t *testing.T) {
	repo := testRepo(t)
	for _, w := range workloads {
		a := draw(t, repo, w.mix, 7, 200)
		b := draw(t, repo, w.mix, 7, 200)
		c := draw(t, repo, w.mix, 8, 200)
		same := 0
		for i := range a {
			if a[i].personal != b[i].personal || a[i].sig != b[i].sig {
				t.Fatalf("%s: request %d differs between two streams with seed 7: %q vs %q", w.name, i, a[i].personal, b[i].personal)
			}
			if a[i].sig == c[i].sig {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 gave the same %d requests", w.name, len(a))
		}
	}
}

// A stream's index order is fixed by the seed alone: drawing request 150
// first yields the same request as drawing 0..150 in order.
func TestSamplerOrderIndependent(t *testing.T) {
	repo := testRepo(t)
	mix := workloads[2].mix
	in := draw(t, repo, mix, 3, 151)
	st, err := newRequestStream(repo, mix, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := st.at(150)
	if err != nil {
		t.Fatal(err)
	}
	if r.sig != in[150].sig {
		t.Fatalf("request 150: %q, want %q", r.personal, in[150].personal)
	}
}

func TestSamplerShapes(t *testing.T) {
	repo := testRepo(t)
	for _, w := range workloads {
		reqs := draw(t, repo, w.mix, 11, 300)
		seen := make(map[string]bool)
		for i, r := range reqs {
			if n := r.tree.Len(); n < w.mix.minK || n > w.mix.maxK {
				t.Fatalf("%s: request %d %q has %d nodes, want %d..%d", w.name, i, r.personal, n, w.mix.minK, w.mix.maxK)
			}
			if w.mix.fixed > 0 && i%w.mix.fixed == 0 {
				seen = make(map[string]bool) // a fixed set repeats once per pass
			}
			if w.mix.pool == 0 && seen[r.sig] {
				t.Fatalf("%s: request %d %q repeats a signature", w.name, i, r.personal)
			}
			seen[r.sig] = true
		}
		if w.mix.pool > 0 && len(seen) >= len(reqs) {
			t.Errorf("%s: %d distinct signatures in %d pooled requests", w.name, len(seen), len(reqs))
		}
	}
}

// A pooled stream sends exactly one fresh request in every block of
// round(1/freshFrac), so every run gets the same fresh share.
func TestSamplerFreshShareExact(t *testing.T) {
	repo := testRepo(t)
	w, err := workloadByName("repeat-distributed")
	if err != nil {
		t.Fatal(err)
	}
	st, err := newRequestStream(repo, w.mix, 5)
	if err != nil {
		t.Fatal(err)
	}
	pooled := make(map[string]bool)
	for _, r := range st.pool {
		pooled[r.sig] = true
	}
	const block = 10 // 1 / freshFrac
	fresh := 0
	for i := 0; i < 50*block; i++ {
		r, err := st.at(i)
		if err != nil {
			t.Fatal(err)
		}
		if !pooled[r.sig] {
			fresh++
		}
		if i%block == block-1 {
			if fresh != 1 {
				t.Fatalf("block ending at request %d has %d fresh requests, want 1", i, fresh)
			}
			fresh = 0
		}
	}
}

// Every sampled schema is a connected piece of one repository tree: each
// personal node's name and kind recur at a repository node whose parent
// carries the personal parent's name.
func TestSubtreeIsConnectedRepositoryPiece(t *testing.T) {
	repo := testRepo(t)
	smp := newSampler(repo, 5)
	edges := make(map[[2]string]bool)
	for _, n := range repo.Nodes() {
		if p := n.Parent(); p != nil {
			edges[[2]string{p.Name, n.Name}] = true
		}
	}
	for i := 0; i < 200; i++ {
		k := 3 + i%4
		tree, err := schema.ParseSpec(smp.subtree(k))
		if err != nil {
			t.Fatal(err)
		}
		if tree.Len() != k {
			t.Fatalf("subtree %v has %d nodes, want %d", tree, tree.Len(), k)
		}
		for _, n := range tree.Nodes() {
			if p := n.Parent(); p != nil && !edges[[2]string{p.Name, n.Name}] {
				t.Fatalf("subtree %v: edge %s→%s is not in the repository", tree, p.Name, n.Name)
			}
		}
	}
}

func TestDecodeRequestOptions(t *testing.T) {
	r, err := decodeRequest("person(name,email@:string)", topNOptions)
	if err != nil {
		t.Fatal(err)
	}
	if r.opts.TopN != 10 || !r.opts.AdaptiveTopN || r.opts.Threshold != 0.75 {
		t.Fatalf("options %+v: want top_n 10, adaptive, δ 0.75", r.opts)
	}
	// A field the library does not know is ignored, as a server ignores a
	// retired no-op field.
	if _, err := decodeRequest("person(name)", `{"top_n":3,"no_such_field":true}`); err != nil {
		t.Fatal(err)
	}
}

// A fixed-set workload serves the same set whatever the seed; the seed only
// shuffles each pass.
func TestFixedSetSameForEverySeed(t *testing.T) {
	repo := testRepo(t)
	mix := requestMix{minK: 4, maxK: 4, options: `{"top_n":0}`, fixed: 16}
	set := func(reqs []*request) map[string]bool {
		m := make(map[string]bool)
		for _, r := range reqs {
			m[r.sig] = true
		}
		return m
	}
	a := draw(t, repo, mix, 1, 32)
	b := draw(t, repo, mix, 2, 32)
	for _, pass := range [][]*request{a[:16], a[16:], b[:16], b[16:]} {
		got := set(pass)
		if len(got) != 16 {
			t.Fatalf("a pass holds %d distinct requests, want 16", len(got))
		}
		for sig := range set(a[:16]) {
			if !got[sig] {
				t.Fatalf("passes differ in their request sets")
			}
		}
	}
	sameOrder := true
	for i := range a[:16] {
		sameOrder = sameOrder && a[i].sig == b[i].sig
	}
	if sameOrder {
		t.Error("seeds 1 and 2 served the fixed set in the same order")
	}
}
