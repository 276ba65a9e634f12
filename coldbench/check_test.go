package main

import (
	"context"
	"math"
	"testing"
	"time"

	"bellflower/internal/mapgen"
	"bellflower/internal/objective"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
)

func mapping(repo *schema.Repository, delta float64, ids ...int) mapgen.Mapping {
	m := mapgen.Mapping{Score: objective.Score{Delta: delta}}
	for _, id := range ids {
		m.Images = append(m.Images, repo.Node(id))
		m.Sims = append(m.Sims, 1)
	}
	return m
}

func TestDigestCanonicalTies(t *testing.T) {
	repo := testRepo(t)
	a := &pipeline.Report{Mappings: []mapgen.Mapping{
		mapping(repo, 0.9, 1, 2), mapping(repo, 0.8, 3, 4), mapping(repo, 0.8, 5, 6), mapping(repo, 0.7, 7, 8),
	}}
	swapped := &pipeline.Report{Mappings: []mapgen.Mapping{
		a.Mappings[0], a.Mappings[2], a.Mappings[1], a.Mappings[3],
	}}
	if digest(a, 0) != digest(swapped, 0) {
		t.Error("reordering an equal-Δ group changed the digest")
	}
	other := &pipeline.Report{Mappings: []mapgen.Mapping{
		a.Mappings[0], a.Mappings[1], mapping(repo, 0.8, 5, 9), a.Mappings[3],
	}}
	if digest(a, 0) == digest(other, 0) {
		t.Error("a different member of an equal-Δ group kept the digest")
	}
	// Cut at top_n=3 inside the 0.8 tie: the straddling group's members may
	// differ, its Δ and size may not.
	cutA := &pipeline.Report{Mappings: a.Mappings[:3]}
	cutB := &pipeline.Report{Mappings: []mapgen.Mapping{a.Mappings[0], a.Mappings[1], mapping(repo, 0.8, 5, 9)}}
	if digest(cutA, 3) != digest(cutB, 3) {
		t.Error("the group straddling the top-n cut was compared member by member")
	}
	shorter := &pipeline.Report{Mappings: []mapgen.Mapping{a.Mappings[0], a.Mappings[1], mapping(repo, 0.75, 5, 6)}}
	if digest(cutA, 3) == digest(shorter, 3) {
		t.Error("a different Δ in the straddling group kept the digest")
	}
}

func TestValidate(t *testing.T) {
	repo := testRepo(t)
	opts := pipeline.DefaultOptions()
	opts.TopN = 2
	good := &pipeline.Report{Mappings: []mapgen.Mapping{mapping(repo, 0.9, 1), mapping(repo, 0.9, 2)}}
	if err := validate(good, opts); err != nil {
		t.Fatal(err)
	}
	bad := map[string]*pipeline.Report{
		"nil":        nil,
		"unranked":   {Mappings: []mapgen.Mapping{mapping(repo, 0.8, 1), mapping(repo, 0.9, 2)}},
		"below δ":    {Mappings: []mapgen.Mapping{mapping(repo, 0.7, 1)}},
		"over top_n": {Mappings: []mapgen.Mapping{mapping(repo, 0.9, 1), mapping(repo, 0.9, 2), mapping(repo, 0.8, 3)}},
		"incomplete": {Incomplete: true},
	}
	for name, rep := range bad {
		if validate(rep, opts) == nil {
			t.Errorf("%s: report accepted", name)
		}
	}
}

func TestEffortLogFlagsDisagreement(t *testing.T) {
	dir := t.TempDir()
	l, err := loadEffortLog(dir, "topn-cold", 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad := l.merge(map[int]effort{0: {Clusters: 3}, 1: {Found: 2}}); len(bad) != 0 {
		t.Fatalf("fresh log reported %v", bad)
	}
	if err := l.save(); err != nil {
		t.Fatal(err)
	}
	l, err = loadEffortLog(dir, "topn-cold", 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := l.merge(map[int]effort{0: {Clusters: 3}, 1: {Found: 5}, 2: {Iterations: 1}})
	if len(bad) != 1 || bad[0] != 1 {
		t.Fatalf("disagreeing requests %v, want [1]", bad)
	}
}

// Two closed-loop runs of one workload and seed, each on a fresh
// deployment, must agree on every effort counter and report of the
// requests both served.
func TestEffortCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("serves the paper-scale repository")
	}
	w, err := workloadByName("topn-cold")
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]*loopResult
	for i := range runs {
		d, err := deploy(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := newRequestStream(d.repo, w.mix, 42)
		if err != nil {
			t.Fatal(err)
		}
		runs[i], err = runLoop(context.Background(), d, st, w.clients, 0, math.MaxInt, 300*time.Millisecond, nil)
		d.close()
		if err != nil {
			t.Fatal(err)
		}
	}
	n := min(len(runs[0].outcomes), len(runs[1].outcomes))
	if n == 0 {
		t.Fatal("no request completed")
	}
	for i := 0; i < n; i++ {
		a, b := runs[0].outcomes[i], runs[1].outcomes[i]
		if a.err != "" || b.err != "" {
			t.Fatalf("request %d failed: %q %q", i, a.err, b.err)
		}
		if a.effort != b.effort || a.digest != b.digest {
			t.Fatalf("request %d: effort %+v vs %+v", i, a.effort, b.effort)
		}
	}
}
