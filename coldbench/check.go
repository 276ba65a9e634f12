package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"bellflower/internal/mapgen"
	"bellflower/internal/pipeline"
)

// effort is one report's copy of the paper's Tab. 1 effort counters:
// mapping elements, clusters formed and useful, k-means iterations, search
// space, partial and complete mappings generated, and mappings found.
type effort struct {
	MappingElements  int     `json:"mapping_elements"`
	Clusters         int     `json:"clusters"`
	UsefulClusters   int     `json:"useful_clusters"`
	Iterations       int     `json:"iterations"`
	SearchSpace      float64 `json:"search_space"`
	PartialMappings  int64   `json:"partial_mappings"`
	CompleteMappings int64   `json:"complete_mappings"`
	Found            int64   `json:"found"`
}

func effortOf(rep *pipeline.Report) effort {
	return effort{
		MappingElements:  rep.MappingElements,
		Clusters:         rep.Clusters,
		UsefulClusters:   rep.UsefulClusters,
		Iterations:       rep.Iterations,
		SearchSpace:      rep.Counters.SearchSpace,
		PartialMappings:  rep.Counters.PartialMappings,
		CompleteMappings: rep.Counters.CompleteMappings,
		Found:            rep.Counters.Found,
	}
}

// validate checks the report invariants every request must meet: complete,
// ranked by Δ in descending order, every Δ ≥ δ, and at most top_n mappings
// when the request set top_n.
func validate(rep *pipeline.Report, opts pipeline.Options) error {
	if rep == nil {
		return errors.New("nil report")
	}
	if rep.Incomplete {
		return fmt.Errorf("incomplete report: %v", rep.ShardErrors)
	}
	if opts.TopN > 0 && len(rep.Mappings) > opts.TopN {
		return fmt.Errorf("%d mappings for top_n=%d", len(rep.Mappings), opts.TopN)
	}
	for i, m := range rep.Mappings {
		if m.Score.Delta < opts.Threshold {
			return fmt.Errorf("mapping %d has Δ %v < δ %v", i, m.Score.Delta, opts.Threshold)
		}
		if i > 0 && m.Score.Delta > rep.Mappings[i-1].Score.Delta {
			return fmt.Errorf("mapping %d has Δ %v above its predecessor's %v", i, m.Score.Delta, rep.Mappings[i-1].Score.Delta)
		}
	}
	return nil
}

// digest hashes the report's ranked mapping list in a canonical form: the
// exact Δ sequence, and within each group of equal Δ the sorted set of
// mappings, each as its image node IDs, similarity bits and score bits. The
// order of equal-Δ mappings is the one thing topologies may legitimately
// disagree on, so it is not hashed. When the list was cut at topN, the
// group straddling the cut may hold different members of a larger tie, so
// only its Δ and size are hashed.
func digest(rep *pipeline.Report, topN int) string {
	h := sha256.New()
	ms := rep.Mappings
	cut := topN > 0 && len(ms) == topN
	var buf []byte
	var keys []string
	for i := 0; i < len(ms); {
		j := i + 1
		for j < len(ms) && ms[j].Score.Delta == ms[i].Score.Delta {
			j++
		}
		buf = binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(ms[i].Score.Delta))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(j-i))
		h.Write(buf)
		if !(cut && j == len(ms)) {
			keys = keys[:0]
			for _, m := range ms[i:j] {
				keys = append(keys, mappingKey(m, buf[:0]))
			}
			sort.Strings(keys)
			for _, k := range keys {
				io.WriteString(h, k)
			}
		}
		i = j
	}
	return hex.EncodeToString(h.Sum(nil))
}

func mappingKey(m mapgen.Mapping, buf []byte) string {
	for i, img := range m.Images {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(img.ID))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Sims[i]))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Score.Sim))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Score.Path))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Score.Et))
	return string(buf)
}

// effortLog keeps the effort counters of every request of a (workload,
// seed, program) triple across runs, so a later run with the same seed is
// checked against the earlier ones: the counters are machine-independent
// and must repeat exactly.
type effortLog struct {
	path string
	byID map[int]effort
}

// loadEffortLog opens the log for the triple under dir. The program is
// identified by the hash of the running executable, so a rebuilt program
// starts a new log.
func loadEffortLog(dir, workload string, seed int64) (*effortLog, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-%d-%s.json", workload, seed, hex.EncodeToString(h.Sum(nil))[:16])
	l := &effortLog{path: filepath.Join(dir, name), byID: make(map[int]effort)}
	b, err := os.ReadFile(l.path)
	if errors.Is(err, os.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, err
	}
	var stored map[string]effort
	if err := json.Unmarshal(b, &stored); err != nil {
		return nil, fmt.Errorf("effort log %s: %w", l.path, err)
	}
	for k, e := range stored {
		i, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("effort log %s: request index %q", l.path, k)
		}
		l.byID[i] = e
	}
	return l, nil
}

// merge compares the run's counters with the logged ones for the requests
// both have seen and adds the new requests to the log. It returns the
// indices of the requests whose counters disagree.
func (l *effortLog) merge(efforts map[int]effort) []int {
	var bad []int
	for i, e := range efforts {
		if old, ok := l.byID[i]; ok && old != e {
			bad = append(bad, i)
			continue
		}
		l.byID[i] = e
	}
	sort.Ints(bad)
	return bad
}

func (l *effortLog) save() error {
	out := make(map[string]effort, len(l.byID))
	for i, e := range l.byID {
		out[strconv.Itoa(i)] = e
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(l.path, b, 0o644)
}
