package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"testing"
)

// TestBenchmarkJSONMatchesTables checks that BENCHMARK.json lists
// exactly the metrics this command prints, with the same units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g != (entry{w.name, w.unit, w.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %s %s %s", kind, i, g, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestSameSeedSameSchedule pins that a seed fixes every workload's
// inputs and order, and that another seed changes them.
func TestSameSeedSameSchedule(t *testing.T) {
	a, b, c := sweepOrder(7), sweepOrder(7), sweepOrder(8)
	differs := false
	for sweep := 0; sweep < 3; sweep++ {
		pa, pb, pc := a.Perm(564), b.Perm(564), c.Perm(564)
		if !slices.Equal(pa, pb) {
			t.Fatalf("sweep %d: same seed, different suite-opt order", sweep)
		}
		differs = differs || !slices.Equal(pa, pc)
	}
	if !differs {
		t.Error("seeds 7 and 8 give the same suite-opt order")
	}

	sameRequests := func(x, y []request) bool {
		return slices.EqualFunc(x, y, func(p, q request) bool {
			return bytes.Equal(p.body, q.body) && slices.Equal(p.items, q.items)
		})
	}
	m1 := missRequests(missCorpus(corpusSeed(7), 0.1))
	m2 := missRequests(missCorpus(corpusSeed(7), 0.1))
	m3 := missRequests(missCorpus(corpusSeed(8), 0.1))
	if !sameRequests(m1, m2) || sameRequests(m1, m3) {
		t.Error("serve-miss requests do not follow the seed")
	}
	_, c1 := cachedSchedule(corpusSeed(7), 7, 0.1)
	_, c2 := cachedSchedule(corpusSeed(7), 7, 0.1)
	_, c3 := cachedSchedule(corpusSeed(8), 8, 0.1)
	if !sameRequests(c1, c2) || sameRequests(c1, c3) {
		t.Error("serve-cached requests do not follow the seed")
	}
}

// TestServeMissNeverRepeats pins that serve-miss sends every program
// once and no two programs are the same.
func TestServeMissNeverRepeats(t *testing.T) {
	srcs := missCorpus(corpusSeed(1), 2)
	reqs := missRequests(srcs)
	seen := map[string]bool{}
	for _, s := range srcs {
		if seen[s] {
			t.Fatal("serve-miss corpus repeats a program")
		}
		seen[s] = true
	}
	sent := make([]int, len(srcs))
	for _, r := range reqs {
		if len(r.items) != missBatch {
			t.Fatalf("batch of %d items, want %d", len(r.items), missBatch)
		}
		for _, i := range r.items {
			sent[i]++
		}
	}
	for i, n := range sent {
		if n != 1 {
			t.Fatalf("program %d sent %d times", i, n)
		}
	}
}

// cachedRun is one short traced serve-cached run shared by the tests
// below.
var cachedRun = sync.OnceValues(func() (*report, error) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	return runServeCached(options{seed: 1, seconds: 1, trace: true, workdir: dir, setups: 1})
})

// TestServeCachedComputesNothing pins that serve-cached never
// recomputes after setup: the service counts no cache miss (a miss
// fails the run) and the traced replay runs no pass.
func TestServeCachedComputesNothing(t *testing.T) {
	rep, err := cachedRun()
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("%d of %d items failed or were recomputed", rep.failed, rep.attempted)
	}
	for _, k := range []string{"serve.optimize.us", "serve.pool.wait.us", "pass.pre.us", "ir.clone.us"} {
		if rep.layers[k] != 0 {
			t.Errorf("%s = %v, want 0", k, rep.layers[k])
		}
	}
}

// TestServeCachedHitsMemoryAndDisk pins that serve-cached exercises
// both cache tiers.
func TestServeCachedHitsMemoryAndDisk(t *testing.T) {
	rep, err := cachedRun()
	if err != nil {
		t.Fatal(err)
	}
	mem, disk := rep.layers["serve.cache.hit_ratio"], rep.layers["serve.disk.hit_ratio"]
	shared := rep.layers["serve.cache.shared"]
	if mem <= 0 || disk <= 0 || mem+disk+shared < 0.999 {
		t.Errorf("memory hit ratio %v, disk hit ratio %v, shared %v: want both hit ratios positive and all three summing to 1", mem, disk, shared)
	}
}
