package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/progen"
	"repro/internal/suite"
)

// servedCorpus is the replay corpus: six generated ILOC programs plus
// every suite routine (Mini-Fortran, PL/0 and ILOC sources).
func servedCorpus() []string {
	corpus := progen.Corpus(1, 6)
	for _, r := range suite.All() {
		corpus = append(corpus, r.Source)
	}
	return corpus
}

// directILOC optimizes every corpus program in process at the
// service's default level: the bytes every serving path must return.
func directILOC(t testing.TB, corpus []string) []string {
	t.Helper()
	want := make([]string, len(corpus))
	for i, src := range corpus {
		prog, _, err := lang.Compile(src, "")
		if err != nil {
			t.Fatalf("corpus program %d: %v", i, err)
		}
		out, err := core.OptimizeWith(prog, core.LevelReassoc, core.OptimizeOptions{})
		if err != nil {
			t.Fatalf("direct optimization of corpus program %d: %v", i, err)
		}
		want[i] = out.String()
	}
	return want
}

// replay sends the schedule (indices into corpus) to ts from four
// concurrent clients — one program per /optimize request when batch
// is 1, otherwise groups of batch items per /optimize/batch request —
// and checks every reply is a 200 whose ILOC is byte-identical to
// want.
func replay(t *testing.T, ts *httptest.Server, corpus, want []string, schedule []int, batch int) {
	t.Helper()
	groups := make(chan []int)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range groups {
				if err := replayGroup(ts, corpus, want, g, batch > 1); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for lo := 0; lo < len(schedule); lo += batch {
		groups <- schedule[lo:min(lo+batch, len(schedule))]
	}
	close(groups)
	wg.Wait()
}

func replayGroup(ts *httptest.Server, corpus, want []string, idxs []int, asBatch bool) error {
	post := func(path string, req, resp any) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		r, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, r.StatusCode)
		}
		return json.NewDecoder(r.Body).Decode(resp)
	}
	if !asBatch {
		var resp OptimizeResponse
		if err := post("/optimize", OptimizeRequest{Source: corpus[idxs[0]]}, &resp); err != nil {
			return fmt.Errorf("program %d: %w", idxs[0], err)
		}
		if resp.ILOC != want[idxs[0]] {
			return fmt.Errorf("program %d: served ILOC differs from direct optimization", idxs[0])
		}
		return nil
	}
	req := BatchRequest{Items: make([]OptimizeRequest, len(idxs))}
	for j, i := range idxs {
		req.Items[j] = OptimizeRequest{Source: corpus[i]}
	}
	var resp BatchResponse
	if err := post("/optimize/batch", req, &resp); err != nil {
		return fmt.Errorf("batch %v: %w", idxs, err)
	}
	if len(resp.Items) != len(idxs) {
		return fmt.Errorf("batch %v: %d results", idxs, len(resp.Items))
	}
	for j, i := range idxs {
		item := resp.Items[j]
		if item.Error != "" || item.OptimizeResponse == nil {
			return fmt.Errorf("program %d: batch item failed (status %d): %s", i, item.Status, item.Error)
		}
		if item.ILOC != want[i] {
			return fmt.Errorf("program %d: batch-served ILOC differs from direct optimization", i)
		}
	}
	return nil
}

// TestServedCorpusMatchesDirect replays a generated-plus-suite corpus
// through the single endpoint, the batch endpoint and a restarted
// server over the same disk cache, checking every served ILOC against
// a direct in-process optimization: the memory-cache, single-flight,
// batch and disk-warmed paths must all return the optimizer's bytes.
func TestServedCorpusMatchesDirect(t *testing.T) {
	corpus := servedCorpus()
	want := directILOC(t, corpus)

	// One full sweep, so every program is computed, then seeded
	// repeats that land on a warm cache.
	rng := rand.New(rand.NewSource(1))
	schedule := make([]int, 2*len(corpus))
	for i := range schedule {
		if i < len(corpus) {
			schedule[i] = i
		} else {
			schedule[i] = rng.Intn(len(corpus))
		}
	}
	checkCounters := func(phase string, s *Server, misses int) {
		t.Helper()
		if got := s.Metrics().Get("cache_misses"); got != int64(misses) {
			t.Errorf("%s: cache_misses = %d, want %d", phase, got, misses)
		}
		if got := s.Metrics().Get("errors"); got != 0 {
			t.Errorf("%s: errors = %d, want 0", phase, got)
		}
	}

	// Phase 1: single requests against a disk-backed server.
	dir := t.TempDir()
	s1 := newServer(t, Config{Workers: 4, CacheDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	replay(t, ts1, corpus, want, schedule, 1)
	ts1.Close()
	checkCounters("single", s1, len(corpus))

	// Phase 2: the same schedule in batches of 6 against a fresh
	// server, so batch items take the miss path too.
	s2 := newServer(t, Config{Workers: 4})
	ts2 := httptest.NewServer(s2.Handler())
	replay(t, ts2, corpus, want, schedule, 6)
	ts2.Close()
	checkCounters("batch", s2, len(corpus))

	// Restart: a new server over phase 1's directory answers one batch
	// pass over the corpus without recomputing anything.
	s3 := newServer(t, Config{Workers: 4, CacheDir: dir})
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	if warmed := s3.Metrics().Get("disk_warmed"); warmed != int64(len(corpus)) {
		t.Errorf("restart: disk_warmed = %d, want %d", warmed, len(corpus))
	}
	replay(t, ts3, corpus, want, schedule[:len(corpus)], 6)
	checkCounters("restart", s3, 0)
}
