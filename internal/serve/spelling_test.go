package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// TestSpellingDigest: every field that determines a cache key
// separates spelling digests, and length prefixes keep a language
// that swallows the level from colliding with a real pair.
func TestSpellingDigest(t *testing.T) {
	base := spellingDigest("v1", "", core.LevelReassoc, false, serveSrc)
	if again := spellingDigest("v1", "", core.LevelReassoc, false, serveSrc); again != base {
		t.Fatal("identical spellings digest differently")
	}
	variants := map[string]string{
		"version": spellingDigest("v2", "", core.LevelReassoc, false, serveSrc),
		"lang":    spellingDigest("v1", "mf", core.LevelReassoc, false, serveSrc),
		"level":   spellingDigest("v1", "", core.LevelDist, false, serveSrc),
		"check":   spellingDigest("v1", "", core.LevelReassoc, true, serveSrc),
		"source":  spellingDigest("v1", "", core.LevelReassoc, false, "\n"+serveSrc),
	}
	for field, d := range variants {
		if d == base {
			t.Errorf("changing the %s leaves the digest unchanged", field)
		}
	}
	if spellingDigest("v1", "mf", "x", false, "y") == spellingDigest("v1", "mfx", "", false, "y") {
		t.Error("field boundaries are ambiguous")
	}
}

// TestSpellingHit: an identical repeat request takes its key from the
// spelling index and answers with the same key, language and ILOC.
func TestSpellingHit(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := OptimizeRequest{Source: serveSrc, Level: "dist"}
	code, first, raw := postOptimize(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if n := s.Metrics().Get("spelling_hits"); n != 0 {
		t.Fatalf("first request: spelling_hits = %d, want 0", n)
	}
	code, again, raw := postOptimize(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", code, raw)
	}
	if n := s.Metrics().Get("spelling_hits"); n != 1 {
		t.Errorf("repeat: spelling_hits = %d, want 1", n)
	}
	if again.Key != first.Key || again.Lang != first.Lang || again.ILOC != first.ILOC || !again.Cached {
		t.Errorf("repeat differs: key %s/%s lang %s/%s cached %v, ILOC equal %v",
			again.Key, first.Key, again.Lang, first.Lang, again.Cached, again.ILOC == first.ILOC)
	}
}

// TestSpellingHitEvicted: when a spelling hits the index but its result
// has left the LRU (and there is no disk store), the pool job compiles
// the source itself and returns byte-identical ILOC.
func TestSpellingHitEvicted(t *testing.T) {
	s := newServer(t, Config{CacheSize: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := OptimizeRequest{Source: serveSrc, Level: "dist", Run: &RunSpec{Fn: "driver", Args: []string{"9"}}}
	code, first, raw := postOptimize(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	s.cache.Put("evictor", &cachedResult{iloc: "x"})
	if _, ok := s.cache.Get(first.Key); ok {
		t.Fatal("result still cached after eviction")
	}
	misses := s.Metrics().Get("cache_misses")
	code, again, raw := postOptimize(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("after eviction: status %d: %s", code, raw)
	}
	m := s.Metrics()
	if n := m.Get("spelling_hits"); n != 1 {
		t.Errorf("spelling_hits = %d, want 1", n)
	}
	if n := m.Get("cache_misses"); n != misses+1 {
		t.Errorf("cache_misses = %d, want %d", n, misses+1)
	}
	if again.Cached || again.Key != first.Key || again.ILOC != first.ILOC {
		t.Errorf("recomputed result differs: cached %v, key %s/%s, ILOC equal %v",
			again.Cached, again.Key, first.Key, again.ILOC == first.ILOC)
	}
	if again.Run == nil || first.Run == nil || again.Run.Result != first.Run.Result {
		t.Errorf("run results differ: %+v vs %+v", again.Run, first.Run)
	}
}

// TestSpellingErrorNotIndexed: a source that fails to compile answers
// 400 every time and never enters the index.
func TestSpellingErrorNotIndexed(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if code, _, raw := postOptimize(t, ts, OptimizeRequest{Source: "func ("}); code != http.StatusBadRequest {
			t.Errorf("attempt %d: status %d (%s), want 400", i, code, raw)
		}
	}
	if n := s.Metrics().Get("spelling_hits"); n != 0 {
		t.Errorf("spelling_hits = %d, want 0", n)
	}
	if n := s.spellings.Len(); n != 0 {
		t.Errorf("index holds %d spellings, want 0", n)
	}
}

// TestBatchRepeatedItem: a batch carrying the same item twice answers
// both identically; the second is keyed from the index.
func TestBatchRepeatedItem(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	item := OptimizeRequest{Source: serveSrc, Level: "dist"}
	code, out, raw := postBatch(t, ts, BatchRequest{Items: []OptimizeRequest{item, item}})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	a, b := out.Items[0], out.Items[1]
	if a.Error != "" || b.Error != "" {
		t.Fatalf("item errors: %q, %q", a.Error, b.Error)
	}
	if a.Key != b.Key || a.Lang != b.Lang || a.ILOC != b.ILOC || a.StaticOps != b.StaticOps {
		t.Errorf("repeated items differ: %+v vs %+v", a.OptimizeResponse, b.OptimizeResponse)
	}
	m := s.Metrics()
	if n := m.Get("spelling_hits"); n != 1 {
		t.Errorf("spelling_hits = %d, want 1", n)
	}
	if n := m.Get("cache_misses"); n != 1 {
		t.Errorf("cache_misses = %d, want 1", n)
	}
}

// BenchmarkServeHit repeats one warm /optimize request through the
// handler: the in-memory hit path (decode, key, LRU lookup, encode),
// without a network.
func BenchmarkServeHit(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(OptimizeRequest{Source: serveSrc})
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
