package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func batchSrc(i int) string {
	return fmt.Sprintf(`
func driver(n: int): int {
    var s: int = %d
    for i = 1 to n {
        s = s + i * n + %d
    }
    return s
}
`, i, i*5)
}

func postBatch(t *testing.T, ts *httptest.Server, req BatchRequest) (int, BatchResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/optimize/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad batch response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out, string(raw)
}

// TestBatchEndpoint: many programs in one request come back in order,
// byte-identical to what the single endpoint returns for the same
// programs, with duplicates answered from the cache/flight table.
func TestBatchEndpoint(t *testing.T) {
	s := newServer(t, Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Single-endpoint ground truth.
	singles := make([]OptimizeResponse, 3)
	for i := range singles {
		code, out, raw := postOptimize(t, ts, OptimizeRequest{Source: batchSrc(i), Level: "dist"})
		if code != 200 {
			t.Fatalf("single %d: %d %s", i, code, raw)
		}
		singles[i] = out
	}

	req := BatchRequest{
		Defaults: &BatchDefaults{Level: "dist"},
		Items: []OptimizeRequest{
			{Source: batchSrc(0)},
			{Source: batchSrc(1)},
			{Source: batchSrc(2)},
			{Source: batchSrc(0)}, // duplicate of item 0
		},
	}
	code, out, raw := postBatch(t, ts, req)
	if code != 200 {
		t.Fatalf("batch: %d %s", code, raw)
	}
	if len(out.Items) != 4 {
		t.Fatalf("batch returned %d items, want 4", len(out.Items))
	}
	for i, item := range out.Items {
		if item.Index != i {
			t.Errorf("item %d carries index %d", i, item.Index)
		}
		if item.Error != "" || item.OptimizeResponse == nil {
			t.Fatalf("item %d failed: %s", i, item.Error)
		}
		want := singles[i%3]
		if item.Key != want.Key || item.ILOC != want.ILOC || item.StaticOps != want.StaticOps {
			t.Errorf("item %d differs from the single-endpoint result", i)
		}
		if !item.Cached {
			t.Errorf("item %d should have hit the cache seeded by the single requests", i)
		}
	}
	m := s.Metrics()
	if m.Get("batch_requests") != 1 {
		t.Errorf("batch_requests = %d, want 1", m.Get("batch_requests"))
	}
	if m.Get("batch_items") != 4 {
		t.Errorf("batch_items = %d, want 4", m.Get("batch_items"))
	}
	// Only the three seed singles computed; the batch was pure hits.
	if m.Get("cache_misses") != 3 {
		t.Errorf("cache_misses = %d, want 3", m.Get("cache_misses"))
	}
}

// TestBatchColdDedup: a cold batch containing duplicates computes each
// distinct program once (cache or single-flight coalescing between
// items of the same batch).
func TestBatchColdDedup(t *testing.T) {
	s := newServer(t, Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	items := make([]OptimizeRequest, 8)
	for i := range items {
		items[i] = OptimizeRequest{Source: batchSrc(i % 2), Level: "dist"}
	}
	code, out, raw := postBatch(t, ts, BatchRequest{Items: items})
	if code != 200 {
		t.Fatalf("batch: %d %s", code, raw)
	}
	for i := range out.Items {
		if out.Items[i].Error != "" {
			t.Fatalf("item %d: %s", i, out.Items[i].Error)
		}
		if out.Items[i].ILOC != out.Items[i%2].ILOC {
			t.Errorf("duplicate item %d differs from item %d", i, i%2)
		}
	}
	if misses := s.Metrics().Get("cache_misses"); misses != 2 {
		t.Errorf("cache_misses = %d, want 2 (8 items, 2 distinct programs)", misses)
	}
}

// TestBatchItemIsolation: one broken item fails alone with its own
// status; its siblings still succeed; the batch itself is a 200.  Each
// item rejected at validation counts once in `errors`, as the same
// request sent alone would.
func TestBatchItemIsolation(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	errorsBefore := s.Metrics().Get("errors")
	code, out, raw := postBatch(t, ts, BatchRequest{Items: []OptimizeRequest{
		{Source: batchSrc(0), Level: "dist"},
		{Source: "func broken("},              // parse error
		{Source: batchSrc(1), Level: "bogus"}, // unknown level
		{Source: batchSrc(1), Level: "reassoc"},
	}})
	if code != 200 {
		t.Fatalf("batch: %d %s", code, raw)
	}
	if out.Items[0].Error != "" || out.Items[3].Error != "" {
		t.Errorf("good items failed: %q / %q", out.Items[0].Error, out.Items[3].Error)
	}
	for _, i := range []int{1, 2} {
		if out.Items[i].Error == "" || out.Items[i].Status != http.StatusBadRequest {
			t.Errorf("bad item %d: error=%q status=%d, want a 400", i, out.Items[i].Error, out.Items[i].Status)
		}
	}
	if d := s.Metrics().Get("errors") - errorsBefore; d != 2 {
		t.Errorf("errors rose by %d, want 2 (one per bad item)", d)
	}
}

// TestBatchLimits: an empty batch and an oversized batch are transport
// errors, not item errors; defaults do not override explicit fields.
func TestBatchLimits(t *testing.T) {
	s := newServer(t, Config{MaxBatch: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, raw := postBatch(t, ts, BatchRequest{}); code != http.StatusBadRequest {
		t.Errorf("empty batch: %d %s", code, raw)
	}
	big := BatchRequest{Items: make([]OptimizeRequest, 3)}
	for i := range big.Items {
		big.Items[i] = OptimizeRequest{Source: batchSrc(i)}
	}
	if code, _, raw := postBatch(t, ts, big); code != http.StatusBadRequest {
		t.Errorf("oversized batch: %d %s", code, raw)
	}
	resp, err := ts.Client().Post(ts.URL+"/optimize/batch", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d", resp.StatusCode)
	}

	// Defaults fill empty fields only.
	code, out, raw := postBatch(t, ts, BatchRequest{
		Defaults: &BatchDefaults{Level: "none"},
		Items: []OptimizeRequest{
			{Source: batchSrc(0)},
			{Source: batchSrc(0), Level: "dist"},
		},
	})
	if code != 200 {
		t.Fatalf("%d %s", code, raw)
	}
	if out.Items[0].Level != "none" || out.Items[1].Level != "distribution" {
		t.Errorf("levels = %q, %q; want none, distribution", out.Items[0].Level, out.Items[1].Level)
	}
}
