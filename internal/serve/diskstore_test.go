package serve

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func diskKey(i int) string {
	return CacheKey(fmt.Sprintf("program %d", i), "iloc", "reassoc", "test-version", false)
}

// TestDiskStoreRoundTrip: Put then Get returns the same payload, Len and
// Bytes track the store, and a fresh open over the same directory sees
// everything (restart survival at the store level).
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskStore(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	want := &storedResult{ILOC: "program\nfunc f\n", StaticOps: 7, Diags: []string{"note"}}
	key := diskKey(1)
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(key)
	if !ok || got.ILOC != want.ILOC || got.StaticOps != want.StaticOps || len(got.Diags) != 1 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if d.Len() != 1 || d.Bytes() <= 0 {
		t.Errorf("Len=%d Bytes=%d", d.Len(), d.Bytes())
	}

	// Reopen: the entry must still be there with the same bytes.
	d2, err := OpenDiskStore(dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := d2.Get(key)
	if !ok || got2.ILOC != want.ILOC {
		t.Fatalf("after reopen: Get = %+v, %v", got2, ok)
	}
	if keys := d2.RecentKeys(10); len(keys) != 1 || keys[0] != key {
		t.Errorf("RecentKeys = %v", keys)
	}
}

// TestDiskStoreCorruption: a truncated or bit-flipped entry is a miss,
// fires the corruption hook, is deleted from disk, and a rewrite heals
// the slot.
func TestDiskStoreCorruption(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskStore(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var corrupt int
	d.onCorrupt = func() { corrupt++ }

	cases := []func(path string) error{
		func(p string) error { return os.WriteFile(p, []byte("garbage, no header"), 0o644) },
		func(p string) error { // flip a payload byte: checksum mismatch
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)-2] ^= 0xff
			return os.WriteFile(p, data, 0o644)
		},
		func(p string) error { // truncate mid-payload
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)-3], 0o644)
		},
	}
	for i, mangle := range cases {
		key := diskKey(100 + i)
		if err := d.Put(key, &storedResult{ILOC: "program\n", StaticOps: 1}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, key[:2], key[2:])
		if err := mangle(path); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Get(key); ok {
			t.Errorf("case %d: corrupt entry served as a hit", i)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("case %d: corrupt file not deleted (err=%v)", i, err)
		}
		// The slot heals: recompute-and-rewrite works.
		if err := d.Put(key, &storedResult{ILOC: "program\n", StaticOps: 1}); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Get(key); !ok {
			t.Errorf("case %d: rewrite after corruption missed", i)
		}
	}
	if corrupt != len(cases) {
		t.Errorf("onCorrupt fired %d times, want %d", corrupt, len(cases))
	}

	// A file that vanished underneath the index is a quiet miss, not a
	// corruption.
	key := diskKey(200)
	d.Put(key, &storedResult{ILOC: "program\n"})
	os.Remove(filepath.Join(dir, key[:2], key[2:]))
	if _, ok := d.Get(key); ok {
		t.Error("vanished entry served as a hit")
	}
	if corrupt != len(cases) {
		t.Errorf("vanished file counted as corruption (count %d)", corrupt)
	}
}

// TestDiskStoreConcurrentWriters: many goroutines writing and reading
// the same key never observe a torn entry (atomic rename), and the final
// state is one valid entry.
func TestDiskStoreConcurrentWriters(t *testing.T) {
	d, err := OpenDiskStore(t.TempDir(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	key := diskKey(7)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := d.Put(key, &storedResult{ILOC: "program\nfunc f\n", StaticOps: 42}); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
				if res, ok := d.Get(key); ok && res.StaticOps != 42 {
					t.Errorf("reader %d observed torn entry %+v", i, res)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	res, ok := d.Get(key)
	if !ok || res.StaticOps != 42 {
		t.Fatalf("final state: %+v, %v", res, ok)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

// TestDiskStoreEviction: the byte budget is honored — least recently
// used entries (files included) disappear, recently used ones survive.
func TestDiskStoreEviction(t *testing.T) {
	dir := t.TempDir()
	big := &storedResult{ILOC: string(make([]byte, 1024)), StaticOps: 1}
	probe, err := OpenDiskStore(t.TempDir(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put(diskKey(0), big); err != nil {
		t.Fatal(err)
	}
	entrySize := probe.Bytes()

	budget := entrySize*3 + entrySize/2 // room for 3 entries
	d, err := OpenDiskStore(dir, budget, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Put(diskKey(i), big); err != nil {
			t.Fatal(err)
		}
		// Keep entry 0 hot so eviction targets the middle entries.
		if _, ok := d.Get(diskKey(0)); !ok {
			t.Fatalf("hot entry evicted after put %d", i)
		}
	}
	if d.Bytes() > budget {
		t.Errorf("Bytes = %d exceeds budget %d", d.Bytes(), budget)
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
	if _, ok := d.Get(diskKey(0)); !ok {
		t.Error("most recently used entry was evicted")
	}
	if _, ok := d.Get(diskKey(5)); ok {
		t.Error("cold entry survived the budget")
	}
	// Evicted entries are gone from disk too, not just the index.
	var files int
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			files++
		}
		return nil
	})
	if files != 3 {
		t.Errorf("%d files on disk, want 3", files)
	}
}

// TestServerDiskRestart: the acceptance path — a server writes results
// through to its cache directory; a second server over the same
// directory warms them into its LRU, so the first pass of repeat
// traffic after a "restart" is pure hits, byte-identical to the
// original responses, with zero recomputation.
func TestServerDiskRestart(t *testing.T) {
	dir := t.TempDir()
	srcs := make([]string, 4)
	for i := range srcs {
		srcs[i] = fmt.Sprintf(`
func driver(n: int): int {
    var s: int = %d
    for i = 1 to n {
        s = s + i * n + %d
    }
    return s
}
`, i, i*3)
	}

	s1 := newServer(t, Config{CacheDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	first := make([]OptimizeResponse, len(srcs))
	for i, src := range srcs {
		code, out, raw := postOptimize(t, ts1, OptimizeRequest{Source: src, Level: "dist"})
		if code != 200 {
			t.Fatalf("seed request %d: %d %s", i, code, raw)
		}
		first[i] = out
	}
	ts1.Close()
	if w := s1.Metrics().Get("disk_writes"); w != int64(len(srcs)) {
		t.Fatalf("disk_writes = %d, want %d", w, len(srcs))
	}

	// "Restart": fresh server, same directory.
	s2 := newServer(t, Config{CacheDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if warmed := s2.Metrics().Get("disk_warmed"); warmed != int64(len(srcs)) {
		t.Errorf("disk_warmed = %d, want %d", warmed, len(srcs))
	}
	for i, src := range srcs {
		code, out, raw := postOptimize(t, ts2, OptimizeRequest{Source: src, Level: "dist",
			Run: &RunSpec{Fn: "driver", Args: []string{"9"}}})
		if code != 200 {
			t.Fatalf("warm request %d: %d %s", i, code, raw)
		}
		if !out.Cached {
			t.Errorf("warm request %d missed the warmed LRU", i)
		}
		if out.Key != first[i].Key || out.ILOC != first[i].ILOC || out.StaticOps != first[i].StaticOps {
			t.Errorf("warm request %d differs from the original response", i)
		}
		// The warmed entry parses lazily and still runs.
		if out.Run == nil || out.Run.DynamicOps <= 0 {
			t.Errorf("warm request %d: run failed: %+v", i, out.Run)
		}
	}
	if misses := s2.Metrics().Get("cache_misses"); misses != 0 {
		t.Errorf("restarted server recomputed %d results", misses)
	}
}

// TestServerDiskHitPath: with a cold LRU but a populated disk (more
// entries than the LRU warms), a miss is answered by the disk store
// without recomputation and reported as disk_cached.
func TestServerDiskHitPath(t *testing.T) {
	dir := t.TempDir()
	s1 := newServer(t, Config{CacheDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	code, orig, raw := postOptimize(t, ts1, OptimizeRequest{Source: serveSrc, Level: "dist"})
	if code != 200 {
		t.Fatalf("%d %s", code, raw)
	}
	ts1.Close()

	// CacheSize 1 plus a dummy entry pushed more recently than ours
	// keeps our key out of the warmed set, forcing the disk path.
	d, err := OpenDiskStore(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(diskKey(9), &storedResult{ILOC: "x"}); err != nil {
		t.Fatal(err)
	}
	// File timestamps are coarse enough for both writes to share one;
	// date the dummy a second later so it is the most recent either way.
	later := time.Now().Add(time.Second)
	if err := os.Chtimes(filepath.Join(dir, diskKey(9)[:2], diskKey(9)[2:]), later, later); err != nil {
		t.Fatal(err)
	}

	s2 := newServer(t, Config{CacheDir: dir, CacheSize: 1})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code2, out, raw2 := postOptimize(t, ts2, OptimizeRequest{Source: serveSrc, Level: "dist"})
	if code2 != 200 {
		t.Fatalf("%d %s", code2, raw2)
	}
	if !out.DiskCached {
		t.Error("response not marked disk_cached")
	}
	if out.ILOC != orig.ILOC || out.Key != orig.Key {
		t.Error("disk-path response differs from the original")
	}
	m := s2.Metrics()
	if m.Get("disk_hits") != 1 {
		t.Errorf("disk_hits = %d, want 1", m.Get("disk_hits"))
	}
	if m.Get("cache_misses") != 0 {
		t.Errorf("cache_misses = %d, want 0 (no recompute)", m.Get("cache_misses"))
	}
}

// TestServerDiskCorruptRecompute: a corrupted disk entry bumps
// disk_corrupt, the request recomputes, and the slot is rewritten.
func TestServerDiskCorruptRecompute(t *testing.T) {
	dir := t.TempDir()
	s1 := newServer(t, Config{CacheDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	code, orig, raw := postOptimize(t, ts1, OptimizeRequest{Source: serveSrc, Level: "dist"})
	if code != 200 {
		t.Fatalf("%d %s", code, raw)
	}
	ts1.Close()

	path := filepath.Join(dir, orig.Key[:2], orig.Key[2:])
	if err := os.WriteFile(path, []byte("epre-disk-v1 deadbeef\n{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newServer(t, Config{CacheDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	m := s2.Metrics()
	// Warming already tried the entry and dropped it.
	if m.Get("disk_corrupt") < 1 {
		t.Errorf("disk_corrupt = %d, want >= 1", m.Get("disk_corrupt"))
	}
	code2, out, raw2 := postOptimize(t, ts2, OptimizeRequest{Source: serveSrc, Level: "dist"})
	if code2 != 200 {
		t.Fatalf("%d %s", code2, raw2)
	}
	if out.ILOC != orig.ILOC {
		t.Error("recomputed result differs from the original")
	}
	if m.Get("cache_misses") != 1 {
		t.Errorf("cache_misses = %d, want 1 (recompute)", m.Get("cache_misses"))
	}
	if m.Get("disk_writes") != 1 {
		t.Errorf("disk_writes = %d, want 1 (slot rewritten)", m.Get("disk_writes"))
	}
	// And the rewritten entry is valid again.
	if _, err := readEntry(path); err != nil {
		t.Errorf("rewritten entry unreadable: %v", err)
	}
}
