package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// handlerStatuses are the statuses the optimization endpoints may
// answer with; a 500 means a request reached a code path that panicked.
var handlerStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusServiceUnavailable:    true,
	http.StatusGatewayTimeout:        true,
}

// FuzzHandlers posts arbitrary bytes to /optimize (batch false) or
// /optimize/batch (batch true) of one in-process server.  Every reply,
// and every batch item, must carry an expected status, and afterwards
// a known-good request must still get the directly optimized ILOC: no
// input may crash the service or poison its cache.
func FuzzHandlers(f *testing.F) {
	const maxBatch = 4
	s, err := New(Config{Workers: 2, MaxBatch: maxBatch, Timeout: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	want := directILOC(f, []string{serveSrc})[0]
	good, err := json.Marshal(OptimizeRequest{Source: serveSrc})
	if err != nil {
		f.Fatal(err)
	}
	item := func(fields string) string {
		return fmt.Sprintf(`{"source":%q%s}`, serveSrc, fields)
	}
	single := []string{
		`{`,
		`{}`,
		`{"source":""}`,
		item(`,"lang":"cobol"`),
		item(`,"level":"bogus"`),
		item(`,"gvn":"bogus"`),
		item(`,"pre":"bogus"`),
		item(`,"run":{"fn":"driver","args":["x"]}`),
		item(`,"level":"dist","check":true,"run":{"fn":"driver","args":["9"]}`),
		string(good),
	}
	for _, body := range single {
		f.Add(false, []byte(body))
		f.Add(true, []byte(`{"items":[`+body+`]}`))
	}
	f.Add(true, []byte(`{"items":[]}`))
	f.Add(true, []byte(`{"items":[`+strings.Repeat(item("")+",", maxBatch)+item("")+`]}`))
	f.Add(true, []byte(`{"defaults":{"level":"bogus"},"items":[`+item("")+`]}`))

	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/optimize"
		if batch {
			path = "/optimize/batch"
		}
		rec := post(path, body)
		if !handlerStatuses[rec.Code] {
			t.Fatalf("%s: status %d for %q: %s", path, rec.Code, body, rec.Body)
		}
		if batch && rec.Code == http.StatusOK {
			var resp BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("undecodable batch reply %q: %v", rec.Body, err)
			}
			for _, it := range resp.Items {
				if it.Status != 0 && !handlerStatuses[it.Status] {
					t.Fatalf("batch item %d: status %d for %q: %s", it.Index, it.Status, body, it.Error)
				}
			}
		}

		rec = post("/optimize", good)
		var resp OptimizeResponse
		if rec.Code != http.StatusOK {
			t.Fatalf("known-good request after %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.ILOC != want {
			t.Fatalf("known-good request after %q: wrong reply (%v)", body, err)
		}
	})
}
