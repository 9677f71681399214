package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
)

// BatchRequest is the POST /optimize/batch body: many programs
// optimized in one HTTP round trip.  Defaults, when set, fill the
// corresponding empty fields of every item, so a homogeneous corpus
// need not repeat its level/backends per item.
type BatchRequest struct {
	Items    []OptimizeRequest `json:"items"`
	Defaults *BatchDefaults    `json:"defaults,omitempty"`
}

// BatchDefaults are request fields applied to items that leave them
// empty.
type BatchDefaults struct {
	Lang   string `json:"lang,omitempty"`
	Format string `json:"format,omitempty"`
	Level  string `json:"level,omitempty"`
	GVN    string `json:"gvn,omitempty"`
	PRE    string `json:"pre,omitempty"`
	Check  bool   `json:"check,omitempty"`
}

// BatchItemResult is one item's outcome.  Exactly one of Error or the
// embedded response is meaningful: a failed item carries its error and
// the HTTP status it would have received as a single request, without
// disturbing its siblings.
type BatchItemResult struct {
	Index  int    `json:"index"`
	Error  string `json:"error,omitempty"`
	Status int    `json:"status,omitempty"`
	*OptimizeResponse
}

// BatchResponse is the POST /optimize/batch reply; Items preserves
// request order.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
}

// handleBatch is the batch endpoint: decode once, fan the items over
// the cache and worker pool, reassemble in order.  Item failures are
// isolated; the batch itself only fails on transport-level problems
// (bad or oversized body, too many items).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.metrics.batchRequests.Add(1)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("batch: no items"))
		return
	}
	if len(req.Items) > s.cfg.MaxBatch {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("batch: %d items exceeds the %d-item limit", len(req.Items), s.cfg.MaxBatch))
		return
	}
	s.metrics.batchItems.Add(int64(len(req.Items)))
	if req.Defaults != nil {
		for i := range req.Items {
			applyDefaults(&req.Items[i], req.Defaults)
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()

	results := make([]BatchItemResult, len(req.Items))
	var wg sync.WaitGroup
	for i := range req.Items {
		results[i].Index = i
		spec, err := s.prepare(&req.Items[i])
		if err != nil {
			s.failItem(&results[i], http.StatusBadRequest, err)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.serveBatchItem(ctx, spec, &results[i])
		}(i)
	}
	wg.Wait()

	writeJSON(w, http.StatusOK, &BatchResponse{Items: results})
}

// serveBatchItem answers one item locally.  Batch items use the
// blocking pool admission (the batch as a whole was already admitted),
// so a deep batch never shreds itself on its own queue pressure.
func (s *Server) serveBatchItem(ctx context.Context, spec *reqSpec, out *BatchItemResult) {
	res, outcome, err := s.serveLocal(ctx, spec, true)
	if err == nil {
		var resp *OptimizeResponse
		if resp, err = s.respond(ctx, spec, res, outcome); err == nil {
			out.OptimizeResponse = resp
			return
		}
	}
	s.failItem(out, statusFor(err), err)
}

// failItem counts a failed batch item and records its error and the
// status it would have received as a single request.
func (s *Server) failItem(out *BatchItemResult, status int, err error) {
	s.countFailure(status)
	out.Error = err.Error()
	out.Status = status
}

func applyDefaults(item *OptimizeRequest, d *BatchDefaults) {
	if item.Lang == "" {
		item.Lang = d.Lang
	}
	if item.Format == "" {
		item.Format = d.Format
	}
	if item.Level == "" {
		item.Level = d.Level
	}
	if item.GVN == "" {
		item.GVN = d.GVN
	}
	if item.PRE == "" {
		item.PRE = d.PRE
	}
	if d.Check {
		item.Check = true
	}
}
