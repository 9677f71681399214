package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
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
// the cache and worker pool (grouping peer-owned items into sub-batch
// forwards), reassemble in order.  Item failures are isolated; the
// batch itself only fails on transport-level problems (bad JSON, too
// many items).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.metrics.batchRequests.Add(1)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
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
	specs := make([]*reqSpec, len(req.Items))
	for i := range req.Items {
		results[i].Index = i
		spec, err := s.prepare(&req.Items[i])
		if err != nil {
			s.failItem(&results[i], http.StatusBadRequest, err)
			continue
		}
		specs[i] = spec
	}

	// Route each prepared item: ring-owned-elsewhere items group into
	// one sub-batch per owner (unless this batch was itself forwarded —
	// the loop guard applies to items exactly as it does to single
	// requests); the rest run here.
	local := make([]int, 0, len(specs))
	byOwner := map[string][]int{}
	forwarded := r.Header.Get(forwardHeader) != ""
	for i, spec := range specs {
		if spec == nil {
			continue
		}
		if owner, isLocal := s.ownerOf(spec.key); !isLocal && !forwarded {
			byOwner[owner] = append(byOwner[owner], i)
		} else {
			local = append(local, i)
		}
	}

	var wg sync.WaitGroup
	for owner, idxs := range byOwner {
		wg.Add(1)
		go func(owner string, idxs []int) {
			defer wg.Done()
			if !s.forwardSubBatch(ctx, owner, &req, idxs, results) {
				// Owner unreachable: serve the group locally instead.
				var lwg sync.WaitGroup
				for _, i := range idxs {
					lwg.Add(1)
					go func(i int) {
						defer lwg.Done()
						s.serveBatchItem(ctx, specs[i], &results[i])
					}(i)
				}
				lwg.Wait()
			}
		}(owner, idxs)
	}
	for _, i := range local {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.serveBatchItem(ctx, specs[i], &results[i])
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

// forwardSubBatch sends the given items to their ring owner as one
// batch request and folds the per-item results back into results
// (remapping the sub-batch's indices onto ours).  It reports whether
// the forward round-trip succeeded; on failure the caller serves the
// group locally.
func (s *Server) forwardSubBatch(ctx context.Context, owner string, req *BatchRequest, idxs []int, results []BatchItemResult) bool {
	sub := BatchRequest{Items: make([]OptimizeRequest, len(idxs))}
	for si, i := range idxs {
		sub.Items[si] = req.Items[i]
	}
	body, err := json.Marshal(&sub)
	if err != nil {
		s.metrics.peerForwardErrors.Add(1)
		return false
	}
	status, _, respBody, err := s.peers.forward(ctx, owner, "/optimize/batch", body)
	if err != nil {
		s.metrics.peerForwardErrors.Add(1)
		return false
	}
	if status != http.StatusOK {
		// The owner answered but rejected the sub-batch wholesale (e.g.
		// it is draining).  Treat like unreachability: serve locally.
		s.metrics.peerForwardErrors.Add(1)
		return false
	}
	var subResp BatchResponse
	if err := json.Unmarshal(respBody, &subResp); err != nil || len(subResp.Items) != len(idxs) {
		s.metrics.peerForwardErrors.Add(1)
		return false
	}
	s.metrics.peerForwards.Add(1)
	for si, i := range idxs {
		item := subResp.Items[si]
		item.Index = i
		results[i] = item
	}
	return true
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
