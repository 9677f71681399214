package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
)

// maxBodyBytes bounds any request body.
const maxBodyBytes = 64 << 20

// OptimizeRequest is the POST /optimize body (and one item of a
// /optimize/batch request).
type OptimizeRequest struct {
	// Source is Mini-Fortran, PL/0, or textual ILOC.
	Source string `json:"source"`
	// Lang forces the source language: "mf", "pl0" or "iloc".  Empty
	// means detect from the source's leading keyword.  The resolved
	// language is a cache-key dimension: the same canonical ILOC
	// arriving through two front ends occupies two cache slots.
	Lang string `json:"lang,omitempty"`
	// Format is the legacy spelling of Lang, kept for old clients; Lang
	// wins when both are set.
	Format string `json:"format,omitempty"`
	// Level is the optimization level name (default "reassoc").
	Level string `json:"level,omitempty"`
	// GVN selects the value-numbering backend: "awz" (default) or
	// "precise".  The backend is a cache-key dimension — each backend
	// has its own pipeline version, so results never cross over.
	GVN string `json:"gvn,omitempty"`
	// PRE selects the redundancy-elimination backend: "drechsler"
	// (default), "lcm" or "lospre".  Like GVN it is a cache-key
	// dimension via the per-combination pipeline version.
	PRE string `json:"pre,omitempty"`
	// Check runs the optimization in checked mode: every pass is
	// validated by the internal/check analyzers and the diagnostics are
	// returned.
	Check bool `json:"check,omitempty"`
	// Run optionally interprets the optimized program.
	Run *RunSpec `json:"run,omitempty"`
}

// RunSpec asks the service to interpret the optimized program.
type RunSpec struct {
	// Fn is the function to call (required).
	Fn string `json:"fn"`
	// Args are the call arguments, one per parameter, written like the
	// CLI's -args values: "42" is an integer, "4.2" a float.
	Args []string `json:"args,omitempty"`
}

// RunResult reports one interpretation.
type RunResult struct {
	Result     string   `json:"result"`
	DynamicOps int64    `json:"dynamic_ops"`
	Output     []string `json:"output,omitempty"`
}

// OptimizeResponse is the POST /optimize reply.
type OptimizeResponse struct {
	// Key is the content-addressed cache key of this result.
	Key string `json:"key"`
	// Cached reports that the result came from the in-memory cache;
	// Shared that this request coalesced onto a concurrent identical
	// one; DiskCached that the persistent store answered it without
	// recomputation.
	Cached     bool   `json:"cached"`
	Shared     bool   `json:"shared,omitempty"`
	DiskCached bool   `json:"disk_cached,omitempty"`
	Level      string `json:"level"`
	// Lang is the resolved source language ("mf", "pl0" or "iloc").
	Lang string `json:"lang"`
	// GVN is the value-numbering backend the result was produced with.
	GVN string `json:"gvn"`
	// PRE is the redundancy-elimination backend the result was
	// produced with.
	PRE string `json:"pre"`
	// ILOC is the optimized program.
	ILOC      string `json:"iloc"`
	StaticOps int    `json:"static_ops"`
	// Diagnostics are the checker findings (checked mode only; empty
	// means the optimization validated cleanly).
	Diagnostics []string   `json:"diagnostics,omitempty"`
	Run         *RunResult `json:"run,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// handleOptimize is the single-program endpoint: decode, validate,
// serve, encode.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.metrics.requests.Add(1)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	var req OptimizeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	spec, err := s.prepare(&req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	res, out, err := s.serveLocal(ctx, spec, false)
	if err != nil {
		s.failStatus(w, err)
		return
	}
	resp, err := s.respond(ctx, spec, res, out)
	if err != nil {
		s.failStatus(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeBody reads a request body of at most maxBodyBytes and decodes
// it into v.  On failure it answers (413 for an over-limit body, 400
// otherwise), counts the failure, and reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	s.fail(w, status, fmt.Errorf("bad request body: %w", err))
	return false
}

// failStatus answers a serving error with its transport status (see
// statusFor); a shed request also gets a Retry-After hint.
func (s *Server) failStatus(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.fail(w, status, err)
}

// countFailure bumps the counter for one failed request or batch item:
// load shedding → rejected, deadline → timeouts, anything else →
// errors.  Both endpoints count through it.
func (s *Server) countFailure(status int) {
	switch status {
	case http.StatusServiceUnavailable:
		s.metrics.rejected.Add(1)
	case http.StatusGatewayTimeout:
		s.metrics.timeouts.Add(1)
	default:
		s.metrics.errors.Add(1)
	}
}

// statusFor classifies a serving error (shared with the batch
// endpoint's per-item statuses): load shedding → 503, deadline → 504,
// a panicking job → 500, anything else → 422 (the request was
// well-formed but the optimization failed).
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrPoolClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrJobPanicked):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// handleHealthz reports liveness: "ok", or 503 "draining" once
// shutdown has begun.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleLevels lists the optimization levels and their pass sequences,
// plus the individually runnable passes (sorted by name) and the
// pipeline version — the service's self-description.
func (s *Server) handleLevels(w http.ResponseWriter, r *http.Request) {
	type levelInfo struct {
		Name   string   `json:"name"`
		Passes []string `json:"passes"`
	}
	var levels []levelInfo
	for _, l := range core.Levels {
		levels = append(levels, levelInfo{Name: string(l), Passes: core.PassNames(l)})
	}
	var passes []string
	for _, p := range core.AllPasses() {
		passes = append(passes, p.Name)
	}
	sort.Strings(passes)
	gvnVersions := make(map[string]string, len(core.GVNBackends))
	for _, g := range core.GVNBackends {
		gvnVersions[string(g)] = s.versions[backendPair{g, core.PREDrechsler}]
	}
	preVersions := make(map[string]string, len(core.PREBackends))
	for _, p := range core.PREBackends {
		preVersions[string(p)] = s.versions[backendPair{core.GVNAWZ, p}]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version":      s.version,
		"levels":       levels,
		"passes":       passes,
		"gvn_backends": gvnVersions,
		"pre_backends": preVersions,
	})
}

// runCall is a validated RunSpec: the function to call and its parsed
// arguments.
type runCall struct {
	fn   string
	args []interp.Value
}

// parseRun validates a RunSpec before anything is optimized; its
// failures are the client's (400).
func parseRun(spec *RunSpec) (*runCall, error) {
	if spec.Fn == "" {
		return nil, errors.New("run: missing fn")
	}
	args, err := parseArgs(spec.Args)
	if err != nil {
		return nil, err
	}
	return &runCall{fn: spec.Fn, args: args}, nil
}

// runProgram interprets the optimized program under the request
// deadline.  A function the program lacks fails here (422): only the
// program can tell.
func runProgram(ctx context.Context, prog *ir.Program, call *runCall) (*RunResult, error) {
	m := interp.NewMachine(prog)
	m.SetContext(ctx)
	v, err := m.Call(call.fn, call.args...)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(m.Output))
	for i, o := range m.Output {
		out[i] = o.String()
	}
	return &RunResult{Result: v.String(), DynamicOps: m.Steps, Output: out}, nil
}

// parseArgs converts CLI-style argument strings ("42" int, "4.2"
// float) into interpreter values.
func parseArgs(specs []string) ([]interp.Value, error) {
	vals := make([]interp.Value, 0, len(specs))
	for _, tok := range specs {
		tok = strings.TrimSpace(tok)
		if strings.ContainsAny(tok, ".eE") {
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("bad argument %q", tok)
			}
			vals = append(vals, interp.FloatVal(f))
		} else {
			i, err := strconv.ParseInt(tok, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad argument %q", tok)
			}
			vals = append(vals, interp.IntVal(i))
		}
	}
	return vals, nil
}

// fail counts a failed request and writes its error response.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.countFailure(status)
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
