package server

import (
	"net/http"

	"genasm"
	"genasm/internal/obs"
)

// executor is the execution seam between the workload handlers and the
// two serving modes. The handlers own everything both modes share —
// body decode, admission control (pair/read counts, empty and
// over-length queries), format negotiation, request metrics and
// tracing — then hand the validated request to the mode:
//
//   - localExecutor runs it on this node's engine through the cache and
//     the batch scheduler (the classic single-node path).
//   - proxyExecutor (proxy.go) forwards the already-read body to an
//     upstream chosen by consistent hashing, with health-aware
//     failover, executing nothing locally.
//
// raw is the exact request body as read off the wire, so proxy mode
// forwards bytes, not a re-encoding.
type executor interface {
	// maxQueryLen is the admission query-length limit (0 = none here;
	// proxy mode defers to the upstream's own admission).
	maxQueryLen() int
	execAlign(w http.ResponseWriter, r *http.Request, raw []byte, req AlignRequest)
	execMapAlign(w http.ResponseWriter, r *http.Request, raw []byte, req MapAlignRequest, format string)
}

// localExecutor executes requests on the server's own engine: result
// cache in front, dynamic batch scheduler behind.
type localExecutor struct {
	s *Server
}

func (x localExecutor) maxQueryLen() int { return x.s.eng.MaxQueryLen() }

func (x localExecutor) execAlign(w http.ResponseWriter, r *http.Request, raw []byte, req AlignRequest) {
	s := x.s
	pairs := make([]genasm.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = genasm.Pair{Query: []byte(p.Query), Ref: []byte(p.Ref)}
	}
	results, cached, err := s.alignCached(r.Context(), pairs)
	if err != nil {
		writeSchedError(w, err)
		return
	}
	out := make([]AlignResult, len(results))
	for i, res := range results {
		out[i] = toAlignResult(res, cached[i])
	}
	sp := obs.StartSpan(r.Context(), "serialize",
		obs.String("format", "json"), obs.Int("results", len(out)))
	writeJSON(w, http.StatusOK, AlignResponse{Results: out})
	sp.End()
}

func (x localExecutor) execMapAlign(w http.ResponseWriter, r *http.Request, raw []byte, req MapAlignRequest, format string) {
	ref, ok := x.s.registry.Get(req.Ref)
	if !ok {
		httpError(w, http.StatusNotFound, "reference %q not registered", req.Ref)
		return
	}
	x.s.writeMapAlign(w, r, ref, req, format)
}
