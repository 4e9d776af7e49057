package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/serve"
)

// Job routing. Submission routes on the content-addressed cache key,
// exactly like /v1/analyze, so a job and an interactive request for
// the same analysis land on the same shard and deduplicate through its
// cache and job store. Job IDs, however, are shard-local, so status
// and SSE lookups ask every live shard until one knows the id.

func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	rt.requests.Inc()
	req, key, ok := rt.decodeRequest(w, r)
	if !ok {
		return
	}
	var rec *trace.Recorder
	if rt.cfg.Traces != nil {
		tid := trace.NewTraceID()
		rec = rt.cfg.Traces.Rec(tid)
	}
	root := rec.Start(trace.SpanID{}, "router.route")
	defer root.End()

	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	targets, _ := rt.targets(key, time.Now())
	res := rt.forward(r.Context(), rec, root.ID(), http.MethodPost, "/v1/jobs", body, targets)
	rt.writeUpstream(w, res, false)
}

func (rt *Router) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rt.requests.Inc()
	id := r.PathValue("id")
	for _, shard := range rt.ring.Nodes() {
		res, err := rt.roundTrip(r.Context(), shard, http.MethodGet, "/v1/jobs/"+id, nil, nil, nil)
		if err != nil {
			rt.mon.markDown(shard)
			continue
		}
		if res.status == http.StatusNotFound {
			continue
		}
		rt.writeUpstream(w, res, false)
		return
	}
	writeError(w, http.StatusNotFound, "unknown job")
}

// handleJobList fans out to every live shard and merges the lists.
func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	rt.requests.Inc()
	var merged struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}
	for _, shard := range rt.ring.Nodes() {
		res, err := rt.roundTrip(r.Context(), shard, http.MethodGet, "/v1/jobs", nil, nil, nil)
		if err != nil || res.status != http.StatusOK {
			continue // a dead shard's jobs are unreachable, not fatal to the list
		}
		var page struct {
			Jobs []serve.JobStatus `json:"jobs"`
		}
		if json.Unmarshal(res.body, &page) == nil {
			merged.Jobs = append(merged.Jobs, page.Jobs...)
		}
	}
	writeJSON(w, http.StatusOK, merged)
}

// handleJobEvents proxies the shard's SSE stream, flushing event by
// event so progress reaches the client as it happens.
func (rt *Router) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	rt.requests.Inc()
	id := r.PathValue("id")
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	for _, shard := range rt.ring.Nodes() {
		hreq, err := http.NewRequestWithContext(r.Context(), http.MethodGet, shard+"/v1/jobs/"+id+"/events", nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(hreq)
		if err != nil {
			rt.mon.markDown(shard)
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			continue
		}
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.Header().Set("X-Router-Shard", shard)
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					break
				}
				fl.Flush()
			}
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		return
	}
	writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
}
