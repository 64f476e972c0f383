package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/obs"
)

// maxBodyBytes bounds every request body the service parses; oversized
// bodies fail with 413 instead of buffering without limit.
const maxBodyBytes = 1 << 20

// fieldError is one validation failure, tagged with the offending field.
type fieldError struct {
	Field   string `json:"field,omitempty"`
	Message string `json:"message"`
}

// apiError is the structured error body every endpoint returns: machine
// readable where http.Error would have been a bare string.
type apiError struct {
	Error string      `json:"error"`
	Field *fieldError `json:"detail,omitempty"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// badRequest rejects a request with a structured 400 (or the given status)
// and counts it.
func (s *server) badRequest(w http.ResponseWriter, status int, ferr *fieldError) {
	s.reg.Counter(obs.MWebBadRequests).Inc()
	msg := ferr.Message
	if ferr.Field != "" {
		msg = ferr.Field + ": " + ferr.Message
	}
	writeJSON(w, status, apiError{Error: msg, Field: ferr})
}

// handleCampaignSubmit is POST /api/campaigns: validate the spec, admit it
// through the queue, answer 202 with the job snapshot — or shed with
// 429/503 plus Retry-After when admission control refuses.
func (s *server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var spec campaignSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.badRequest(w, status, &fieldError{Message: "decoding campaign spec: " + err.Error()})
		return
	}
	if ferr := spec.validate(); ferr != nil {
		s.badRequest(w, http.StatusBadRequest, ferr)
		return
	}
	tenant := strings.TrimSpace(r.Header.Get("X-Tenant"))
	if tenant == "" {
		tenant = "default"
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	queue, err := s.campaignQueue()
	if err != nil {
		s.shed(w, err)
		return
	}
	snap, err := queue.Submit(tenant, payload)
	if err != nil {
		s.shed(w, err)
		return
	}
	s.reg.Counter(obs.MWebCampaigns).Inc()
	w.Header().Set("Location", "/api/campaigns/"+snap.ID)
	writeJSON(w, http.StatusAccepted, snap)
}

// shed translates an admission-control rejection into 429 (tenant quota) or
// 503 (queue full, draining) with a Retry-After header.
func (s *server) shed(w http.ResponseWriter, err error) {
	s.reg.Counter(obs.MWebCampaignsShed).Inc()
	status := http.StatusServiceUnavailable
	if errors.Is(err, jobqueue.ErrQuota) {
		status = http.StatusTooManyRequests
	}
	var sh *jobqueue.ShedError
	if errors.As(err, &sh) {
		w.Header().Set("Retry-After", fmt.Sprint(int(math.Ceil(sh.RetryAfter.Seconds()))))
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

// handleCampaignList is GET /api/campaigns.
func (s *server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	queue, err := s.campaignQueue()
	if err != nil {
		s.shed(w, err)
		return
	}
	writeJSON(w, http.StatusOK, queue.List())
}

// handleCampaignGet is GET /api/campaigns/{id}.
func (s *server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	queue, err := s.campaignQueue()
	if err != nil {
		s.shed(w, err)
		return
	}
	snap, err := queue.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleCampaignCancel is DELETE /api/campaigns/{id}: queued campaigns
// cancel immediately, running ones have their executor interrupted.
func (s *server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	queue, err := s.campaignQueue()
	if err != nil {
		s.shed(w, err)
		return
	}
	state, err := queue.Cancel(id)
	switch {
	case errors.Is(err, jobqueue.ErrUnknownJob):
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
	case errors.Is(err, jobqueue.ErrTerminal):
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "state": state})
	}
}

// handleCampaignArtifact is GET /api/campaigns/{id}/artifact: the published
// result document of a completed campaign.
func (s *server) handleCampaignArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	queue, err := s.campaignQueue()
	if err != nil {
		s.shed(w, err)
		return
	}
	snap, err := queue.Get(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	if snap.State != jobqueue.StateDone {
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("campaign %s is %s; artifact exists once done", id, snap.State)})
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	http.ServeFile(w, r, s.artifactPath(id))
}

// handleCampaignEvents is GET /api/campaigns/{id}/events: a Server-Sent
// Events stream of the campaign's journal records, read from the queue —
// history first (everything already journaled, including what a reopened
// queue replayed), then each record as it becomes durable, closing after
// the terminal record or when the queue closes. Each SSE event is named by
// the record type and carries the raw journal JSON.
func (s *server) handleCampaignEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	queue, err := s.campaignQueue()
	if err != nil {
		s.shed(w, err)
		return
	}
	if _, err := queue.Get(id); err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported"})
		return
	}
	s.reg.Gauge(obs.MWebSSEClients).Add(1)
	defer s.reg.Gauge(obs.MWebSSEClients).Add(-1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// The server's WriteTimeout would cut a long stream mid-campaign;
	// instead, push the write deadline forward before every write so only
	// a genuinely stuck client times out.
	rc := http.NewResponseController(w)
	write := func(format string, args ...any) error {
		//lint:ignore determinism SSE write deadline is transport plumbing, never part of benchmark output
		rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return err
		}
		fl.Flush()
		return nil
	}

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for next := 0; ; {
		recs, changed, err := queue.Events(id, next)
		if err != nil {
			return
		}
		for _, rec := range recs {
			var head struct {
				Type string `json:"type"`
			}
			if json.Unmarshal(rec, &head) != nil || write("event: %s\ndata: %s\n\n", head.Type, rec) != nil {
				return
			}
		}
		next += len(recs)
		if changed == nil {
			// The campaign is terminal or the queue closed (server
			// draining): end the stream; a client reconnecting to the
			// restarted server gets the whole history again.
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if write(": keepalive\n\n") != nil {
				return
			}
		case <-changed:
		}
	}
}
