package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/wirsim/wir/internal/metrics"
)

// eventPoll is the /events stream polling cadence. Fast enough that short
// runs still produce a couple of lines, slow enough to cost nothing.
const eventPoll = 25 * time.Millisecond

// maxSubmitBytes caps a job submission body. Real requests are a few KB,
// kasm jobs included, since they carry their source inline.
const maxSubmitBytes = 1 << 20

func (s *Server) buildMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts", s.handleArtifactIndex)
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("GET /v1/status", s.handleStatus)

	// /metrics and /debug/pprof come from the shared telemetry handler; the
	// server refreshes its derived gauges before every render.
	tele := metrics.Handler(s.reg)
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.refreshMetrics()
		tele.ServeHTTP(w, r)
	}))
	mux.Handle("/debug/pprof/", tele)

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			s.apiError(w, http.StatusNotFound, &APIError{Error: "no such route", ExitCode: 2})
			return
		}
		fmt.Fprintf(w, "%s\nPOST /v1/jobs, GET /v1/jobs/{id}[/events|/artifacts|/metrics], GET /v1/status, GET /metrics\n", Schema)
	})
	return mux
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) apiError(w http.ResponseWriter, status int, e *APIError) {
	s.writeJSON(w, status, e)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j, status, apiErr := s.decodeJob(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if apiErr == nil {
		// A decoded job is refused only by a draining server or a full queue.
		status, apiErr = http.StatusServiceUnavailable, s.enqueue(j)
	}
	if apiErr != nil {
		s.apiError(w, status, apiErr)
		return
	}
	s.writeJSON(w, http.StatusAccepted, j.View())
}

// decodeJob is the submit handler's pipeline short of enqueueing: the strict
// decode of one JSON job request, then resolve. A rejection is a usage error
// (exit class 2) with its HTTP status: 413 for a body over the cap, else 400.
func (s *Server) decodeJob(body io.Reader) (*Job, int, *APIError) {
	dec := json.NewDecoder(body)
	// Strict decoding turns config typos into 400s instead of silently
	// simulating the default they fell back to.
	dec.DisallowUnknownFields()
	var req JobRequest
	err := dec.Decode(&req)
	if err == nil {
		// The body is one JSON value; bytes after it make the request
		// malformed rather than something to ignore.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data after the JSON request")
		}
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		return nil, status, &APIError{Error: "bad request body: " + err.Error(), ExitCode: 2}
	}
	j, apiErr := s.resolve(req)
	return j, http.StatusBadRequest, apiErr
}

func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	views := make([]JobView, 0, len(ids))
	for _, id := range ids {
		if j := s.job(id); j != nil {
			views = append(views, j.View())
		}
	}
	s.writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		s.apiError(w, http.StatusNotFound, &APIError{Error: "no such job " + r.PathValue("id"), ExitCode: 2})
		return
	}
	s.writeJSON(w, http.StatusOK, j.View())
}

// handleEvents streams job progress as chunked JSONL: one line per observed
// change of the job's live instrument series, a final line with done=true.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		s.apiError(w, http.StatusNotFound, &APIError{Error: "no such job " + r.PathValue("id"), ExitCode: 2})
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var last JobEvent
	first := true
	for {
		j.mu.Lock()
		ev := JobEvent{State: j.state, Hit: j.hit, Err: j.apiErr}
		terminal := j.state == StateDone || j.state == StateFailed
		j.mu.Unlock()
		// The per-job registry is fed by the run's interval sampler through
		// atomic instruments, so reading it mid-run is race-free.
		ev.Cycles = j.reg.Counter("wir_cycles").Value()
		ev.IPC = j.reg.Gauge("wir_interval_ipc").Value()
		ev.BypassRate = j.reg.Gauge("wir_interval_bypass_rate").Value()
		ev.VSBHitRate = j.reg.Gauge("wir_interval_vsb_hit_rate").Value()
		ev.Done = terminal
		if terminal {
			j.mu.Lock()
			ev.Cycles = j.cycles
			j.mu.Unlock()
		}
		if first || ev != last {
			if err := enc.Encode(ev); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
			last, first = ev, false
		}
		if terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
		case <-time.After(eventPoll):
		}
	}
}

// jobArtifacts returns a done job's artifact names and the payloads keep
// selects, from its store entry, which the read verifies in full whatever it
// keeps.
func (s *Server) jobArtifacts(j *Job, keep func(string) bool) (map[string][]byte, []string, *APIError) {
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state != StateDone {
		return nil, nil, &APIError{Error: fmt.Sprintf("job %s is %s, artifacts exist once it is done", j.ID, state), ExitCode: 2}
	}
	arts, names, err := s.store.read(j.token, false, nil, keep)
	if err != nil {
		return nil, nil, &APIError{Error: fmt.Sprintf("store entry %s: %v", j.token, err), ExitCode: 1}
	}
	return arts, names, nil
}

func (s *Server) handleArtifactIndex(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		s.apiError(w, http.StatusNotFound, &APIError{Error: "no such job " + r.PathValue("id"), ExitCode: 2})
		return
	}
	_, names, apiErr := s.jobArtifacts(j, func(string) bool { return false })
	if apiErr != nil {
		s.apiError(w, http.StatusNotFound, apiErr)
		return
	}
	s.writeJSON(w, http.StatusOK, names)
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		s.apiError(w, http.StatusNotFound, &APIError{Error: "no such job " + r.PathValue("id"), ExitCode: 2})
		return
	}
	name := r.PathValue("name")
	arts, _, apiErr := s.jobArtifacts(j, func(n string) bool { return n == name })
	if apiErr != nil {
		s.apiError(w, http.StatusNotFound, apiErr)
		return
	}
	payload, ok := arts[name]
	if !ok {
		s.apiError(w, http.StatusNotFound, &APIError{Error: fmt.Sprintf("job %s has no artifact %q", j.ID, name), ExitCode: 2})
		return
	}
	w.Header().Set("Content-Type", artifactContentType(name))
	_, _ = w.Write(payload)
}

func artifactContentType(name string) string {
	switch name {
	case ArtStats, ArtPerfetto, ArtReuse:
		return "application/json"
	case ArtIntervals, ArtTrace:
		return "application/jsonl"
	default:
		return "application/octet-stream"
	}
}

// handleJobMetrics renders the job's own registry in Prometheus text format:
// the per-job-labeled view of the instrument series.
func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		s.apiError(w, http.StatusNotFound, &APIError{Error: "no such job " + r.PathValue("id"), ExitCode: 2})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# job %s (%s)\n", j.ID, j.key)
	j.reg.WritePrometheus(w)
}

// Status is the GET /v1/status body.
type Status struct {
	Schema    string           `json:"schema"`
	Draining  bool             `json:"draining"`
	Queue     int              `json:"queue_depth"`
	Running   int64            `json:"running"`
	Jobs      map[string]int   `json:"jobs"`
	SimCycles uint64           `json:"sim_cycles"`
	Store     StoreStatus      `json:"store"`
	Snapshot  metrics.Snapshot `json:"metrics"`
}

// StoreStatus summarizes the result store.
type StoreStatus struct {
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	Quarantines uint64 `json:"quarantines"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.refreshMetrics()
	hits, misses, evictions, quarantines := s.store.Counters()
	st := Status{
		Schema:    Schema,
		Queue:     len(s.queue),
		Running:   s.running.Load(),
		Jobs:      map[string]int{},
		SimCycles: s.SimCycles(),
		Store: StoreStatus{
			Entries: s.store.Entries(), Bytes: s.store.Bytes(),
			Hits: hits, Misses: misses, Evictions: evictions, Quarantines: quarantines,
		},
		Snapshot: s.reg.Snapshot(),
	}
	s.mu.Lock()
	st.Draining = s.draining
	for _, j := range s.jobs {
		j.mu.Lock()
		st.Jobs[j.state]++
		j.mu.Unlock()
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, st)
}
