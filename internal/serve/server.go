package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/harness"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/mem"
	"github.com/wirsim/wir/internal/metrics"
)

// Schema identifies the job API wire format.
const Schema = "wir-serve/1"

// QueueSchema identifies the persisted-queue file written by Drain.
const QueueSchema = "wir-serve-queue/1"

// queueFile is the name of the persisted-queue file inside the store dir.
const queueFile = "queue.json"

// Per-job resource limits; requests past them are usage errors. Each sits
// far above every job the repo submits itself. An SM costs about 0.21 MB at
// gpu.New, a launch builds one descriptor per block, and global memory is
// addressed in 32-bit bytes.
const (
	maxJobSMs    = 64
	maxJobBlocks = 1 << 16
	maxJobWords  = 1 << 24
)

// maxFinishedJobs bounds how many done or failed jobs the server remembers,
// each with its per-job metrics registry. Past it, the oldest finished job is
// forgotten and its id answers 404; queued and running jobs are always kept.
const maxFinishedJobs = 1024

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Options configures a Server.
type Options struct {
	// SMs is the default machine width for jobs that do not name one
	// (default 15, the paper's GTX480 configuration; at most maxJobSMs).
	SMs int
	// Workers bounds concurrent job execution, and so concurrent
	// simulations: every job is one simulation (default 2).
	Workers int
	// QueueDepth bounds accepted-but-not-started jobs; submissions beyond it
	// get 503 (default 256).
	QueueDepth int
	// StoreDir is the result store root (required).
	StoreDir string
	// StoreMaxBytes caps the store (0 = unlimited).
	StoreMaxBytes int64
	// Logf, when non-nil, receives server progress lines.
	Logf func(format string, args ...any)
	// BeforeJob, when non-nil, runs on the worker goroutine right before a
	// job executes. Tests use it to hold a job mid-flight deterministically.
	BeforeJob func(id string)
}

// JobRequest is the POST /v1/jobs body.
type JobRequest struct {
	// Kind selects the job class: "run" (suite benchmark) or "kasm" (client
	// kernel source).
	Kind string `json:"kind"`
	// Bench is the suite benchmark abbreviation for run jobs.
	Bench string `json:"bench,omitempty"`
	// Model names the machine model (default RLPV).
	Model string `json:"model,omitempty"`
	// SMs overrides the server's default machine width.
	SMs int `json:"sms,omitempty"`
	// Config, when present, is the full machine configuration, used verbatim
	// after validation. When absent the server mirrors wirsim: the model
	// default, the requested SM count, and an auto-derived watchdog.
	Config *config.Config `json:"config,omitempty"`
	// Kasm carries the kernel for kasm jobs.
	Kasm *KasmSpec `json:"kasm,omitempty"`
}

// KasmSpec is a client-supplied kernel: assembly source plus launch geometry.
type KasmSpec struct {
	Name   string `json:"name,omitempty"` // kernel label (default "kernel")
	Source string `json:"source"`
	GridX  int    `json:"grid_x,omitempty"` // blocks (defaults 1)
	GridY  int    `json:"grid_y,omitempty"`
	GridZ  int    `json:"grid_z,omitempty"`
	DimX   int    `json:"dim_x,omitempty"` // threads per block (defaults 1)
	DimY   int    `json:"dim_y,omitempty"`
	DimZ   int    `json:"dim_z,omitempty"`
	// GlobalWords pre-allocates a zeroed global buffer at address 0 so
	// kernels have somewhere to load from and store to.
	GlobalWords int `json:"global_words,omitempty"`
}

// APIError is the structured error body: message plus the repo-wide exit
// taxonomy class (1 runtime, 2 usage, 3 run judged bad, 4 interrupted).
type APIError struct {
	Error    string `json:"error"`
	ExitCode int    `json:"exit_code"`
}

// JobView is the externally visible job state.
type JobView struct {
	Schema    string    `json:"schema"`
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	State     string    `json:"state"`
	Key       string    `json:"key,omitempty"`  // harness cache key
	Hash      string    `json:"hash,omitempty"` // store token = stats config_hash
	Hit       bool      `json:"hit"`            // answered from the store
	Cycles    uint64    `json:"cycles,omitempty"`
	Artifacts []string  `json:"artifacts,omitempty"`
	Err       *APIError `json:"error,omitempty"`
}

// JobEvent is one line of the /events JSONL progress stream.
type JobEvent struct {
	State      string    `json:"state"`
	Cycles     uint64    `json:"cycles"`
	IPC        float64   `json:"ipc,omitempty"`
	BypassRate float64   `json:"bypass_rate,omitempty"`
	VSBHitRate float64   `json:"vsb_hit_rate,omitempty"`
	Done       bool      `json:"done,omitempty"`
	Hit        bool      `json:"hit,omitempty"`
	Err        *APIError `json:"error,omitempty"`
}

// Job is one queued-to-terminal unit of API work.
type Job struct {
	ID  string
	Req JobRequest

	kind  string
	key   string
	token string
	spec  *RunSpec
	reg   *metrics.Registry // live per-job series

	mu     sync.Mutex
	state  string
	hit    bool
	cycles uint64
	apiErr *APIError
	done   chan struct{}
}

func (j *Job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// View snapshots the job for the API.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		Schema: Schema, ID: j.ID, Kind: j.kind, State: j.state,
		Key: j.key, Hash: j.token, Hit: j.hit, Cycles: j.cycles, Err: j.apiErr,
	}
	if j.state == StateDone {
		v.Artifacts = []string{ArtIntervals, ArtPerfetto, ArtPprof, ArtReuse, ArtStats, ArtTrace}
	}
	return v
}

// Server is the wirserve daemon: job queue, worker pool, result store, and
// the HTTP API over them.
type Server struct {
	opts  Options
	store *Store
	reg   *metrics.Registry // server-wide /metrics registry
	mux   http.Handler

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in submission order
	finished []string // IDs of finished jobs still kept, oldest first
	nextID   int
	inflight map[string]chan struct{} // token -> done; serve-level single flight
	draining bool
	drained  chan struct{} // closed when Drain completes

	running   atomic.Int64
	simCycles atomic.Uint64 // cycles of fresh simulations

	queue chan *Job
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// New builds a Server, opens its store, recovers any queue persisted by a
// drained predecessor, and starts the worker pool.
func New(opts Options) (*Server, error) {
	if opts.SMs <= 0 {
		opts.SMs = 15
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.SMs > maxJobSMs {
		return nil, fmt.Errorf("serve: Options.SMs %d is above the job limit of %d", opts.SMs, maxJobSMs)
	}
	if opts.StoreDir == "" {
		return nil, errors.New("serve: Options.StoreDir is required")
	}
	store, err := OpenStore(opts.StoreDir, opts.StoreMaxBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:     opts,
		store:    store,
		reg:      metrics.NewRegistry(),
		jobs:     map[string]*Job{},
		inflight: map[string]chan struct{}{},
		drained:  make(chan struct{}),
		queue:    make(chan *Job, opts.QueueDepth),
		stop:     make(chan struct{}),
	}
	s.mux = s.buildMux()
	s.recoverQueue()
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.refreshMetrics()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Handler returns the wir-serve/1 HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SimCycles returns the total fresh simulated cycles this process has spent
// on behalf of jobs. Store hits contribute nothing — the conformance suite
// pins repeat submissions to a delta of exactly zero.
func (s *Server) SimCycles() uint64 { return s.simCycles.Load() }

// Store exposes the result store (tests and the status endpoint).
func (s *Server) Store() *Store { return s.store }

// Drain stops accepting jobs, lets running jobs finish, persists the
// still-queued remainder to <store>/queue.json for the next process, and
// returns. Safe to call more than once; later calls wait for the first.
func (s *Server) Drain() {
	first := false
	s.once.Do(func() { first = true })
	if !first {
		<-s.drained
		return
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	var pending []JobRequest
	for {
		select {
		case j := <-s.queue:
			pending = append(pending, j.Req)
			j.mu.Lock()
			j.state = StateFailed
			j.apiErr = &APIError{Error: "server drained before the job ran; it was persisted for the next process", ExitCode: 4}
			close(j.done)
			j.mu.Unlock()
		default:
			goto drained
		}
	}
drained:
	if len(pending) > 0 {
		s.persistQueue(pending)
	}
	s.refreshMetrics()
	close(s.drained)
	s.logf("serve: drained (%d jobs persisted)", len(pending))
}

func (s *Server) persistQueue(pending []JobRequest) {
	data, err := json.MarshalIndent(struct {
		Schema string       `json:"schema"`
		Jobs   []JobRequest `json:"jobs"`
	}{QueueSchema, pending}, "", "  ")
	if err != nil {
		s.logf("serve: persist queue: %v", err)
		return
	}
	path := filepath.Join(s.opts.StoreDir, queueFile)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		s.logf("serve: persist queue: %v", err)
	}
}

// recoverQueue resubmits jobs a drained predecessor persisted. Requests are
// re-validated (the binary may have changed) and get fresh IDs; the file is
// consumed either way.
func (s *Server) recoverQueue() {
	path := filepath.Join(s.opts.StoreDir, queueFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	_ = os.Remove(path)
	var pq struct {
		Schema string       `json:"schema"`
		Jobs   []JobRequest `json:"jobs"`
	}
	if err := json.Unmarshal(data, &pq); err != nil || pq.Schema != QueueSchema {
		s.logf("serve: ignoring unreadable %s: %v", queueFile, err)
		return
	}
	n := 0
	for i := range pq.Jobs {
		if _, apiErr := s.submit(pq.Jobs[i]); apiErr != nil {
			s.logf("serve: dropping persisted job %d: %s", i, apiErr.Error)
			continue
		}
		n++
	}
	if n > 0 {
		s.logf("serve: recovered %d persisted jobs", n)
	}
}

// --- job resolution and submission ---

// resolve validates a request into an executable Job. All failures are usage
// errors (exit class 2).
func (s *Server) resolve(req JobRequest) (*Job, *APIError) {
	usage := func(format string, args ...any) *APIError {
		return &APIError{Error: fmt.Sprintf(format, args...), ExitCode: 2}
	}
	modelName := req.Model
	if modelName == "" {
		modelName = "RLPV"
	}
	m, err := config.ParseModel(modelName)
	if err != nil {
		return nil, usage("%v", err)
	}
	sms := req.SMs
	if sms <= 0 {
		sms = s.opts.SMs
	}
	// Mirror wirsim's config pipeline exactly, so a job and a local wirsim
	// run of the same request land on the same cache key.
	var cfg config.Config
	if req.Config != nil {
		cfg = *req.Config
	} else {
		cfg = config.Default(m)
		cfg.NumSMs = sms
		cfg.WatchdogCycles = mem.AutoWatchdog(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, usage("config: %v", err)
	}
	if cfg.NumSMs > maxJobSMs {
		return nil, usage("config: %d SMs is above the job limit of %d", cfg.NumSMs, maxJobSMs)
	}

	j := &Job{Req: req, kind: req.Kind, state: StateQueued, done: make(chan struct{}), reg: metrics.NewRegistry()}
	switch req.Kind {
	case "run":
		bm, err := bench.ByAbbr(req.Bench)
		if err != nil {
			return nil, usage("%v", err)
		}
		j.key = harness.RunKey(bm.Abbr, m, nil, &cfg)
		j.token = harness.KeyHash(j.key)
		j.spec = &RunSpec{Benchmark: bm.Abbr, Model: m, Cfg: cfg, Token: j.token, Setup: bm.Setup}
	case "kasm":
		if req.Kasm == nil || req.Kasm.Source == "" {
			return nil, usage("kasm job needs a kasm section with source")
		}
		ks := *req.Kasm
		if min(ks.GridX, ks.GridY, ks.GridZ, ks.DimX, ks.DimY, ks.DimZ, ks.GlobalWords) < 0 {
			return nil, usage("kasm: negative launch geometry or global_words")
		}
		if !productWithin(maxJobBlocks, ks.GridX, ks.GridY, ks.GridZ) {
			return nil, usage("kasm: grid has more than the job limit of %d blocks", maxJobBlocks)
		}
		if ks.GlobalWords > maxJobWords {
			return nil, usage("kasm: global_words %d is above the job limit of %d", ks.GlobalWords, maxJobWords)
		}
		if ks.Name == "" {
			ks.Name = "kernel"
		}
		if ks.GridX <= 0 {
			ks.GridX = 1
		}
		if ks.DimX <= 0 {
			ks.DimX = 1
		}
		k, err := kasm.Parse(ks.Name, ks.Source)
		if err != nil {
			return nil, usage("%v", err)
		}
		j.key = kasmKey(ks.Name, m, &cfg, &ks)
		j.token = harness.KeyHash(j.key)
		launch := gpu.Launch{Kernel: k, GridX: ks.GridX, GridY: ks.GridY, GridZ: ks.GridZ,
			DimX: ks.DimX, DimY: ks.DimY, DimZ: ks.DimZ}
		words := ks.GlobalWords
		j.spec = &RunSpec{Benchmark: ks.Name, Model: m, Cfg: cfg, Token: j.token,
			Setup: func(g *gpu.GPU) (*bench.Workload, error) {
				if words > 0 {
					g.Mem().Alloc(words)
				}
				return &bench.Workload{Launches: []gpu.Launch{launch}}, nil
			}}
	default:
		return nil, usage("unknown job kind %q (want run or kasm)", req.Kind)
	}
	return j, nil
}

// productWithin reports whether the product of dims, a zero counting as 1,
// is at most limit. It checks before each multiply, so it cannot overflow.
func productWithin(limit int, dims ...int) bool {
	n := 1
	for _, d := range dims {
		if d > 1 {
			if n > limit/d {
				return false
			}
			n *= d
		}
	}
	return true
}

// kasmKey builds the cache key for a client kernel: like a harness run key,
// but the hash also covers the source text, launch geometry and memory
// footprint, since those — not a suite benchmark name — define the workload.
func kasmKey(name string, m config.Model, cfg *config.Config, ks *KasmSpec) string {
	fh := fnv.New64a()
	fmt.Fprintf(fh, "%+v", *cfg)
	fmt.Fprintf(fh, "|%s|%d %d %d %d %d %d|%d", ks.Source,
		ks.GridX, ks.GridY, ks.GridZ, ks.DimX, ks.DimY, ks.DimZ, ks.GlobalWords)
	return fmt.Sprintf("kasm:%s/%v#%016x", name, m, fh.Sum64())
}

// submit resolves, registers and enqueues a job.
func (s *Server) submit(req JobRequest) (*Job, *APIError) {
	j, apiErr := s.resolve(req)
	if apiErr != nil {
		return nil, apiErr
	}
	if apiErr := s.enqueue(j); apiErr != nil {
		return nil, apiErr
	}
	return j, nil
}

// enqueue registers a resolved job and queues it. It fails only when the
// server is draining (exit class 4) or the queue is full (1).
func (s *Server) enqueue(j *Job) *APIError {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return &APIError{Error: "server is draining", ExitCode: 4}
	}
	s.nextID++
	j.ID = fmt.Sprintf("j%06d", s.nextID)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	select {
	case s.queue <- j:
	default:
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		return &APIError{Error: "job queue is full", ExitCode: 1}
	}
	s.reg.Counter("wirserve_jobs_submitted").Inc()
	s.refreshMetrics()
	return nil
}

// --- execution ---

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// A draining server finishes the job in hand but never dequeues
		// another; the queue remainder is persisted instead.
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

func (s *Server) runJob(j *Job) {
	if f := s.opts.BeforeJob; f != nil {
		f(j.ID)
	}
	j.setState(StateRunning)
	s.running.Add(1)
	s.refreshMetrics()

	err := s.runSim(j)

	// Forget the oldest finished job before this one reads as finished, so a
	// client that sees it finish also sees the cap hold.
	s.mu.Lock()
	s.finished = append(s.finished, j.ID)
	if len(s.finished) > maxFinishedJobs {
		old := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, old)
		s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == old })
	}
	s.mu.Unlock()

	j.mu.Lock()
	if err != nil {
		j.state = StateFailed
		code := 1
		if IsFault(err) {
			code = 3
		}
		j.apiErr = &APIError{Error: err.Error(), ExitCode: code}
	} else {
		j.state = StateDone
	}
	close(j.done)
	j.mu.Unlock()

	s.running.Add(-1)
	if err != nil {
		s.reg.Counter("wirserve_jobs_failed").Inc()
		s.logf("serve: job %s failed: %v", j.ID, err)
	} else {
		s.reg.Counter("wirserve_jobs_done").Inc()
	}
	s.refreshMetrics()
}

// runSim answers a job: store hit, or single-flighted fresh execution whose
// artifact bundle is persisted for every future submission.
func (s *Server) runSim(j *Job) error {
	for {
		if arts, err := s.store.Get(j.token, ArtStats); err == nil {
			return s.finishSim(j, arts, true, 0)
		}
		// Not found, or corrupt (now quarantined): simulate. One flight per
		// token; concurrent twins wait for the leader, then re-read.
		s.mu.Lock()
		if ch, busy := s.inflight[j.token]; busy {
			s.mu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		s.inflight[j.token] = ch
		s.mu.Unlock()

		arts, cycles, err := ExecuteSim(j.spec, j.reg)
		if err == nil {
			s.simCycles.Add(cycles)
			if perr := s.store.Put(j.token, arts); perr != nil {
				s.logf("serve: store put %s: %v", j.token, perr)
			}
		}
		s.mu.Lock()
		delete(s.inflight, j.token)
		s.mu.Unlock()
		close(ch)
		if err != nil {
			return err
		}
		return s.finishSim(j, arts, false, cycles)
	}
}

func (s *Server) finishSim(j *Job, arts map[string][]byte, hit bool, cycles uint64) error {
	if hit {
		// The cycle count for the view comes from the stored report.
		if rep, err := metrics.ReadReport(bytes.NewReader(arts[ArtStats])); err == nil {
			cycles = rep.Cycles
		}
	}
	j.mu.Lock()
	j.hit = hit
	j.cycles = cycles
	j.mu.Unlock()
	return nil
}

// refreshMetrics republishes the derived server gauges. Called after every
// state change and before every /metrics render.
func (s *Server) refreshMetrics() {
	hits, misses, evictions, quarantines := s.store.Counters()
	s.reg.SetCounter("wirserve_store_hits", hits)
	s.reg.SetCounter("wirserve_store_misses", misses)
	s.reg.SetCounter("wirserve_store_evictions", evictions)
	s.reg.SetCounter("wirserve_store_quarantines", quarantines)
	if total := hits + misses; total > 0 {
		s.reg.Gauge("wirserve_hit_ratio").Set(float64(hits) / float64(total))
	} else {
		s.reg.Gauge("wirserve_hit_ratio").Set(0)
	}
	s.reg.Gauge("wirserve_store_entries").Set(float64(s.store.Entries()))
	s.reg.Gauge("wirserve_store_bytes").Set(float64(s.store.Bytes()))
	s.reg.Gauge("wirserve_queue_depth").Set(float64(len(s.queue)))
	s.reg.Gauge("wirserve_jobs_running").Set(float64(s.running.Load()))
	s.reg.SetCounter("wirserve_sim_cycles", s.SimCycles())
}
