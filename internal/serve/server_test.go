package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/harness"
)

// tinyKasm is a four-instruction kernel: cheap enough that server tests
// simulate in milliseconds.
const tinyKasm = `
        movi r0, #1
        iadd r0, r0, #2
        st.global [r1], r0
        exit
`

func tinyKasmJob(name string) string {
	return fmt.Sprintf(`{"kind":"kasm","sms":1,"kasm":{"name":%q,"source":%q,"dim_x":32,"global_words":64}}`, name, tinyKasm)
}

func newTestServer(t *testing.T, mutate func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := Options{SMs: 1, Workers: 2, StoreDir: t.TempDir()}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("decode %s: %v\nbody: %s", url, err, data)
		}
	}
	return resp
}

func waitJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v JobView
		getJSON(t, ts.URL+"/v1/jobs/"+id, &v)
		if v.State == StateDone || v.State == StateFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rejection is one malformed submission and what its error must mention.
type rejection struct {
	name, body, want string
	status           int // 0 means 400
}

// submitRejections returns every malformed-request class the API must
// refuse as a usage error.
func submitRejections(tb testing.TB) []rejection {
	cfgJSON := func(mutate func(*config.Config)) string {
		c := config.Default(config.RLPV)
		mutate(&c)
		b, err := json.Marshal(c)
		if err != nil {
			tb.Fatal(err)
		}
		return string(b)
	}
	return []rejection{
		{"truncated-json", `{"kind":"run"`, "bad request body", 0},
		{"unknown-top-field", `{"kindd":"run"}`, "unknown field", 0},
		{"unknown-kind", `{"kind":"zap"}`, "unknown job kind", 0},
		{"unknown-bench", `{"kind":"run","bench":"ZZ"}`, "unknown benchmark", 0},
		{"unknown-model", `{"kind":"run","bench":"KM","model":"WAT"}`, "model", 0},
		{"missing-kasm", `{"kind":"kasm"}`, "kasm section", 0},
		{"bad-kasm", `{"kind":"kasm","kasm":{"source":"frob r0\nexit"}}`, "line 1", 0},
		{"kasm-no-exit", `{"kind":"kasm","kasm":{"source":"movi r0, #1"}}`, "must end with Exit", 0},
		// No job kind takes a sweep field; figures come from wirbench -exp.
		{"unknown-sweep", `{"kind":"sweep","sweep":"fig99"}`, "unknown field", 0},
		{"config-typo", `{"kind":"run","bench":"KM","config":{"NumSMss":4}}`, "unknown field", 0},
		{"config-invalid", `{"kind":"run","bench":"KM","config":{"NumSMs":1}}`, "config", 0},
		{"oversize-body", `{"kind":"run","bench":"` + strings.Repeat("A", maxSubmitBytes) + `"}`,
			"too large", http.StatusRequestEntityTooLarge},
		{"trailing-data", tinyKasmJob("trailing") + ` {"kind":"run"}`, "trailing data", 0},
		{"interval-field", `{"kind":"kasm","sms":1,"interval":100,"kasm":{"source":"exit","dim_x":32}}`, "unknown field", 0},
		// The limit rows sit just past maxJobSMs and maxJobWords. The grid
		// overflows int when multiplied out.
		{"huge-grid", `{"kind":"kasm","sms":1,"kasm":{"name":"big","source":"exit","dim_x":32,` +
			`"grid_x":2147483647,"grid_y":2147483647,"grid_z":4}}`, "blocks", 0},
		{"negative-dim", `{"kind":"kasm","sms":1,"kasm":{"source":"exit","dim_x":-32}}`, "negative", 0},
		{"huge-global-words", `{"kind":"kasm","sms":1,"kasm":{"source":"exit","dim_x":32,"global_words":16777217}}`, "global_words", 0},
		{"too-many-sms", `{"kind":"kasm","sms":65,"kasm":{"source":"exit","dim_x":32}}`, "65 SMs", 0},
		{"config-too-many-sms", `{"kind":"kasm","config":` + cfgJSON(func(c *config.Config) { c.NumSMs = 65 }) +
			`,"kasm":{"source":"exit","dim_x":32}}`, "65 SMs", 0},
		// Zero ways once divided by zero: in Validate itself for L1DWays,
		// and in gpu.New on a job worker for L2Ways.
		{"config-zero-l1d-ways", `{"kind":"run","bench":"DW","config":` +
			cfgJSON(func(c *config.Config) { c.L1DWays = 0 }) + `}`, "L1DWays", 0},
		{"config-zero-l2-ways", `{"kind":"run","bench":"DW","config":` +
			cfgJSON(func(c *config.Config) { c.L2Ways = 0 }) + `}`, "L2Ways", 0},
		// Sizes past the config bounds. The first once panicked in
		// makeslice on a job worker, ending the daemon; the second divided
		// by zero in Validate itself, since ways*line wrapped to 0.
		{"config-huge-reuse-entries", `{"kind":"run","bench":"DW","config":` +
			cfgJSON(func(c *config.Config) { c.ReuseEntries = 1 << 62 }) + `}`, "ReuseEntries", 0},
		{"config-line-bytes-overflow", `{"kind":"run","bench":"DW","config":` +
			cfgJSON(func(c *config.Config) { c.LineBytes = 1 << 62 }) + `}`, "LineBytes", 0},
		// Cache tag lines past config.MaxCacheLines, every field within its
		// own cap. gpu.New once allocated 223 MB for the first on a job
		// worker; the second needs about 7 GB.
		{"config-huge-l1d-tags", `{"kind":"run","bench":"DW","config":` +
			cfgJSON(func(c *config.Config) { c.NumSMs, c.LineBytes, c.L1DBytes, c.L1DWays = 1, 1, 4<<20, 1 }) +
			`}`, "tag lines", 0},
		{"config-huge-l2-tags", `{"kind":"run","bench":"DW","config":` +
			cfgJSON(func(c *config.Config) { c.L2Partitions, c.L2BytesPerPart, c.L2Ways = 1024, 16<<20, 1 }) +
			`}`, "tag lines", 0},
	}
}

// TestSubmitRejections drives every malformed-request class through the API
// and requires a structured 400 (413 for an oversize body) whose exit_code
// matches the repo taxonomy (2 = usage error), never a panic, a 500, or a
// silently-defaulted run.
func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, c := range submitRejections(t) {
		t.Run(c.name, func(t *testing.T) {
			want := c.status
			if want == 0 {
				want = http.StatusBadRequest
			}
			resp, data := postJob(t, ts, c.body)
			if resp.StatusCode != want {
				t.Fatalf("status %d, want %d; body %.200s", resp.StatusCode, want, data)
			}
			var e APIError
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("error body is not structured JSON: %s", data)
			}
			if e.ExitCode != 2 {
				t.Errorf("exit_code %d, want 2 (usage)", e.ExitCode)
			}
			if !strings.Contains(e.Error, c.want) {
				t.Errorf("error %q does not mention %q", e.Error, c.want)
			}
		})
	}
}

// FuzzJobRequest feeds arbitrary bodies through the submit handler's strict
// decode and resolve. It never enqueues or simulates what they accept: a
// fuzzer that built GPUs from the configs it accepts could exhaust the
// machine. Nothing may panic, every rejection must be a usage error with a
// 400 or 413, and every accepted job must carry a well-formed token and a
// valid config within the job SM limit and the cache tag-line cap.
func FuzzJobRequest(f *testing.F) {
	for _, c := range submitRejections(f) {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(`{"kind":"run","bench":"DW","model":"RLPV","sms":2}`))
	f.Add([]byte(tinyKasmJob("seed")))
	f.Add([]byte(`{"kind":"sweep","sweep":"table2"}`))
	s := &Server{opts: Options{SMs: 15}} // resolve reads only the default width
	f.Fuzz(func(t *testing.T, body []byte) {
		r := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxSubmitBytes)
		j, status, apiErr := s.decodeJob(r)
		if apiErr != nil {
			if apiErr.ExitCode != 2 || (status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge) {
				t.Fatalf("rejection is not a usage error: status %d, %+v", status, apiErr)
			}
			return
		}
		if !ValidToken(j.token) {
			t.Fatalf("accepted %s job has token %q", j.kind, j.token)
		}
		if err := j.spec.Cfg.Validate(); err != nil {
			t.Fatalf("accepted %s job has an invalid config: %v", j.kind, err)
		}
		if n := j.spec.Cfg.NumSMs; n > maxJobSMs {
			t.Fatalf("accepted %s job has %d SMs, above the limit of %d", j.kind, n, maxJobSMs)
		}
		if n := j.spec.Cfg.CacheLines(); n > config.MaxCacheLines {
			t.Fatalf("accepted %s job has %d cache tag lines, above the cap of %d", j.kind, n, config.MaxCacheLines)
		}
	})
}

func TestNewRejectsTooManySMs(t *testing.T) {
	if _, err := New(Options{SMs: 65, StoreDir: t.TempDir()}); err == nil {
		t.Fatal("New accepted a default of 65 SMs")
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, path := range []string{
		"/v1/jobs/j999999",
		"/v1/jobs/j999999/events",
		"/v1/jobs/j999999/artifacts",
		"/v1/jobs/j999999/artifacts/stats.json",
		"/v1/jobs/j999999/metrics",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
		var e APIError
		if err := json.Unmarshal(data, &e); err != nil || e.ExitCode != 2 {
			t.Errorf("%s: body %s, want structured exit_code 2", path, data)
		}
	}
}

// TestKasmJobLifecycle runs a client kernel end to end and then proves the
// repeat submission is a store hit that costs zero fresh simulation.
func TestKasmJobLifecycle(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, data := postJob(t, ts, tinyKasmJob("tiny"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if !ValidToken(v.Hash) {
		t.Fatalf("job hash %q is not a store token", v.Hash)
	}
	done := waitJob(t, ts, v.ID)
	if done.State != StateDone || done.Hit {
		t.Fatalf("first run: state=%s hit=%v, want done/false (err=%+v)", done.State, done.Hit, done.Err)
	}
	if done.Cycles == 0 {
		t.Fatal("first run reports zero cycles")
	}
	spent := s.SimCycles()
	if spent == 0 {
		t.Fatal("SimCycles is zero after a fresh run")
	}

	// Artifacts are served and the set is the fixed six.
	var names []string
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/artifacts", &names)
	if len(names) != 6 {
		t.Fatalf("artifact index %v, want 6 entries", names)
	}

	// Second submission: answered from the store, zero new simulation.
	_, data2 := postJob(t, ts, tinyKasmJob("tiny"))
	var v2 JobView
	if err := json.Unmarshal(data2, &v2); err != nil {
		t.Fatal(err)
	}
	done2 := waitJob(t, ts, v2.ID)
	if done2.State != StateDone || !done2.Hit {
		t.Fatalf("repeat: state=%s hit=%v, want done/true", done2.State, done2.Hit)
	}
	if done2.Cycles != done.Cycles {
		t.Fatalf("repeat cycles %d != original %d", done2.Cycles, done.Cycles)
	}
	if got := s.SimCycles(); got != spent {
		t.Fatalf("repeat simulated %d fresh cycles, want 0", got-spent)
	}
}

// TestRunJobFault submits a kernel that trips the watchdog and expects a
// failed job with the run-judged-bad exit class, and nothing in the store.
func TestRunJobFault(t *testing.T) {
	s, ts := newTestServer(t, nil)
	// An infinite loop: jmp back to itself; the auto watchdog fires.
	body := `{"kind":"kasm","sms":1,"kasm":{"name":"hang","source":"top: jmp top\nexit","dim_x":32}}`
	_, data := postJob(t, ts, body)
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("submit: %v (%s)", err, data)
	}
	done := waitJob(t, ts, v.ID)
	if done.State != StateFailed {
		t.Fatalf("state %s, want failed", done.State)
	}
	if done.Err == nil || done.Err.ExitCode != 3 {
		t.Fatalf("error %+v, want exit_code 3 (run judged bad)", done.Err)
	}
	if s.Store().Entries() != 0 {
		t.Fatal("failed run was persisted to the store")
	}
}

// TestPanickingJobFails makes a job's workload setup panic on its worker.
// The job must fail with exit_code 1 and the panic in its error, the stack
// must reach the log, and the daemon must live on: the token's single-flight
// entry is released, so the same request then simulates to done, and
// /v1/status still answers.
func TestPanickingJobFails(t *testing.T) {
	var (
		srv   atomic.Pointer[Server]
		armed atomic.Bool
		mu    sync.Mutex
		logs  strings.Builder
	)
	armed.Store(true)
	s, ts := newTestServer(t, func(o *Options) {
		o.Logf = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&logs, format+"\n", args...)
		}
		o.BeforeJob = func(id string) {
			if !armed.CompareAndSwap(true, false) {
				return
			}
			s := srv.Load()
			s.mu.Lock()
			j := s.jobs[id]
			s.mu.Unlock()
			j.spec.Setup = func(*gpu.GPU) (*bench.Workload, error) { panic("setup exploded") }
		}
	})
	srv.Store(s)

	run := func() JobView {
		_, data := postJob(t, ts, tinyKasmJob("boom"))
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("submit: %v (%s)", err, data)
		}
		return waitJob(t, ts, v.ID)
	}
	failed := run()
	if failed.State != StateFailed || failed.Err == nil || failed.Err.ExitCode != 1 ||
		!strings.Contains(failed.Err.Error, "setup exploded") {
		t.Fatalf("panicking job: state=%s err=%+v; want failed, exit_code 1, naming the panic", failed.State, failed.Err)
	}
	mu.Lock()
	logged := logs.String()
	mu.Unlock()
	if !strings.Contains(logged, "setup exploded") || !strings.Contains(logged, "goroutine ") {
		t.Errorf("log lacks the panic and its stack:\n%s", logged)
	}
	s.mu.Lock()
	flights := len(s.inflight)
	s.mu.Unlock()
	if flights != 0 {
		t.Fatalf("%d single-flight entries left after the panic", flights)
	}

	if done := run(); done.State != StateDone || done.Hit || done.Cycles == 0 {
		t.Fatalf("same request after the panic: state=%s hit=%v cycles=%d err=%+v; want a fresh done run",
			done.State, done.Hit, done.Cycles, done.Err)
	}
	var st Status
	if resp := getJSON(t, ts.URL+"/v1/status", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status answered %d", resp.StatusCode)
	}
	if st.Jobs[StateFailed] != 1 || st.Jobs[StateDone] != 1 {
		t.Errorf("status jobs %v, want one failed and one done", st.Jobs)
	}
}

// TestDrainPersistsQueue holds one job mid-flight, drains with another still
// queued, and expects: the running job finishes, the queued one is persisted,
// drain-time submissions get 503, and a restarted server over the same store
// recovers and completes the persisted job.
func TestDrainPersistsQueue(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	started := make(chan string, 8)
	s, err := New(Options{SMs: 1, Workers: 1, StoreDir: dir,
		BeforeJob: func(id string) { started <- id; <-release }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, dataA := postJob(t, ts, tinyKasmJob("held"))
	var a JobView
	if err := json.Unmarshal(dataA, &a); err != nil {
		t.Fatal(err)
	}
	<-started // A is on the worker, blocked in BeforeJob

	_, dataB := postJob(t, ts, tinyKasmJob("queued"))
	var b JobView
	if err := json.Unmarshal(dataB, &b); err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	time.Sleep(20 * time.Millisecond) // let Drain set the flag and close stop

	// Submissions during the drain are refused with the interrupted class.
	resp, dataC := postJob(t, ts, tinyKasmJob("late"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain-time submit: status %d body %s, want 503", resp.StatusCode, dataC)
	}
	var e APIError
	if err := json.Unmarshal(dataC, &e); err != nil || e.ExitCode != 4 {
		t.Fatalf("drain-time submit body %s, want exit_code 4", dataC)
	}

	close(release)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not return")
	}

	av := waitJob(t, ts, a.ID)
	if av.State != StateDone {
		t.Fatalf("held job: state %s err %+v, want done (drain must finish running jobs)", av.State, av.Err)
	}
	bv := waitJob(t, ts, b.ID)
	if bv.State != StateFailed || bv.Err == nil || bv.Err.ExitCode != 4 {
		t.Fatalf("queued job after drain: %+v, want failed with exit_code 4 (persisted)", bv)
	}

	// A successor over the same store recovers the persisted job and runs it.
	s2, err := New(Options{SMs: 1, Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var views []JobView
	getJSON(t, ts2.URL+"/v1/jobs", &views)
	if len(views) != 1 {
		t.Fatalf("recovered %d jobs, want 1: %+v", len(views), views)
	}
	rv := waitJob(t, ts2, views[0].ID)
	if rv.State != StateDone {
		t.Fatalf("recovered job: %+v, want done", rv)
	}
	// The result is served (and, since "queued" shares no token with "held",
	// it was freshly simulated then persisted).
	var names []string
	getJSON(t, ts2.URL+"/v1/jobs/"+views[0].ID+"/artifacts", &names)
	if len(names) != 6 {
		t.Fatalf("recovered job artifacts: %v", names)
	}
}

// TestRecoverQueueCountsAccepted: a persisted queue holding a job this
// server refuses (the sweep kind older servers ran) and a kasm job recovers
// one job, and the log line counts that one, not the file's two.
func TestRecoverQueueCountsAccepted(t *testing.T) {
	dir := t.TempDir()
	queue := fmt.Sprintf(`{"schema":%q,"jobs":[{"kind":"sweep","sweep":{"exp":"headline"}},%s]}`, QueueSchema, tinyKasmJob("queued"))
	if err := os.WriteFile(filepath.Join(dir, queueFile), []byte(queue), 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	s, err := New(Options{SMs: 1, Workers: 1, StoreDir: dir, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var views []JobView
	getJSON(t, ts.URL+"/v1/jobs", &views)
	if len(views) != 1 {
		t.Fatalf("GET /v1/jobs lists %d jobs, want 1: %+v", len(views), views)
	}
	if v := waitJob(t, ts, views[0].ID); v.State != StateDone {
		t.Fatalf("recovered job: %+v, want done", v)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Contains(logs, "serve: recovered 1 persisted jobs") {
		t.Fatalf("log lines %q, want one recovering 1 job", logs)
	}
}

// TestFinishedJobsBounded: once more than maxFinishedJobs jobs have
// finished, the oldest is forgotten, so its id answers 404 with exit_code 2
// while the newest stays listed. The first job simulates; the rest are store
// hits.
func TestFinishedJobsBounded(t *testing.T) {
	s, ts := newTestServer(t, nil)
	req := JobRequest{Kind: "kasm", SMs: 1, Kasm: &KasmSpec{Name: "tiny", Source: tinyKasm, DimX: 32, GlobalWords: 64}}
	var first, last string
	for i := 0; i <= maxFinishedJobs; i++ {
		j, apiErr := s.submit(req)
		if apiErr != nil {
			t.Fatalf("submit %d: %s", i, apiErr.Error)
		}
		<-j.done
		if i == 0 {
			first = j.ID
		}
		last = j.ID
	}
	var e APIError
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+first, &e); resp.StatusCode != http.StatusNotFound || e.ExitCode != 2 {
		t.Fatalf("oldest job %s: status %d, body %+v; want 404 with exit_code 2", first, resp.StatusCode, e)
	}
	var views []JobView
	getJSON(t, ts.URL+"/v1/jobs", &views)
	if len(views) != maxFinishedJobs || views[len(views)-1].ID != last || views[len(views)-1].State != StateDone {
		t.Fatalf("job list has %d jobs ending %+v; want %d ending with %s done", len(views), views[len(views)-1], maxFinishedJobs, last)
	}
}

// TestRunJobAndSweepUnitKeepSeparateEntries: older servers, which also ran
// sweep jobs, could store a sweep unit's harness result as the only artifact
// of an entry under a run job's token. Such an entry is a miss rather than a
// hit without stats.json: the job re-simulates and serves its stats.
func TestRunJobAndSweepUnitKeepSeparateEntries(t *testing.T) {
	t.Run("old-sweep-entry", func(t *testing.T) {
		cfg := config.Default(config.RLPV)
		cfg.NumSMs = 1
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runToken := harness.KeyHash(harness.RunKey("DW", config.RLPV, nil, &cfg))
		s, ts := newTestServer(t, nil)
		if err := s.Store().Put(runToken, map[string][]byte{"result.json": []byte("{}")}); err != nil {
			t.Fatal(err)
		}
		_, data := postJob(t, ts, `{"kind":"run","bench":"DW","config":`+string(b)+`}`)
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("submit: %v (%s)", err, data)
		}
		if v.Hash != runToken {
			t.Fatalf("run job token %s, want %s", v.Hash, runToken)
		}
		done := waitJob(t, ts, v.ID)
		if done.State != StateDone || done.Hit || done.Cycles == 0 {
			t.Fatalf("run job: state=%s hit=%v cycles=%d; want done, a miss, cycles > 0",
				done.State, done.Hit, done.Cycles)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/artifacts/" + ArtStats)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats.json download: status %d: %s", resp.StatusCode, body)
		}
	})
}

// TestStatus submits one kernel twice and reads GET /v1/status: two done
// jobs, one store miss that simulated and one hit, and the server's own
// cycle count.
func TestStatus(t *testing.T) {
	s, ts := newTestServer(t, nil)
	for i := 0; i < 2; i++ {
		_, data := postJob(t, ts, tinyKasmJob("tiny"))
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("submit: %v (%s)", err, data)
		}
		if done := waitJob(t, ts, v.ID); done.State != StateDone {
			t.Fatalf("job %d: %+v", i, done)
		}
	}
	var raw map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/status", &raw)
	if _, ok := raw["sweeps"]; ok {
		t.Errorf("status still lists sweeps: %s", raw["sweeps"])
	}
	var st Status
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.Schema != Schema {
		t.Errorf("schema %q, want %q", st.Schema, Schema)
	}
	if len(st.Jobs) != 1 || st.Jobs[StateDone] != 2 {
		t.Errorf("jobs %v, want {done:2}", st.Jobs)
	}
	if st.Store.Hits != 1 || st.Store.Misses != 1 || st.Store.Entries != 1 {
		t.Errorf("store hits=%d misses=%d entries=%d, want 1 each", st.Store.Hits, st.Store.Misses, st.Store.Entries)
	}
	if st.SimCycles == 0 || st.SimCycles != s.SimCycles() {
		t.Errorf("sim_cycles %d, want SimCycles() %d and above 0", st.SimCycles, s.SimCycles())
	}
	if got := st.Snapshot.Counters["wirserve_store_hits"]; got != 1 {
		t.Errorf("metrics wirserve_store_hits %d, want 1", got)
	}
}

// corruptSection flips one payload byte of the named section of a store
// entry on disk.
func corruptSection(t *testing.T, s *Server, token, name string) {
	t.Helper()
	path := s.Store().Path(token)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	start, end := sectionSpan(t, data, name)
	data[(start+end)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptEntryResimulates: a resubmitted job whose stored trace.jsonl
// was corrupted is not a hit, even though it keeps only stats.json: it
// re-simulates and rewrites the entry.
func TestCorruptEntryResimulates(t *testing.T) {
	s, ts := newTestServer(t, nil)
	_, data := postJob(t, ts, tinyKasmJob("tiny"))
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if done := waitJob(t, ts, v.ID); done.State != StateDone {
		t.Fatalf("first run: %+v", done)
	}
	spent := s.SimCycles()
	corruptSection(t, s, v.Hash, ArtTrace)

	_, data = postJob(t, ts, tinyKasmJob("tiny"))
	var v2 JobView
	if err := json.Unmarshal(data, &v2); err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, ts, v2.ID)
	if done.State != StateDone || done.Hit {
		t.Fatalf("resubmission over a corrupt entry: state=%s hit=%v, want done/false", done.State, done.Hit)
	}
	if s.SimCycles() <= spent {
		t.Fatal("resubmission over a corrupt entry did not re-simulate")
	}
	if _, _, _, q := s.Store().Counters(); q != 1 {
		t.Fatalf("quarantines=%d, want 1", q)
	}
	entry, err := os.ReadFile(s.Store().Path(v.Hash))
	if err != nil {
		t.Fatalf("entry not rewritten: %v", err)
	}
	if _, err := DecodeEntry(v.Hash, entry); err != nil {
		t.Fatalf("rewritten entry: %v", err)
	}
}

// TestDownloadCorruptEntry: downloading stats.json from an entry with a
// corrupt section — the served one or another — is a 404 with the runtime
// exit class, and the entry is quarantined.
func TestDownloadCorruptEntry(t *testing.T) {
	for _, section := range []string{ArtStats, ArtTrace} {
		t.Run(section, func(t *testing.T) {
			s, ts := newTestServer(t, nil)
			_, data := postJob(t, ts, tinyKasmJob("tiny"))
			var v JobView
			if err := json.Unmarshal(data, &v); err != nil {
				t.Fatal(err)
			}
			if done := waitJob(t, ts, v.ID); done.State != StateDone {
				t.Fatalf("run: %+v", done)
			}
			corruptSection(t, s, v.Hash, section)
			var e APIError
			resp := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/artifacts/"+ArtStats, &e)
			if resp.StatusCode != http.StatusNotFound || e.ExitCode != 1 {
				t.Fatalf("download: status %d body %+v, want 404 with exit_code 1", resp.StatusCode, e)
			}
			if _, _, _, q := s.Store().Counters(); q != 1 {
				t.Fatalf("quarantines=%d, want 1", q)
			}
		})
	}
}
