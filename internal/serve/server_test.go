package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/wirsim/wir/internal/config"
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

// TestSubmitRejections drives every malformed-request class through the API
// and requires a structured 400 (413 for an oversize body) whose exit_code
// matches the repo taxonomy (2 = usage error), never a panic, a 500, or a
// silently-defaulted run.
func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cfgJSON := func(mutate func(*config.Config)) string {
		c := config.Default(config.RLPV)
		mutate(&c)
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cases := []struct {
		name, body, want string
		status           int // 0 means 400
	}{
		{"truncated-json", `{"kind":"run"`, "bad request body", 0},
		{"unknown-top-field", `{"kindd":"run"}`, "unknown field", 0},
		{"unknown-kind", `{"kind":"zap"}`, "unknown job kind", 0},
		{"unknown-bench", `{"kind":"run","bench":"ZZ"}`, "unknown benchmark", 0},
		{"unknown-model", `{"kind":"run","bench":"KM","model":"WAT"}`, "model", 0},
		{"missing-kasm", `{"kind":"kasm"}`, "kasm section", 0},
		{"bad-kasm", `{"kind":"kasm","kasm":{"source":"frob r0\nexit"}}`, "line 1", 0},
		{"kasm-no-exit", `{"kind":"kasm","kasm":{"source":"movi r0, #1"}}`, "must end with Exit", 0},
		{"unknown-sweep", `{"kind":"sweep","sweep":"fig99"}`, "unknown experiment", 0},
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
	}
	for _, c := range cases {
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

// TestSweepJobStatic drives the sweep-job plumbing with a static experiment
// (table2 simulates nothing), so the API path is covered without a
// full-suite simulation.
func TestSweepJobStatic(t *testing.T) {
	s, ts := newTestServer(t, nil)
	_, data := postJob(t, ts, `{"kind":"sweep","sweep":"table2"}`)
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("submit: %v (%s)", err, data)
	}
	done := waitJob(t, ts, v.ID)
	if done.State != StateDone {
		t.Fatalf("sweep: %+v", done)
	}
	if got := []string{"sweep.txt"}; len(done.Artifacts) != 1 || done.Artifacts[0] != got[0] {
		t.Fatalf("sweep artifacts %v, want %v", done.Artifacts, got)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/artifacts/sweep.txt")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(bytes.TrimSpace(text)) == 0 {
		t.Fatal("empty sweep artifact")
	}
	if got := s.SimCycles(); got != 0 {
		t.Fatalf("static sweep simulated %d cycles", got)
	}
}

// TestFinishedJobsBounded: once more than maxFinishedJobs jobs have
// finished, the oldest is forgotten, so its id answers 404 with exit_code 2
// while the newest stays listed.
func TestFinishedJobsBounded(t *testing.T) {
	s, ts := newTestServer(t, nil)
	var first, last string
	for i := 0; i <= maxFinishedJobs; i++ {
		j, apiErr := s.submit(JobRequest{Kind: "sweep", Sweep: "table2"})
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

// TestSweepExecStore exercises the sweep executor chain directly: a fresh
// harness demand misses the store and simulates; a second server — cold memo
// cache, same store directory — satisfies the identical demand from disk with
// zero fresh cycles and an identical result.
func TestSweepExecStore(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{SMs: 1, Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Drain()
	r1, err := s1.h.Run("DW", config.RLPV, nil)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if s1.SimCycles() == 0 {
		t.Fatal("first run simulated nothing")
	}
	if s1.Store().Entries() != 1 {
		t.Fatalf("store has %d entries, want 1", s1.Store().Entries())
	}

	s2, err := New(Options{SMs: 1, Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	r2, err := s2.h.Run("DW", config.RLPV, nil)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if got := s2.SimCycles(); got != 0 {
		t.Fatalf("second server simulated %d fresh cycles, want 0 (store miss)", got)
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("store round-trip changed the result:\n%s\n---\n%s", j1, j2)
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
