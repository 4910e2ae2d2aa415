// wirserve conformance suite: a job submitted to the daemon must return
// BYTE-IDENTICAL artifacts to a local wirsim-equivalent run of the same
// machine configuration. The reference pipeline below is written out
// independently, mirroring cmd/wirsim's -stats json path instrument for
// instrument, so any divergence in the service executor — a missing
// collector, a reordered report section, a lost trace event — shows up as a
// byte of difference rather than a plausible-looking but wrong artifact.
//
// The suite also pins the service's economics: the second submission of the
// same configuration — same process or a restarted one over the same store
// directory — must be a store hit that costs exactly zero fresh simulated
// cycles, and the config_hash in wir-stats/1 must equal the store filename,
// so clients, the store, and wirsim all share one canonical key.
package wir_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/wirsim/wir/internal/attr"
	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/energy"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/harness"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/mem"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/perfetto"
	"github.com/wirsim/wir/internal/serve"
	"github.com/wirsim/wir/internal/trace"
)

// The configuration under test, small enough to simulate three times in the
// suite but exercising the full RLPV reuse machinery.
const (
	serveConfBench    = "DW"
	serveConfSMs      = 2
	serveConfInterval = 100
)

// localWirsimArtifacts replicates, independently of internal/serve, what
//
//	wirsim -sms 2 -model RLPV -stats json -interval 100 -metrics ... \
//	       -trace-json ... -perfetto ... -pprof ... -reuseprof-json ...
//
// produces for the benchmark: the six artifacts the job API serves. It
// deliberately repeats cmd/wirsim's pipeline rather than calling
// serve.ExecuteSim — the duplication IS the test.
func localWirsimArtifacts(t *testing.T) (map[string][]byte, string) {
	t.Helper()
	bm, err := bench.ByAbbr(serveConfBench)
	if err != nil {
		t.Fatal(err)
	}
	m := config.RLPV
	cfg := config.Default(m)
	cfg.NumSMs = serveConfSMs
	cfg.WatchdogCycles = mem.AutoWatchdog(&cfg)
	token := harness.KeyHash(harness.RunKey(bm.Abbr, m, nil, &cfg))

	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.SetEventDriven(true)

	reg := metrics.NewRegistry()
	ins := metrics.NewInstruments(reg)
	g.SetInstruments(ins)
	sampler := metrics.NewSampler(serveConfInterval)
	sampler.Registry = reg
	g.SetSampler(sampler)
	rp := g.NewReuseProf()
	g.SetReuseProf(rp)
	col := attr.NewCollector()
	g.SetAttribution(col)

	var traceBuf bytes.Buffer
	js := trace.NewJSONWriter(&traceBuf)
	pf := &perfetto.Recorder{}
	g.SetTracer(trace.Multi{js, pf})

	w, err := bm.Setup(g)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := w.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	g.FlushSampler()
	if err := js.Err(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	st := g.Stats()
	coeff := energy.Default45nm()
	eb := energy.Model(&coeff, &st, cfg.NumSMs)

	arts := map[string][]byte{serve.ArtTrace: traceBuf.Bytes()}
	var b bytes.Buffer
	if err := sampler.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	arts[serve.ArtIntervals] = append([]byte(nil), b.Bytes()...)
	b.Reset()
	if err := col.WriteProfile(&b, cycles); err != nil {
		t.Fatal(err)
	}
	arts[serve.ArtPprof] = append([]byte(nil), b.Bytes()...)
	b.Reset()
	tevs := perfetto.Convert(pf.Events)
	tevs = append(tevs, rp.PerfettoCounters()...)
	if err := perfetto.WriteEvents(&b, tevs); err != nil {
		t.Fatal(err)
	}
	arts[serve.ArtPerfetto] = append([]byte(nil), b.Bytes()...)
	rp.Publish(reg)
	b.Reset()
	if err := rp.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	arts[serve.ArtReuse] = append([]byte(nil), b.Bytes()...)

	rep := metrics.NewReport(bm.Abbr, fmt.Sprint(m), cfg.NumSMs, &st)
	rep.ConfigHash = token
	sr := g.StallReport()
	sr.Publish(reg)
	rep.AttachStalls(&sr)
	rep.AttachInstruments(ins)
	rep.RFBankConflicts = g.RFConflictCounts()
	rep.Energy = map[string]float64{"sm": eb.SM() / 1e6, "total": eb.Total() / 1e6}
	rep.Hotspots = col.Hotspots(10)
	rep.Derived["reuse_achieved_ratio"] = rp.AchievedRatio()
	rp.AnnotateHotspots(rep.Hotspots)
	b.Reset()
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	arts[serve.ArtStats] = append([]byte(nil), b.Bytes()...)
	return arts, token
}

func startServe(t *testing.T, dir string) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(serve.Options{SMs: serveConfSMs, Workers: 2, StoreDir: dir, Interval: serveConfInterval})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, ts
}

func submitAndWait(t *testing.T, ts *httptest.Server, body string) serve.JobView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, data)
	}
	var v serve.JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == serve.StateDone || v.State == serve.StateFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", v.ID, v.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchArtifacts(t *testing.T, ts *httptest.Server, id string) map[string][]byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(data, &names); err != nil {
		t.Fatalf("artifact index: %v (%s)", err, data)
	}
	arts := map[string][]byte{}
	for _, n := range names {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifacts/" + n)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("artifact %s: status %d", n, resp.StatusCode)
		}
		arts[n] = payload
	}
	return arts
}

const serveConfJob = `{"kind":"run","bench":"DW","model":"RLPV","sms":2,"interval":100}`

// TestServeConformance is the end-to-end byte-identity and cache-economics
// check described at the top of the file.
func TestServeConformance(t *testing.T) {
	want, token := localWirsimArtifacts(t)
	dir := t.TempDir()
	s, ts := startServe(t, dir)

	// --- first submission: fresh simulation, byte-identical artifacts ---
	v := submitAndWait(t, ts, serveConfJob)
	if v.State != serve.StateDone || v.Hit {
		t.Fatalf("first job: state=%s hit=%v err=%+v", v.State, v.Hit, v.Err)
	}
	if v.Hash != token {
		t.Fatalf("job hash %s != locally computed harness key hash %s", v.Hash, token)
	}
	got := fetchArtifacts(t, ts, v.ID)
	if len(got) != len(want) {
		t.Fatalf("artifact sets differ: got %d want %d", len(got), len(want))
	}
	for name, payload := range want {
		if !bytes.Equal(got[name], payload) {
			t.Errorf("artifact %s differs from the local wirsim pipeline (%d vs %d bytes)",
				name, len(got[name]), len(payload))
		}
	}

	// --- the canonical key: wir-stats/1 config_hash == store filename ---
	var rep struct {
		ConfigHash string `json:"config_hash"`
	}
	if err := json.Unmarshal(got[serve.ArtStats], &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ConfigHash != token {
		t.Fatalf("stats config_hash %q != harness key hash %q", rep.ConfigHash, token)
	}
	if _, err := os.Stat(filepath.Join(dir, rep.ConfigHash)); err != nil {
		t.Fatalf("store has no entry named by config_hash: %v", err)
	}

	// --- second submission in the same process: a hit, zero fresh cycles ---
	spent := s.SimCycles()
	v2 := submitAndWait(t, ts, serveConfJob)
	if v2.State != serve.StateDone || !v2.Hit {
		t.Fatalf("repeat job: state=%s hit=%v", v2.State, v2.Hit)
	}
	if v2.Cycles != v.Cycles {
		t.Fatalf("repeat cycles %d != first run %d", v2.Cycles, v.Cycles)
	}
	if got := s.SimCycles(); got != spent {
		t.Fatalf("repeat submission simulated %d fresh cycles, want 0", got-spent)
	}
	if got2 := fetchArtifacts(t, ts, v2.ID); !bytes.Equal(got2[serve.ArtStats], want[serve.ArtStats]) {
		t.Fatal("hit-path stats differ from the local pipeline")
	}

	// --- the hit shows on /metrics ---
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metricsText), "wirserve_store_hits 1") {
		t.Fatalf("/metrics does not report the store hit:\n%s", grepLines(metricsText, "wirserve"))
	}

	// --- the events stream for a finished job terminates with done=true ---
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := bytes.Split(bytes.TrimSpace(events), []byte{'\n'})
	var last struct {
		Done   bool   `json:"done"`
		Cycles uint64 `json:"cycles"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("events stream: %v (%s)", err, events)
	}
	if !last.Done || last.Cycles != v.Cycles {
		t.Fatalf("final event %+v, want done=true cycles=%d", last, v.Cycles)
	}
}

// TestServeConformanceRestart proves the store outlives the process: a brand
// new server over the same directory answers the same configuration without
// simulating, byte-identically.
func TestServeConformanceRestart(t *testing.T) {
	want, token := localWirsimArtifacts(t)
	dir := t.TempDir()
	_, ts1 := startServe(t, dir)
	v1 := submitAndWait(t, ts1, serveConfJob)
	if v1.State != serve.StateDone {
		t.Fatalf("seed job: %+v", v1)
	}

	s2, ts2 := startServe(t, dir)
	v2 := submitAndWait(t, ts2, serveConfJob)
	if v2.State != serve.StateDone || !v2.Hit {
		t.Fatalf("post-restart job: state=%s hit=%v", v2.State, v2.Hit)
	}
	if got := s2.SimCycles(); got != 0 {
		t.Fatalf("restarted server simulated %d fresh cycles, want 0", got)
	}
	got := fetchArtifacts(t, ts2, v2.ID)
	for name, payload := range want {
		if !bytes.Equal(got[name], payload) {
			t.Errorf("artifact %s differs after restart (%d vs %d bytes)", name, len(got[name]), len(payload))
		}
	}
	if v2.Hash != token {
		t.Fatalf("hash drifted across restart: %s != %s", v2.Hash, token)
	}
}

// TestServeConformanceKasm holds the kasm job path to the same standard: the
// API's artifacts for a client kernel must match a direct ExecuteSim of the
// equivalent spec, and the repeat submission must hit.
func TestServeConformanceKasm(t *testing.T) {
	src := `
        s2r   r0, %tid.x
        shl   r1, r0, #2
        ld.global r2, [r1]
        iadd  r2, r2, #7
        st.global [r1+256], r2
        exit
`
	jobBody, _ := json.Marshal(map[string]any{
		"kind": "kasm", "model": "RLPV", "sms": 1, "interval": 100,
		"kasm": map[string]any{"name": "probe", "source": src, "dim_x": 64, "global_words": 256},
	})

	dir := t.TempDir()
	s, ts := startServe(t, dir)
	v := submitAndWait(t, ts, string(jobBody))
	if v.State != serve.StateDone || v.Hit {
		t.Fatalf("kasm job: state=%s hit=%v err=%+v", v.State, v.Hit, v.Err)
	}
	got := fetchArtifacts(t, ts, v.ID)

	// Reference: the same kernel through ExecuteSim with an identically
	// resolved spec (wirsim's config pipeline, the job's token).
	k, err := kasm.Parse("probe", src)
	if err != nil {
		t.Fatal(err)
	}
	m := config.RLPV
	cfg := config.Default(m)
	cfg.NumSMs = 1
	cfg.WatchdogCycles = mem.AutoWatchdog(&cfg)
	spec := &serve.RunSpec{
		Benchmark: "probe", Model: m, Cfg: cfg, Token: v.Hash, Interval: 100,
		Setup: func(g *gpu.GPU) (*bench.Workload, error) {
			g.Mem().Alloc(256)
			return &bench.Workload{Launches: []gpu.Launch{{Kernel: k, GridX: 1, DimX: 64}}}, nil
		},
	}
	want, _, err := serve.ExecuteSim(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range want {
		if !bytes.Equal(got[name], payload) {
			t.Errorf("kasm artifact %s differs (%d vs %d bytes)", name, len(got[name]), len(payload))
		}
	}

	spent := s.SimCycles()
	v2 := submitAndWait(t, ts, string(jobBody))
	if !v2.Hit || s.SimCycles() != spent {
		t.Fatalf("kasm repeat: hit=%v fresh=%d, want hit with 0", v2.Hit, s.SimCycles()-spent)
	}
}

func grepLines(text []byte, needle string) string {
	var out []string
	for _, l := range strings.Split(string(text), "\n") {
		if strings.Contains(l, needle) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
