package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/trace"
)

// runAsWirdiff, when set in the environment, makes the test binary run
// wirdiff's main instead of the tests, so a test can check the exit code and
// output of a real wirdiff process.
const runAsWirdiff = "WIRDIFF_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsWirdiff) != "" {
		main()
		os.Exit(exitOK)
	}
	os.Exit(m.Run())
}

// wirdiff runs the test binary as wirdiff with args and returns its exit
// code and stdout.
func wirdiff(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsWirdiff+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stdout.String() + stderr.String()
	}
	t.Fatalf("wirdiff %v: %v", args, err)
	return 0, ""
}

const recordedAbbr = "KM"
const recordedSMs = 2

// recordRetireStream runs the benchmark live under RLPV and writes its
// retire-only wir-trace/1 stream, standing in for a stream recorded by
// another build.
func recordRetireStream(t *testing.T) []byte {
	t.Helper()
	bm, err := bench.ByAbbr(recordedAbbr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(config.RLPV)
	cfg.NumSMs = recordedSMs
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jw := trace.NewJSONWriter(&buf).FilterKinds(trace.KindRetire)
	g.SetTracer(jw)
	w, err := bm.Setup(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(g); err != nil {
		t.Fatal(err)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExitCodes is wirdiff's contract under the shared exit taxonomy: agreeing
// retire streams exit 0, a divergence exits 3 with its first divergence, and
// a flag wirdiff does not have exits 2.
func TestExitCodes(t *testing.T) {
	if code, out := wirdiff(t, "-sms", "2", "DW"); code != exitOK || !strings.Contains(out, "retire streams identical") {
		t.Errorf("live Base vs RLPV: exit %d, want %d with identical streams:\n%s", code, exitOK, out)
	}

	stream := recordRetireStream(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.jsonl")
	if err := os.WriteFile(good, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := wirdiff(t, "-sms", "2", "-ja", good, "-b", "RLPV", recordedAbbr); code != exitOK || !strings.Contains(out, "retire streams identical") {
		t.Errorf("recorded vs live RLPV: exit %d, want %d with identical streams:\n%s", code, exitOK, out)
	}

	// Flip the leading hex digit of the first recorded result hash.
	loc := regexp.MustCompile(`"result":"[0-9a-f]`).FindIndex(stream)
	if loc == nil {
		t.Fatal("no result field in the recording")
	}
	tampered := bytes.Clone(stream)
	if d := &tampered[loc[1]-1]; *d == '0' {
		*d = '1'
	} else {
		*d = '0'
	}
	bad := filepath.Join(dir, "tampered.jsonl")
	if err := os.WriteFile(bad, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := wirdiff(t, "-sms", "2", "-ja", bad, "-b", "RLPV", recordedAbbr); code != exitFault || !strings.Contains(out, "retire-stream divergence") {
		t.Errorf("tampered recording: exit %d, want %d with a divergence:\n%s", code, exitFault, out)
	}

	if code, out := wirdiff(t, "-oracle", "-ja", good, recordedAbbr); code != exitUsage {
		t.Errorf("-oracle: exit %d, want %d:\n%s", code, exitUsage, out)
	}
}
