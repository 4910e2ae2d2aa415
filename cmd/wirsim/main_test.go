package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runAsWirsim, when set in the environment, makes the test binary run
// wirsim's main instead of the tests, so a test can check the exit code and
// output of a real wirsim process.
const runAsWirsim = "WIRSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsWirsim) != "" {
		main()
		os.Exit(exitOK)
	}
	os.Exit(m.Run())
}

// wirsim runs the test binary as wirsim with args and returns its exit code,
// stdout and stderr.
func wirsim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsWirsim+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("wirsim %v: %v", args, err)
	return 0, "", ""
}

// TestExitCodes is wirsim's contract under the shared exit taxonomy: a
// command line naming something that does not exist exits 2, a watchdog
// firing exits 3, a clean oracle run exits 0, and an output file that cannot
// be written exits 1.
func TestExitCodes(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "Bogus", "DW"},
		{"-stats", "yaml", "DW"},
		{"XX"},
		{"-chaos", "nonsense", "DW"},
	} {
		if code, _, stderr := wirsim(t, args...); code != exitUsage {
			t.Errorf("wirsim %v: exit %d, want %d:\n%s", args, code, exitUsage, stderr)
		}
	}

	if code, _, stderr := wirsim(t, "-sms", "2", "-watchdog", "1", "DW"); code != exitFault || !strings.Contains(stderr, "watchdog fired") {
		t.Errorf("-watchdog 1: exit %d, want %d with the watchdog diagnosis:\n%s", code, exitFault, stderr)
	}

	if code, _, stderr := wirsim(t, "-sms", "2", "-oracle", "DW"); code != exitOK || !strings.Contains(stderr, "oracle: clean (0 divergences)") {
		t.Errorf("-oracle: exit %d, want %d with a clean oracle on stderr:\n%s", code, exitOK, stderr)
	}

	missing := filepath.Join(t.TempDir(), "missing", "p.pb.gz")
	if code, _, stderr := wirsim(t, "-sms", "2", "-pprof", missing, "DW"); code != exitRuntime {
		t.Errorf("-pprof into a missing directory: exit %d, want %d:\n%s", code, exitRuntime, stderr)
	}
}
