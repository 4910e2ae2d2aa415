package pprofenc

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func sampleProfile() *Profile {
	return &Profile{
		SampleType: []ValueType{
			{Type: "cycles", Unit: "cycles"},
			{Type: "energy", Unit: "picojoules"},
		},
		Samples: []Sample{
			{
				LocationIDs: []uint64{1, 2},
				Values:      []int64{120, 4500},
				Labels: []Label{
					{Key: "sm", Num: 3, NumUnit: "id"},
					{Key: "kernel", Str: "km_scale"},
				},
			},
			{LocationIDs: []uint64{2}, Values: []int64{7, 0}},
		},
		Mappings: []Mapping{{
			ID: 1, MemoryStart: 0x1000, MemoryLimit: 0x2000,
			Filename: "[wirsim]", BuildID: "wir-attr",
		}},
		Locations: []Location{
			{ID: 1, MappingID: 1, Address: 0x1001, Lines: []Line{{FunctionID: 1, Line: 4}}},
			{ID: 2, MappingID: 1, Address: 0x1002, Lines: []Line{{FunctionID: 2, Line: 1}}},
		},
		Functions: []Function{
			{ID: 1, Name: "km_scale:3 mul r4, r2, r3", SystemName: "km_scale:3", Filename: "km_scale.kasm", StartLine: 4},
			{ID: 2, Name: "km_scale", Filename: "km_scale.kasm", StartLine: 1},
		},
		Comments:          []string{"wirsim attribution profile"},
		DurationNanos:     123456,
		PeriodType:        ValueType{Type: "cycles", Unit: "cycles"},
		Period:            1,
		DefaultSampleType: "cycles",
	}
}

// sampleRaw is what `go tool pprof -raw` lists of sampleProfile: every
// field it sets. pprof prints the duration to four characters (123.456µs
// as "123.").
var sampleRaw = []string{
	"Comment: wirsim attribution profile",
	"PeriodType: cycles cycles",
	"Period: 1",
	"Duration: 123.",
	"Samples:",
	"cycles/cycles[dflt] energy/picojoules",
	"120 4500: 1 2",
	"kernel:[km_scale]",
	"sm:[3 id]",
	"7 0: 2",
	"Locations",
	"1: 0x1001 M=1 km_scale:3 mul r4, r2, r3 km_scale.kasm:4 s=4(km_scale:3)",
	"2: 0x1002 M=1 km_scale km_scale.kasm:1 s=1()",
	"Mappings",
	"1: 0x1000/0x2000/0x0 [wirsim] wir-attr",
}

// column matches the column newer pprof versions print after a location's
// line number; it is always 0 here, and older versions leave it out.
var column = regexp.MustCompile(`:(\d+):\d+ s=`)

// pprofRaw writes data to a file and returns what `go tool pprof -raw`
// lists of it, one whitespace-normalised line per entry, without columns.
// The go command is the toolchain that built this test; a missing one fails
// the test.
func pprofRaw(t *testing.T, data []byte) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.pb.gz")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	cmd := exec.Command(goBin, "tool", "pprof", "-raw", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go tool pprof -raw: %v\n%s", err, stderr.String())
	}
	var lines []string
	for _, l := range strings.Split(string(out), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			lines = append(lines, column.ReplaceAllString(strings.Join(f, " "), ":$1 s="))
		}
	}
	return lines
}

func checkListing(t *testing.T, got []string) {
	t.Helper()
	if !slices.Equal(got, sampleRaw) {
		t.Fatalf("pprof -raw listing:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(sampleRaw, "\n"))
	}
}

// TestRoundTripRaw: pprof reads every field of the uncompressed encoding.
func TestRoundTripRaw(t *testing.T) {
	checkListing(t, pprofRaw(t, sampleProfile().Marshal()))
}

// TestRoundTripGzip: the gzip'd form is gzip and reads the same.
func TestRoundTripGzip(t *testing.T) {
	var bb bytes.Buffer
	if err := sampleProfile().WriteGzip(&bb); err != nil {
		t.Fatalf("WriteGzip: %v", err)
	}
	if b := bb.Bytes(); len(b) < 2 || b[0] != 0x1F || b[1] != 0x8B {
		t.Fatalf("output is not gzip (starts %x)", bb.Bytes()[:2])
	}
	checkListing(t, pprofRaw(t, bb.Bytes()))
}
