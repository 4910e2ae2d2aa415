package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/wirsim/wir/internal/gpu"
)

// escapingKernel is a kasm kernel name holding every class of byte that
// encoding/json escapes: HTML-sensitive <, > and &, a quote, a backslash, a
// control byte, non-ASCII é, U+2028 and an invalid UTF-8 byte. Kernel names
// are client text, and they reach trace.jsonl, perfetto.json and stats.json.
const escapingKernel = "k<&\"\\\x01é\u2028>\xffx"

// digestJobs are a suite benchmark under RLPV at 2 SMs and a kasm kernel
// with an escaping name.
var digestJobs = []JobRequest{
	{Kind: "run", Bench: "DW", Model: "RLPV", SMs: 2},
	{Kind: "kasm", SMs: 2, Kasm: &KasmSpec{Name: escapingKernel, Source: tinyKasm, DimX: 32, GlobalWords: 64}},
}

// TestExecuteSimDigests pins the served bytes across commits: the SHA-256 of
// five artifacts of two jobs, recorded from an earlier build. The
// conformance suite compares two encodings made by the same build, so only
// this test sees an encoder that changes what a job answers. pprof.pb.gz is
// left out, since its gzip framing belongs to the toolchain.
func TestExecuteSimDigests(t *testing.T) {
	s := &Server{opts: Options{SMs: 2}}
	cases := []struct {
		name string
		req  JobRequest
		want map[string]string
	}{
		{"DW", digestJobs[0], map[string]string{
			ArtTrace:     "51579548b882d3bf9d5fcd2a96c5d3f85f1f5da0259634e633078ce18b6dfe62",
			ArtPerfetto:  "884a4de2acdd432badcc8542c064edca326919fc6700e8380f02c44878add32c",
			ArtStats:     "3f65953002c5cd5064a1f8e1b14924982be1b9de6fe262dd710ff1b07f4b7768",
			ArtIntervals: "00f5f1cef7af0011a753ef2ed0ed978db7fde3dae3e6a6f8f665086af243807a",
			ArtReuse:     "40c30f971582c4fdc5e543503f350e9278d0cc555386c9139b918f3a4e4a3837",
		}},
		{"kasm", digestJobs[1], map[string]string{
			ArtTrace:     "7ada3db45c5388eb22a0b48abd8ae7c0d9473d37092916900c0c68c165de9849",
			ArtPerfetto:  "0f586086c853ec23324d8bc73c8af8adaab29158690ba51567ae55b4f4edeebb",
			ArtStats:     "26c2bed95225a6f5f1939e6e05c936be6f8cff9bb11781a32abf1f1ac7cd3773",
			ArtIntervals: "525c0dab6b61c24999170f7e0b82afaff7ed45d825de546382f41cda5ad5afca",
			ArtReuse:     "c0776596b45cd124102d40decd863624975ffeef462bd15fecae0363feb17b4c",
		}},
	}
	for _, c := range cases {
		j, apiErr := s.resolve(c.req)
		if apiErr != nil {
			t.Fatalf("%s: resolve: %s", c.name, apiErr.Error)
		}
		arts, _, err := ExecuteSim(j.spec, nil)
		if err != nil {
			t.Fatalf("%s: ExecuteSim: %v", c.name, err)
		}
		for art, want := range c.want {
			sum := sha256.Sum256(arts[art])
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s %s: sha256 %s, want %s", c.name, art, got, want)
			}
		}
	}
}

// TestEachArtifactAlone: a run that attaches only one artifact's observers
// encodes that artifact with exactly the bytes ExecuteSim puts in the full
// bundle. wirsim relies on it: one output flag attaches one artifact.
func TestEachArtifactAlone(t *testing.T) {
	s := &Server{opts: Options{SMs: 2}}
	for _, req := range digestJobs {
		j, apiErr := s.resolve(req)
		if apiErr != nil {
			t.Fatalf("resolve: %s", apiErr.Error)
		}
		want, _, err := ExecuteSim(j.spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{ArtStats, ArtIntervals, ArtTrace, ArtPerfetto, ArtPprof, ArtReuse} {
			g, err := gpu.New(j.spec.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			// got is the trace writer too, so it holds trace.jsonl when
			// that is the name, and the encoded artifact otherwise.
			var got bytes.Buffer
			o := Attach(g, nil, sampleInterval, &got, name)
			w, err := j.spec.Setup(g)
			if err != nil {
				t.Fatal(err)
			}
			cycles, err := o.Run(g, w)
			if err != nil {
				t.Fatal(err)
			}
			if name != ArtTrace {
				if err := o.Encode(name, &got, g, j.spec, cycles); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got.Bytes(), want[name]) {
				t.Errorf("%q: %s attached alone encodes %d bytes that differ from the bundle's %d",
					j.spec.Benchmark, name, got.Len(), len(want[name]))
			}
		}
	}
}
