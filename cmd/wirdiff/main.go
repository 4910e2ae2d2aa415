// Command wirdiff runs a benchmark under two machine models and compares the
// per-warp retired-result streams. The WIR design must never change
// architectural results, so any divergence pinpoints a reuse bug down to the
// first affected (launch, block, warp, PC).
//
// Either side can instead be loaded from a JSONL trace recorded with
// `wirsim -trace-json FILE` (-ja / -jb), so a current build can be diffed
// against a stream recorded by an older build or on another machine. Output
// buffers are only compared when both sides run live.
//
// Caveat: kernels with benign data races (e.g. BFS, where concurrent threads
// store the same value and unordered loads may observe either state) can
// legitimately report divergent *load* results between models while output
// buffers stay identical — the output comparison is the authoritative check
// for such workloads.
//
// Usage:
//
//	wirdiff [-sms N] [-a Base] [-b RLPV] [-ja trace.jsonl] [-jb trace.jsonl] <benchmark-abbr>
//
// Exit status: 0 when the streams (and outputs, if compared) agree, 1 on
// runtime errors, 2 on usage errors, 3 on any divergence — the shared
// taxonomy of wirsim and wirfuzz (docs/ROBUSTNESS.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/trace"
)

const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
	exitFault   = 3
)

func main() {
	sms := flag.Int("sms", 4, "number of simulated SMs")
	modelA := flag.String("a", "Base", "first machine model")
	modelB := flag.String("b", "RLPV", "second machine model")
	jsonA := flag.String("ja", "", "load the first retire stream from a recorded JSONL trace instead of running")
	jsonB := flag.String("jb", "", "load the second retire stream from a recorded JSONL trace instead of running")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wirdiff [-sms N] [-a M1] [-b M2] [-ja FILE] [-jb FILE] <benchmark-abbr>")
		os.Exit(exitUsage)
	}
	abbr := flag.Arg(0)
	bm, err := bench.ByAbbr(abbr)
	fatal(err)

	run := func(name string) (*trace.RetireRecorder, []uint32) {
		m, err := config.ParseModel(name)
		fatal(err)
		cfg := config.Default(m)
		cfg.NumSMs = *sms
		g, err := gpu.New(cfg)
		fatal(err)
		rec := trace.NewRetireRecorder()
		g.SetTracer(rec)
		w, err := bm.Setup(g)
		fatal(err)
		_, err = w.Run(g)
		fatal(err)
		fatal(g.CheckInvariants())
		return rec, g.Mem().Snapshot(w.OutBase, w.OutWords)
	}
	load := func(path string) *trace.RetireRecorder {
		f, err := os.Open(path)
		fatal(err)
		defer f.Close()
		rec, err := trace.ReadRetireRecorder(f)
		fatal(err)
		return rec
	}

	var recA, recB *trace.RetireRecorder
	var outA, outB []uint32
	labelA, labelB := *modelA, *modelB
	if *jsonA != "" {
		recA, labelA = load(*jsonA), *jsonA
	} else {
		recA, outA = run(*modelA)
	}
	if *jsonB != "" {
		recB, labelB = load(*jsonB), *jsonB
	} else {
		recB, outB = run(*modelB)
	}

	exit := exitOK
	if d := trace.Divergence(recA, recB); d != "" {
		fmt.Printf("retire-stream divergence (%s vs %s): %s\n", labelA, labelB, d)
		exit = exitFault // the run is judged bad, not a tool failure
	} else {
		fmt.Printf("retire streams identical across %d warps\n", len(recA.Streams))
	}
	if outA == nil || outB == nil {
		fmt.Println("output buffers not compared (recorded stream on at least one side)")
		os.Exit(exit)
	}
	diffs := 0
	for i := range outA {
		if outA[i] != outB[i] {
			if diffs == 0 {
				fmt.Printf("output mismatch at word %d: %#x vs %#x\n", i, outA[i], outB[i])
			}
			diffs++
		}
	}
	if diffs > 0 {
		fmt.Printf("%d/%d output words differ\n", diffs, len(outA))
		exit = exitFault
	} else {
		fmt.Printf("output buffers identical (%d words)\n", len(outA))
	}
	os.Exit(exit)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirdiff:", err)
		os.Exit(exitRuntime)
	}
}
