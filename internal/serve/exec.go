package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"github.com/wirsim/wir/internal/attr"
	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/energy"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/perfetto"
	"github.com/wirsim/wir/internal/trace"
)

// Fault wraps errors that mean the run itself was judged bad — a watchdog
// firing, an audit failure, an invariant violation: wirsim's exit-3 class.
// The job API maps it to exit_code 3 in the job's error body; other
// execution errors are the runtime class (1).
type Fault struct{ Err error }

func (f *Fault) Error() string { return f.Err.Error() }
func (f *Fault) Unwrap() error { return f.Err }

// IsFault reports whether err is (or wraps) a run-judged-bad fault.
func IsFault(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// RunSpec is one fully-resolved simulation request: a machine config plus a
// workload factory (a suite benchmark's Setup or a parsed kasm kernel's
// launch).
type RunSpec struct {
	Benchmark string // report label: bench abbr or kasm kernel name
	Model     config.Model
	Cfg       config.Config
	Token     string // content address; becomes the report's config_hash
	Setup     func(g *gpu.GPU) (*bench.Workload, error)
}

// sampleInterval is the interval-sampler cadence of every served run, in
// cycles: wirsim's -metrics default. It is not a job option because
// intervals.jsonl depends on it and the store token does not cover it.
const sampleInterval = 1000

// Artifact names every job produces. The set is fixed — never shaped by
// per-request options — so a store entry is a pure function of the spec and
// repeat submissions are hits regardless of what the client asked to
// download.
const (
	ArtStats     = "stats.json"
	ArtIntervals = "intervals.jsonl"
	ArtTrace     = "trace.jsonl"
	ArtPerfetto  = "perfetto.json"
	ArtPprof     = "pprof.pb.gz"
	ArtReuse     = "reuse.json"
)

// ExecuteSim runs one simulation with the full telemetry harness attached and
// returns the artifact bundle, byte-identical to what a local
//
//	wirsim -stats json -metrics intervals.jsonl -trace-json trace.jsonl
//	       -perfetto perfetto.json -pprof pprof.pb.gz -reuseprof-json reuse.json
//
// run of the same config produces (the conformance suite holds it to that).
// reg, when non-nil, receives the live instrument series (wir_cycles, the
// interval gauges) so job progress can be streamed while the run is going.
func ExecuteSim(spec *RunSpec, reg *metrics.Registry) (map[string][]byte, uint64, error) {
	g, err := gpu.New(spec.Cfg)
	if err != nil {
		return nil, 0, err
	}

	if reg == nil {
		reg = metrics.NewRegistry()
	}
	ins := metrics.NewInstruments(reg)
	g.SetInstruments(ins)
	sampler := metrics.NewSampler(sampleInterval)
	sampler.Registry = reg
	g.SetSampler(sampler)

	reuseCollector := g.NewReuseProf()
	g.SetReuseProf(reuseCollector)
	collector := attr.NewCollector()
	g.SetAttribution(collector)

	var traceBuf bytes.Buffer
	jsonSink := trace.NewJSONWriter(&traceBuf)
	perfettoSink := &perfetto.Recorder{}
	g.SetTracer(trace.Multi{jsonSink, perfettoSink})

	w, err := spec.Setup(g)
	if err != nil {
		return nil, 0, fmt.Errorf("%s setup: %w", spec.Benchmark, err)
	}
	cycles, runErr := w.Run(g)
	g.FlushSampler()
	if err := jsonSink.Err(); err != nil {
		return nil, cycles, err
	}

	var we *gpu.WatchdogError
	var ae *gpu.AuditError
	if errors.As(runErr, &we) || errors.As(runErr, &ae) {
		return nil, cycles, &Fault{runErr}
	}
	if runErr != nil {
		return nil, cycles, runErr
	}
	if err := g.CheckInvariants(); err != nil {
		return nil, cycles, &Fault{fmt.Errorf("invariant violated: %w", err)}
	}

	st := g.Stats()
	coeff := energy.Default45nm()
	eb := energy.Model(&coeff, &st, spec.Cfg.NumSMs)

	// Each artifact is encoded into a buffer of its own, and the bundle
	// keeps that buffer's bytes, so no artifact is copied once written.
	arts := map[string][]byte{ArtTrace: traceBuf.Bytes()}
	encode := func(name string, write func(io.Writer) error) error {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			return err
		}
		arts[name] = b.Bytes()
		return nil
	}
	if err := encode(ArtIntervals, sampler.WriteJSONL); err != nil {
		return nil, cycles, err
	}
	if err := encode(ArtPprof, func(w io.Writer) error { return collector.WriteProfile(w, cycles) }); err != nil {
		return nil, cycles, err
	}
	tevs := perfetto.Convert(perfettoSink.Events)
	tevs = append(tevs, reuseCollector.PerfettoCounters()...)
	if err := encode(ArtPerfetto, func(w io.Writer) error { return perfetto.WriteEvents(w, tevs) }); err != nil {
		return nil, cycles, err
	}
	reuseCollector.Publish(reg)
	if err := encode(ArtReuse, reuseCollector.WriteJSON); err != nil {
		return nil, cycles, err
	}

	rep := metrics.NewReport(spec.Benchmark, fmt.Sprint(spec.Model), spec.Cfg.NumSMs, &st)
	rep.ConfigHash = spec.Token
	sr := g.StallReport()
	sr.Publish(reg)
	rep.AttachStalls(&sr)
	rep.AttachInstruments(ins)
	rep.RFBankConflicts = g.RFConflictCounts()
	rep.Energy = map[string]float64{"sm": eb.SM() / 1e6, "total": eb.Total() / 1e6}
	rep.Hotspots = collector.Hotspots(10)
	rep.Derived["reuse_achieved_ratio"] = reuseCollector.AchievedRatio()
	reuseCollector.AnnotateHotspots(rep.Hotspots)
	if err := encode(ArtStats, rep.WriteJSON); err != nil {
		return nil, cycles, err
	}
	return arts, cycles, nil
}
