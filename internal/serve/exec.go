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
	"github.com/wirsim/wir/internal/reuseprof"
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

// Observers is the observer set Attach attached for one observed run. A nil
// member was not attached.
type Observers struct {
	Ins     *metrics.Instruments
	Sampler *metrics.Sampler
	Reuse   *reuseprof.Collector
	Attr    *attr.Collector
	Tracer  trace.Multi // the trace.jsonl writer, then the Perfetto recorder

	reg      *metrics.Registry
	json     *trace.JSONWriter
	perfetto *perfetto.Recorder
}

// Attach attaches to g the observers the named artifacts read, and no
// others:
//
//	stats.json       instruments, reuse profiler, attribution
//	intervals.jsonl  instruments, a sampler closing an interval every `every` cycles
//	trace.jsonl      a wir-trace/1 writer streaming to traceW during the run
//	perfetto.json    a pipeline-event recorder, reuse profiler (counter tracks)
//	pprof.pb.gz      attribution
//	reuse.json       reuse profiler
//
// A non-nil reg is a live registry: the instruments publish into it
// whatever is named.
func Attach(g *gpu.GPU, reg *metrics.Registry, every uint64, traceW io.Writer, names ...string) *Observers {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	o := &Observers{reg: reg}
	if reg != nil || want[ArtStats] || want[ArtIntervals] {
		if o.reg == nil {
			o.reg = metrics.NewRegistry()
		}
		o.Ins = metrics.NewInstruments(o.reg)
		g.SetInstruments(o.Ins)
	}
	if want[ArtIntervals] {
		o.Sampler = metrics.NewSampler(every)
		o.Sampler.Registry = o.reg
		g.SetSampler(o.Sampler)
	}
	if want[ArtStats] || want[ArtPerfetto] || want[ArtReuse] {
		o.Reuse = g.NewReuseProf()
		g.SetReuseProf(o.Reuse)
	}
	if want[ArtStats] || want[ArtPprof] {
		o.Attr = attr.NewCollector()
		g.SetAttribution(o.Attr)
	}
	if want[ArtTrace] {
		o.json = trace.NewJSONWriter(traceW)
		o.Tracer = append(o.Tracer, o.json)
	}
	if want[ArtPerfetto] {
		o.perfetto = &perfetto.Recorder{}
		o.Tracer = append(o.Tracer, o.perfetto)
	}
	if o.Tracer != nil {
		g.SetTracer(o.Tracer)
	}
	return o
}

// Run runs w on g, closes the sampler's last interval and judges the run:
// the trace writer's error first, then a watchdog, a launch audit or a
// broken invariant as a *Fault. The cycles are returned whatever the verdict.
func (o *Observers) Run(g *gpu.GPU, w *bench.Workload) (uint64, error) {
	cycles, err := w.Run(g)
	g.FlushSampler()
	if o.json != nil && o.json.Err() != nil {
		return cycles, o.json.Err()
	}
	var we *gpu.WatchdogError
	var ae *gpu.AuditError
	if errors.As(err, &we) || errors.As(err, &ae) {
		return cycles, &Fault{err}
	}
	if err != nil {
		return cycles, err
	}
	if err := g.CheckInvariants(); err != nil {
		return cycles, &Fault{fmt.Errorf("invariant violated: %w", err)}
	}
	return cycles, nil
}

// Encode writes artifact name of the finished run to w; Attach must have
// been given the name. trace.jsonl has no encoder: it went to Attach's
// traceW during the run. stats.json carries the top 10 hotspots.
func (o *Observers) Encode(name string, w io.Writer, g *gpu.GPU, spec *RunSpec, cycles uint64) error {
	switch name {
	case ArtIntervals:
		return o.Sampler.WriteJSONL(w)
	case ArtPprof:
		return o.Attr.WriteProfile(w, cycles)
	case ArtPerfetto:
		tevs := perfetto.Convert(o.perfetto.Events)
		return perfetto.WriteEvents(w, append(tevs, o.Reuse.PerfettoCounters()...))
	case ArtReuse:
		o.Reuse.Publish(o.reg)
		return o.Reuse.WriteJSON(w)
	case ArtStats:
		st := g.Stats()
		coeff := energy.Default45nm()
		eb := energy.Model(&coeff, &st, spec.Cfg.NumSMs)
		rep := metrics.NewReport(spec.Benchmark, fmt.Sprint(spec.Model), spec.Cfg.NumSMs, &st)
		rep.ConfigHash = spec.Token
		sr := g.StallReport()
		sr.Publish(o.reg)
		rep.AttachStalls(&sr)
		rep.AttachInstruments(o.Ins)
		rep.RFBankConflicts = g.RFConflictCounts()
		rep.Energy = map[string]float64{"sm": eb.SM() / 1e6, "total": eb.Total() / 1e6}
		rep.Hotspots = o.Attr.Hotspots(10)
		rep.Derived["reuse_achieved_ratio"] = o.Reuse.AchievedRatio()
		o.Reuse.AnnotateHotspots(rep.Hotspots)
		return rep.WriteJSON(w)
	}
	return fmt.Errorf("serve: no encoder for artifact %q", name)
}

// ExecuteSim runs one simulation with every artifact's observers attached
// and returns the artifact bundle, byte-identical to what a local
//
//	wirsim -stats json -metrics intervals.jsonl -trace-json trace.jsonl
//	       -perfetto perfetto.json -pprof pprof.pb.gz -reuseprof-json reuse.json
//
// run of the same config produces: wirsim makes the same Attach, Run and
// Encode calls. reg, when non-nil, receives the live instrument series
// (wir_cycles, the interval gauges) so job progress can be streamed while
// the run is going.
func ExecuteSim(spec *RunSpec, reg *metrics.Registry) (map[string][]byte, uint64, error) {
	g, err := gpu.New(spec.Cfg)
	if err != nil {
		return nil, 0, err
	}
	var traceBuf bytes.Buffer
	o := Attach(g, reg, sampleInterval, &traceBuf, ArtStats, ArtIntervals, ArtTrace, ArtPerfetto, ArtPprof, ArtReuse)
	w, err := spec.Setup(g)
	if err != nil {
		return nil, 0, fmt.Errorf("%s setup: %w", spec.Benchmark, err)
	}
	cycles, err := o.Run(g, w)
	if err != nil {
		return nil, cycles, err
	}
	// Each artifact is encoded into a buffer of its own, and the bundle
	// keeps that buffer's bytes, so no artifact is copied once written.
	arts := map[string][]byte{ArtTrace: traceBuf.Bytes()}
	for _, name := range []string{ArtIntervals, ArtPprof, ArtPerfetto, ArtReuse, ArtStats} {
		var b bytes.Buffer
		if err := o.Encode(name, &b, g, spec, cycles); err != nil {
			return nil, cycles, err
		}
		arts[name] = b.Bytes()
	}
	return arts, cycles, nil
}
