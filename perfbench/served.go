package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"github.com/wirsim/wir/internal/attr"
	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/energy"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/perfetto"
	"github.com/wirsim/wir/internal/serve"
	"github.com/wirsim/wir/internal/stats"
	"github.com/wirsim/wir/internal/trace"
)

// servedInterval is the sampler cadence every served job gets: the server's
// default, since the workloads' requests never name one.
const servedInterval = 1000

// plainResult is one spec simulated with nothing attached.
type plainResult struct {
	kernel      *kasm.Kernel
	stats       stats.Sim
	cycles      uint64
	parse, newT time.Duration
	setup, runT time.Duration
}

// plainRun simulates spec with nothing attached: kasm.Parse for a kasm job,
// gpu.New, the suite benchmark's Setup or the kernel's launch, then
// Workload.Run.
func plainRun(spec *servedSpec, tr *tracer, id, parent int64) (*plainResult, error) {
	var pr plainResult
	var err error
	if spec.Req.Kind == "kasm" {
		pr.parse = tr.call("kasm.Parse", id, parent, func() { pr.kernel, err = kasm.Parse(spec.Req.Kasm.Name, spec.Req.Kasm.Source) })
		if err != nil {
			return nil, err
		}
	}
	setupFn, err := spec.setupFunc(pr.kernel)
	if err != nil {
		return nil, err
	}
	var g *gpu.GPU
	pr.newT = tr.call("gpu.New", id, parent, func() { g, err = gpu.New(spec.config()) })
	if err != nil {
		return nil, err
	}
	g.SetParallel(false)
	g.SetEventDriven(true)
	var wl *bench.Workload
	pr.setup = tr.call("bench.Setup", id, parent, func() { wl, err = setupFn(g) })
	if err != nil {
		return nil, err
	}
	pr.runT = tr.call("Workload.Run", id, parent, func() { pr.cycles, err = wl.Run(g) })
	if err != nil {
		return nil, err
	}
	pr.stats = g.Stats()
	return &pr, nil
}

// observedResult is one spec simulated with the served observer set and
// encoded, call by call, as serve.ExecuteSim composes it.
type observedResult struct {
	arts                             map[string][]byte
	newT, setup, runT, checkT        time.Duration
	encMetrics, encAttr, encPerfetto time.Duration
	encReuse                         time.Duration
}

func (r *observedResult) simTime() time.Duration {
	return r.newT + r.setup + r.runT + r.checkT + r.encMetrics + r.encAttr + r.encPerfetto + r.encReuse
}

// observedRun repeats serve.ExecuteSim's pipeline with a span around each
// public call. Its bundle must equal the server's byte for byte.
func observedRun(spec *servedSpec, k *kasm.Kernel, token string, tr *tracer, id, parent int64) (*observedResult, error) {
	var r observedResult
	cfg := spec.config()
	setupFn, err := spec.setupFunc(k)
	if err != nil {
		return nil, err
	}
	var g *gpu.GPU
	r.newT = tr.call("gpu.New", id, parent, func() { g, err = gpu.New(cfg) })
	if err != nil {
		return nil, err
	}
	g.SetParallel(false)
	g.SetEventDriven(true)
	reg := metrics.NewRegistry()
	ins := metrics.NewInstruments(reg)
	g.SetInstruments(ins)
	sampler := metrics.NewSampler(servedInterval)
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

	var wl *bench.Workload
	r.setup = tr.call("bench.Setup", id, parent, func() { wl, err = setupFn(g) })
	if err != nil {
		return nil, err
	}
	var cycles uint64
	r.runT = tr.call("Workload.Run(observed)", id, parent, func() {
		cycles, err = wl.Run(g)
		g.FlushSampler()
	})
	if err != nil {
		return nil, err
	}
	if err := js.Err(); err != nil {
		return nil, err
	}
	r.checkT = tr.call("gpu.CheckInvariants", id, parent, func() { err = g.CheckInvariants() })
	if err != nil {
		return nil, err
	}

	arts := map[string][]byte{serve.ArtTrace: traceBuf.Bytes()}
	var b bytes.Buffer
	r.encMetrics = tr.call("metrics.WriteJSONL", id, parent, func() { err = sampler.WriteJSONL(&b) })
	if err != nil {
		return nil, err
	}
	arts[serve.ArtIntervals] = append([]byte(nil), b.Bytes()...)
	b.Reset()
	r.encAttr = tr.call("attr.WriteProfile", id, parent, func() { err = col.WriteProfile(&b, cycles) })
	if err != nil {
		return nil, err
	}
	arts[serve.ArtPprof] = append([]byte(nil), b.Bytes()...)
	b.Reset()
	r.encPerfetto = tr.call("perfetto.WriteEvents", id, parent, func() {
		tevs := perfetto.Convert(pf.Events)
		tevs = append(tevs, rp.PerfettoCounters()...)
		err = perfetto.WriteEvents(&b, tevs)
	})
	if err != nil {
		return nil, err
	}
	arts[serve.ArtPerfetto] = append([]byte(nil), b.Bytes()...)
	b.Reset()
	r.encReuse = tr.call("reuseprof.WriteJSON", id, parent, func() {
		rp.Publish(reg)
		err = rp.WriteJSON(&b)
	})
	if err != nil {
		return nil, err
	}
	arts[serve.ArtReuse] = append([]byte(nil), b.Bytes()...)
	b.Reset()
	r.encMetrics += tr.call("metrics.Report.WriteJSON", id, parent, func() {
		st := g.Stats()
		coeff := energy.Default45nm()
		eb := energy.Model(&coeff, &st, cfg.NumSMs)
		rep := metrics.NewReport(spec.reportName(), spec.Req.Model, cfg.NumSMs, &st)
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
		err = rep.WriteJSON(&b)
	})
	if err != nil {
		return nil, err
	}
	arts[serve.ArtStats] = append([]byte(nil), b.Bytes()...)
	r.arts = arts
	return &r, nil
}

// reportName is the benchmark label the server puts in stats.json.
func (s *servedSpec) reportName() string {
	if s.Req.Kind == "kasm" {
		return s.Req.Kasm.Name
	}
	return s.Req.Bench
}

// servedDecomp is one served spec run again call by call.
type servedDecomp struct {
	plain             *plainResult
	obs               *observedResult
	getMiss, put, get time.Duration
	entryBytes        int64
}

// decomposeServed runs spec serially as the server's fresh-job path
// composes it: kasm.Parse, a plain run, the observed run and its encoders,
// then Store.Get (a miss), Store.Put and Store.Get on a scratch store. The
// bundle must equal the server's stored entry for token byte for byte.
func decomposeServed(spec *servedSpec, token string, server *serve.Store, scratch string, tr *tracer) (*servedDecomp, error) {
	id := nextOpID()
	root := tr.begin("decompose.served", id, 0)
	defer tr.end(root)
	var d servedDecomp
	var err error
	if d.plain, err = plainRun(spec, tr, id, root); err != nil {
		return nil, fmt.Errorf("%s plain: %w", spec.label(), err)
	}
	if d.obs, err = observedRun(spec, d.plain.kernel, token, tr, id, root); err != nil {
		return nil, fmt.Errorf("%s observed: %w", spec.label(), err)
	}
	want, err := server.Peek(token)
	if err != nil {
		return nil, fmt.Errorf("server store entry %s: %w", token, err)
	}
	if err := sameBundle(d.obs.arts, want); err != nil {
		return nil, fmt.Errorf("%s: decomposition differs from serve.ExecuteSim: %w", spec.label(), err)
	}
	st, err := serve.OpenStore(scratch, 0)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	d.getMiss = tr.call("Store.Get(miss)", id, root, func() { _, err = st.Get(token) })
	if !errors.Is(err, serve.ErrNotFound) {
		return nil, fmt.Errorf("%s: scratch store Get before Put: %v", spec.label(), err)
	}
	d.put = tr.call("Store.Put", id, root, func() { err = st.Put(token, d.obs.arts) })
	if err != nil {
		return nil, err
	}
	var got map[string][]byte
	d.get = tr.call("Store.Get", id, root, func() { got, err = st.Get(token) })
	if err != nil {
		return nil, err
	}
	if err := sameBundle(got, d.obs.arts); err != nil {
		return nil, fmt.Errorf("%s: store round trip: %w", spec.label(), err)
	}
	d.entryBytes = st.Bytes()
	return &d, nil
}

func sameBundle(got, want map[string][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d artifacts, want %d", len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			return fmt.Errorf("artifact %s differs (%d bytes, want %d)", name, len(got[name]), len(w))
		}
	}
	return nil
}

// checkStats verifies a served stats.json against a plain run of its spec:
// config_hash equals the job hash, and cycles and every counter agree.
func checkStats(o *op, spec *servedSpec, ref *plainResult) {
	rep, err := metrics.ReadReport(bytes.NewReader(o.rep.stats))
	switch {
	case err != nil:
		o.fail("%s: stats.json: %v", spec.label(), err)
	case rep.ConfigHash != o.rep.view.Hash:
		o.fail("%s: config_hash %s, job hash %s", spec.label(), rep.ConfigHash, o.rep.view.Hash)
	case rep.Cycles != ref.cycles || !reflect.DeepEqual(rep.Counters, ref.stats.Map()):
		o.fail("%s: stats.json cycles %d differ from a plain run's %d or its counters do", spec.label(), rep.Cycles, ref.cycles)
	}
}

// spanP50 returns the median duration in ms of the named spans.
func spanP50(spans []span, name string) float64 {
	var xs []float64
	for i := range spans {
		if spans[i].Name == name {
			xs = append(xs, ms(spans[i].dur()))
		}
	}
	sort.Float64s(xs)
	return nearestRank(xs, 50)
}

func p50(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 50)
}

// coldWorkload sends distinct jobs, so every op simulates with the full
// observer set, encodes its bundle and writes it to the store.
type coldWorkload struct {
	gen    *generator
	specs  []*servedSpec // every job drawn, in order
	dir    string
	srv    *server
	ref    map[int]*plainResult // plain reference runs by spec index
	status *serve.Status        // store counters before the traced phase
}

func (w *coldWorkload) setUp(o *options, dir, _ string) error {
	w.gen = newGenerator(o.seed)
	w.dir = dir
	w.ref = map[int]*plainResult{}
	var err error
	if w.srv, err = startServer(filepath.Join(dir, "store")); err != nil {
		return err
	}
	// One warm-up job through every layer, so lazy initialization and the
	// clients' connections land in set-up rather than in the first timed
	// ops. Its kernel name keeps it distinct from every timed job.
	warm := servedSpec{Class: "kasm", Req: serve.JobRequest{Kind: "kasm", Model: servedModels[0].String(), SMs: maxSMs,
		Kasm: kasmKernel(rand.New(rand.NewSource(o.seed)), "warmup")}}
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	rep, err := w.srv.do(ctx, &warm.Req, nil, 0, 0)
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	if rep.final.Hit {
		return errors.New("warm-up job was answered from a fresh store")
	}
	return nil
}

func (w *coldWorkload) run(d time.Duration, tr *tracer) (*phaseResult, error) {
	if tr != nil {
		st, err := w.srv.status()
		if err != nil {
			return nil, err
		}
		w.status = st
	}
	seq := &coldSeq{g: w.gen}
	return w.srv.closedLoop(d, tr, func() (int, *servedSpec, bool) {
		spec := seq.next()
		w.specs = append(w.specs, &spec)
		return len(w.specs) - 1, &spec, true
	}), nil
}

func (w *coldWorkload) check(p *phaseResult) error {
	for i := range p.ops {
		o := &p.ops[i]
		if o.err != nil {
			continue
		}
		spec := w.specs[o.spec]
		if o.rep.final.Hit {
			o.fail("%s: a distinct job was answered from the store", spec.label())
			continue
		}
		ref := w.ref[o.spec]
		if ref == nil {
			var err error
			if ref, err = plainRun(spec, nil, 0, 0); err != nil {
				return fmt.Errorf("reference run %s: %w", spec.label(), err)
			}
			w.ref[o.spec] = ref
		}
		checkStats(o, spec, ref)
		o.winst = ref.stats.Issued
	}
	return nil
}

func (w *coldWorkload) layers(p *phaseResult, tr *tracer, l layerValues) error {
	after, err := w.srv.status()
	if err != nil {
		return err
	}
	hits := after.Store.Hits - w.status.Store.Hits
	misses := after.Store.Misses - w.status.Store.Misses
	l["store.hit_ratio"] = ratio(float64(hits), float64(hits+misses))

	dec := map[int]*servedDecomp{}
	var order []int
	for i := range p.ops {
		o := &p.ops[i]
		if o.err != nil || dec[o.spec] != nil {
			continue
		}
		d, err := decomposeServed(w.specs[o.spec], o.rep.view.Hash, w.srv.srv.Store(), filepath.Join(w.dir, "scratch"), tr)
		if err != nil {
			return err
		}
		dec[o.spec] = d
		w.ref[o.spec] = d.plain
		order = append(order, o.spec)
	}
	if len(order) == 0 {
		return errors.New("no successful op to decompose")
	}
	var sum struct {
		runPlain, runObs, setup, parse             time.Duration
		perfetto, attr, reuse, metrics             time.Duration
		issued, cycles                             uint64
		traceB, perfettoB, attrB, reuseB, metricsB int
		entryB                                     int64
		kasm                                       int
	}
	for _, s := range order {
		d := dec[s]
		a := d.obs.arts
		sum.runPlain += d.plain.runT
		sum.runObs += d.obs.runT
		sum.setup += d.obs.setup
		sum.issued += d.plain.stats.Issued
		sum.cycles += d.plain.cycles
		sum.perfetto += d.obs.encPerfetto
		sum.attr += d.obs.encAttr
		sum.reuse += d.obs.encReuse
		sum.metrics += d.obs.encMetrics
		sum.traceB += len(a[serve.ArtTrace])
		sum.perfettoB += len(a[serve.ArtPerfetto])
		sum.attrB += len(a[serve.ArtPprof])
		sum.reuseB += len(a[serve.ArtReuse])
		sum.metricsB += len(a[serve.ArtStats]) + len(a[serve.ArtIntervals])
		sum.entryB += d.entryBytes
		if w.specs[s].Req.Kind == "kasm" {
			sum.parse += d.plain.parse
			sum.kasm++
		}
	}
	var opTime, opSetup time.Duration
	var self, puts, gets []float64
	for i := range p.ops {
		o := &p.ops[i]
		d := dec[o.spec]
		if o.err != nil || d == nil {
			continue
		}
		opTime += o.dur
		opSetup += d.obs.setup
		store := d.getMiss + d.put + d.get // the download's Peek reads what Get reads
		self = append(self, ms(o.dur-store-d.plain.parse-d.obs.simTime()))
		puts = append(puts, ms(d.put))
		gets = append(gets, ms(d.get))
	}
	n := float64(len(order))
	l["bench.setup_ms"] = ms(sum.setup) / n
	l["bench.setup_share"] = ratio(opSetup.Seconds(), opTime.Seconds())
	l["gpu.run_s"] = sum.runPlain.Seconds()
	l["gpu.winst_per_s"] = ratio(float64(sum.issued), sum.runPlain.Seconds())
	l["gpu.warp_instrs"] = float64(sum.issued)
	l["gpu.sim_cycles"] = float64(sum.cycles)
	l["gpu.observed_run_s"] = sum.runObs.Seconds()
	l["gpu.observer_tax"] = ratio(sum.runObs.Seconds(), sum.runPlain.Seconds())
	l["perfetto.encode_ms"] = ms(sum.perfetto) / n
	l["attr.encode_ms"] = ms(sum.attr) / n
	l["reuseprof.encode_ms"] = ms(sum.reuse) / n
	l["metrics.encode_ms"] = ms(sum.metrics) / n
	l["trace.bytes"] = float64(sum.traceB) / n
	l["perfetto.bytes"] = float64(sum.perfettoB) / n
	l["attr.bytes"] = float64(sum.attrB) / n
	l["reuseprof.bytes"] = float64(sum.reuseB) / n
	l["metrics.bytes"] = float64(sum.metricsB) / n
	if sum.kasm > 0 {
		l["kasm.parse_us"] = float64(sum.parse.Microseconds()) / float64(sum.kasm)
	}
	l["store.put_ms.p50"] = p50(puts)
	l["store.get_ms.p50"] = p50(gets)
	l["store.entry_bytes"] = float64(sum.entryB) / n
	l["serve.self_ms.p50"] = p50(self)
	servedSpans(tr, l)
	return nil
}

// servedSpans fills the HTTP-boundary metrics from the traced phase's spans.
func servedSpans(tr *tracer, l layerValues) {
	spans := tr.closed()
	l["serve.submit_ms.p50"] = spanP50(spans, "http.submit")
	l["serve.events_wait_ms.p50"] = spanP50(spans, "http.events")
	l["serve.download_ms.p50"] = spanP50(spans, "http.download")
}

func (w *coldWorkload) storeBytes() int64 { return w.srv.srv.Store().Bytes() }
func (w *coldWorkload) close()            { w.srv.close() }

// hitWorkload resubmits jobs whose results are already in the store, so
// every op is a store read and nothing is simulated.
type hitWorkload struct {
	set      []servedSpec
	picks    *rand.Rand
	round    []int // the rest of the current permutation of the set
	srv      *server
	captured [][]byte // each entry's stats.json, captured at set-up
	tokens   []string
	status   *serve.Status
}

// setUp populates a fresh store by submitting the seeded set once. When
// populated names the directory of a set-up that already did, the server
// opens that store instead and captures each entry's stats.json by
// submitting it once more, checking it is a hit with the right answer.
func (w *hitWorkload) setUp(o *options, dir, populated string) error {
	w.set = hitEntries(o.seed)
	w.picks = rand.New(rand.NewSource(o.seed))
	storeDir := filepath.Join(dir, "store")
	if populated != "" {
		storeDir = filepath.Join(populated, "store")
	}
	var err error
	if w.srv, err = startServer(storeDir); err != nil {
		return err
	}
	next := 0
	ph := w.srv.closedLoop(opDeadline, nil, func() (int, *servedSpec, bool) {
		if next == len(w.set) {
			return 0, nil, false
		}
		next++
		return next - 1, &w.set[next-1], true
	})
	if populated == "" {
		return firstErr(ph)
	}
	w.captured = make([][]byte, len(w.set))
	w.tokens = make([]string, len(w.set))
	for i := range ph.ops {
		o := &ph.ops[i]
		if o.err != nil {
			return o.err
		}
		spec := &w.set[o.spec]
		if !o.rep.final.Hit {
			return fmt.Errorf("set-up entry %s was not in the populated store", spec.label())
		}
		ref, err := plainRun(spec, nil, 0, 0)
		if err != nil {
			return err
		}
		checkStats(o, spec, ref)
		if o.err != nil {
			return o.err
		}
		w.captured[o.spec] = o.rep.stats
		w.tokens[o.spec] = o.rep.view.Hash
	}
	return nil
}

func firstErr(p *phaseResult) error {
	for i := range p.ops {
		if p.ops[i].err != nil {
			return p.ops[i].err
		}
	}
	return nil
}

func (w *hitWorkload) run(d time.Duration, tr *tracer) (*phaseResult, error) {
	if tr != nil {
		st, err := w.srv.status()
		if err != nil {
			return nil, err
		}
		w.status = st
	}
	return w.srv.closedLoop(d, tr, func() (int, *servedSpec, bool) {
		// Picks are consecutive seeded permutations of the set, so every
		// phase reads each entry equally often.
		if len(w.round) == 0 {
			w.round = w.picks.Perm(len(w.set))
		}
		i := w.round[0]
		w.round = w.round[1:]
		return i, &w.set[i], true
	}), nil
}

func (w *hitWorkload) check(p *phaseResult) error {
	for i := range p.ops {
		o := &p.ops[i]
		if o.err != nil {
			continue
		}
		spec := &w.set[o.spec]
		switch {
		case !o.rep.final.Hit:
			o.fail("%s: not answered from the store", spec.label())
		case o.rep.view.Hash != w.tokens[o.spec]:
			o.fail("%s: job hash %s, set-up saw %s", spec.label(), o.rep.view.Hash, w.tokens[o.spec])
		case !bytes.Equal(o.rep.stats, w.captured[o.spec]):
			o.fail("%s: stats.json differs from the one captured at set-up", spec.label())
		}
	}
	return nil
}

// layers times Store.Get and Store.Peek on each entry the traced phase
// read: the two full decodes every hit op makes.
func (w *hitWorkload) layers(p *phaseResult, tr *tracer, l layerValues) error {
	after, err := w.srv.status()
	if err != nil {
		return err
	}
	hits := after.Store.Hits - w.status.Store.Hits
	misses := after.Store.Misses - w.status.Store.Misses
	l["store.hit_ratio"] = ratio(float64(hits), float64(hits+misses))

	st := w.srv.srv.Store()
	get := map[int]time.Duration{}
	peek := map[int]time.Duration{}
	var entry int64
	for i := range p.ops {
		s := p.ops[i].spec
		if _, ok := get[s]; ok || p.ops[i].err != nil {
			continue
		}
		token := w.tokens[s]
		id := nextOpID()
		root := tr.begin("decompose.hit", id, 0)
		var arts map[string][]byte
		get[s] = tr.call("Store.Get", id, root, func() { arts, err = st.Get(token) })
		if err == nil {
			peek[s] = tr.call("Store.Peek", id, root, func() { arts, err = st.Peek(token) })
		}
		tr.end(root)
		if err != nil {
			return fmt.Errorf("entry %s: %w", token, err)
		}
		if !bytes.Equal(arts[serve.ArtStats], w.captured[s]) {
			return fmt.Errorf("entry %s: stored stats.json differs from set-up's", token)
		}
		fi, err := os.Stat(st.Path(token))
		if err != nil {
			return err
		}
		entry += fi.Size()
	}
	if len(get) == 0 {
		return errors.New("no successful op to decompose")
	}
	var self, gets []float64
	for i := range p.ops {
		o := &p.ops[i]
		if o.err != nil {
			continue
		}
		self = append(self, ms(o.dur-get[o.spec]-peek[o.spec]))
		gets = append(gets, ms(get[o.spec]))
	}
	l["store.get_ms.p50"] = p50(gets)
	l["store.entry_bytes"] = float64(entry) / float64(len(get))
	l["serve.self_ms.p50"] = p50(self)
	servedSpans(tr, l)
	return nil
}

func (w *hitWorkload) storeBytes() int64 { return w.srv.srv.Store().Bytes() }
func (w *hitWorkload) close()            { w.srv.close() }
