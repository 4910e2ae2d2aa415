package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/mem"
	"github.com/wirsim/wir/internal/serve"
)

// Served-job strata, by the cost of a served job at 15 SMs on the suite's
// built-in inputs (a served job costs about 25 µs per warp instruction,
// most of it trace and Perfetto encoding). Each stratum is narrow so that
// seeds change which jobs run but not the shape of the latency
// distribution the metrics read.
var (
	lightPool  = []string{"CF", "DW"}                         // ~0.15 s, 4-6 MB bundles
	mediumPool = []string{"CU", "FD", "BO", "WT", "SN", "SV"} // ~0.8-1.0 s, 18-28 MB
	heavyPool  = []string{"KM"}                               // ~6-8 s, ~187 MB, ~1 GB peak RSS
)

// servedModels are the machine models a served job draws from: the full
// WIR designs, whose served cost agrees within a few percent. Base skips
// the engine, and R and RL serve 15-25% slower, so letting the seed pick
// them would make a run's cost depend on its seed.
var servedModels = []config.Model{config.RLP, config.RLPV, config.RPV}

const (
	minSMs = 1
	maxSMs = 15

	// A generated kernel always runs kasmBlocks blocks of kasmWarpsPerBlock
	// warps, each looping kasmIters times over a kasmBody-instruction body:
	// about 6000 warp instructions, like the light suite kernels, so every
	// kasm job costs what a light job costs and the seed changes only the
	// instructions and immediates.
	kasmBlocks, kasmWarpsPerBlock = 4, 4
	kasmBody, kasmIters           = 6, 40
	// kasmWords is the global buffer a generated kernel loads from (lower
	// half) and stores to (upper half).
	kasmWords = 1024
)

// coldPattern is the serve-cold mix after its leading heavy job: one job in
// four is kasm, and light and kasm jobs together are three in four, so the
// median op is a light-cost job.
var coldPattern = []string{"medium", "light", "kasm", "light", "medium", "light", "kasm", "light"}

// hitSet is the serve-hit entry mix: entries from a few MB up to one heavy
// kernel's ~187 MB. Medium entries are seven in ten, so the median op is a
// medium-entry read. A small entry's hit often completes before the first
// /events poll and otherwise waits a whole 25 ms poll; with small entries
// in the majority, the median would flip between those two modes.
var hitSet = []string{"heavy", "medium", "medium", "medium", "medium", "medium", "medium", "medium", "light", "kasm"}

// servedSpec is one wirserve job of the serve workloads.
type servedSpec struct {
	Class string
	Req   serve.JobRequest
}

func (s *servedSpec) model() config.Model {
	m, err := config.ParseModel(s.Req.Model)
	if err != nil {
		panic(err) // the generator only emits valid model names
	}
	return m
}

// config mirrors the server's resolution of a request without a config:
// the model default, the requested SM count and the derived watchdog.
func (s *servedSpec) config() config.Config {
	cfg := config.Default(s.model())
	cfg.NumSMs = s.Req.SMs
	cfg.WatchdogCycles = mem.AutoWatchdog(&cfg)
	return cfg
}

func (s *servedSpec) label() string {
	if s.Req.Kind == "kasm" {
		return fmt.Sprintf("kasm:%s/%s/%d", s.Req.Kasm.Name, s.Req.Model, s.Req.SMs)
	}
	return fmt.Sprintf("%s/%s/%d", s.Req.Bench, s.Req.Model, s.Req.SMs)
}

// setupFunc returns the spec's workload factory: the suite benchmark's
// Setup, or the launch of k (the spec's parsed kasm kernel) over a zeroed
// global buffer, as the server builds it.
func (s *servedSpec) setupFunc(k *kasm.Kernel) (func(g *gpu.GPU) (*bench.Workload, error), error) {
	if s.Req.Kind == "run" {
		bm, err := bench.ByAbbr(s.Req.Bench)
		if err != nil {
			return nil, err
		}
		return bm.Setup, nil
	}
	ks := s.Req.Kasm
	launch := gpu.Launch{Kernel: k, GridX: ks.GridX, GridY: ks.GridY, GridZ: ks.GridZ,
		DimX: ks.DimX, DimY: ks.DimY, DimZ: ks.DimZ}
	return func(g *gpu.GPU) (*bench.Workload, error) {
		g.Mem().Alloc(ks.GlobalWords)
		return &bench.Workload{Launches: []gpu.Launch{launch}}, nil
	}, nil
}

// generator draws distinct served jobs from a seed.
type generator struct {
	r      *rand.Rand
	used   map[string]bool
	drawn  map[string]int      // distinct run jobs drawn per class
	cycles map[string][]string // per-cycle remainder, refilled by seeded shuffles
	kasmN  int
}

func newGenerator(seed int64) *generator {
	return &generator{r: rand.New(rand.NewSource(seed)), used: map[string]bool{}, drawn: map[string]int{}, cycles: map[string][]string{}}
}

// cycle returns the next item of a seeded cycle through items: each pass
// is a fresh shuffle, so over a run every item appears equally often.
func (g *generator) cycle(name string, items []string) string {
	if len(g.cycles[name]) == 0 {
		p := append([]string(nil), items...)
		g.r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		g.cycles[name] = p
	}
	it := g.cycles[name][0]
	g.cycles[name] = g.cycles[name][1:]
	return it
}

// next draws one job of the class. Kernel and model each cycle through
// their set in seeded order, so every run holds the same share of each;
// the SM count is seeded. Once a run class has used every combination it
// yields kasm jobs instead, so no job ever repeats.
func (g *generator) next(class string) servedSpec {
	pool := map[string][]string{"light": lightPool, "medium": mediumPool, "heavy": heavyPool}[class]
	if pool == nil || g.drawn[class] >= len(pool)*len(servedModels)*(maxSMs-minSMs+1) {
		return g.kasm()
	}
	for {
		b := g.cycle(class, pool)
		m := g.cycle(class+"/model", modelNames())
		sms := minSMs + g.r.Intn(maxSMs-minSMs+1)
		key := fmt.Sprintf("%s/%s/%d", b, m, sms)
		if g.used[key] {
			continue
		}
		g.used[key] = true
		g.drawn[class]++
		return servedSpec{Class: class, Req: serve.JobRequest{Kind: "run", Bench: b, Model: m, SMs: sms}}
	}
}

func modelNames() []string {
	out := make([]string, len(servedModels))
	for i, m := range servedModels {
		out[i] = m.String()
	}
	return out
}

func (g *generator) kasm() servedSpec {
	g.kasmN++
	m := g.cycle("kasm/model", modelNames())
	sms := minSMs + g.r.Intn(maxSMs-minSMs+1)
	ks := kasmKernel(g.r, fmt.Sprintf("gen%04d", g.kasmN))
	return servedSpec{Class: "kasm", Req: serve.JobRequest{Kind: "kasm", Model: m, SMs: sms, Kasm: ks}}
}

// coldSeq yields one serve-cold phase's jobs: a heavy job first, so every
// phase has one and it never extends the phase's tail, then jobs in
// coldPattern order. Phases drawing from one generator never repeat a job.
type coldSeq struct {
	g *generator
	n int
}

func (c *coldSeq) next() servedSpec {
	c.n++
	if c.n == 1 {
		return c.g.next("heavy")
	}
	return c.g.next(coldPattern[(c.n-2)%len(coldPattern)])
}

// hitEntries returns the serve-hit set: distinct jobs, one per hitSet slot.
func hitEntries(seed int64) []servedSpec {
	g := newGenerator(seed)
	out := make([]servedSpec, 0, len(hitSet))
	for _, class := range hitSet {
		out = append(out, g.next(class))
	}
	return out
}

// kasmKernel generates a kernel of the fixed shape above: a loop whose body mixes lane-uniform values (derived from the loop counter)
// with lane-group values (derived from tid), the redundancy structure
// instruction reuse feeds on.
func kasmKernel(r *rand.Rand, name string) *serve.KasmSpec {
	body := []func() string{
		func() string { return fmt.Sprintf("imul  r9, r6, #%d", 1+r.Intn(7)) },
		func() string { return "iadd  r5, r5, r9" },
		func() string { return fmt.Sprintf("xor   r10, r8, #%d", r.Intn(16)) },
		func() string { return "iadd  r5, r5, r10" },
		func() string { return fmt.Sprintf("shl   r9, r6, #%d", 1+r.Intn(4)) },
		func() string { return "imax  r5, r5, r9" },
		func() string { return fmt.Sprintf("and   r10, r5, #%d", 1+r.Intn(255)) },
		func() string { return "imad  r5, r9, r10, r5" },
		func() string { return fmt.Sprintf("isub  r5, r5, #%d", r.Intn(9)) },
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// %s: generated from the benchmark seed\n", name)
	b.WriteString("        s2r   r0, %ctaid.x\n")
	b.WriteString("        s2r   r1, %ntid.x\n")
	b.WriteString("        s2r   r2, %tid.x\n")
	b.WriteString("        imad  r3, r0, r1, r2\n")
	fmt.Fprintf(&b, "        and   r4, r3, #%d\n", kasmWords/2-1)
	b.WriteString("        shl   r4, r4, #2\n")
	b.WriteString("        ld.global r5, [r4]\n")
	fmt.Fprintf(&b, "        and   r8, r2, #%d\n", (4<<r.Intn(3))-1)
	b.WriteString("        movi  r9, #0\n")
	b.WriteString("        movi  r10, #0\n")
	b.WriteString("        movi  r6, #0\n")
	fmt.Fprintf(&b, "        movi  r7, #%d\n", kasmIters)
	for i := 0; i < kasmBody; i++ {
		prefix := "        "
		if i == 0 {
			prefix = "loop:   "
		}
		b.WriteString(prefix + body[r.Intn(len(body))]() + "\n")
	}
	b.WriteString("        iadd  r6, r6, #1\n")
	b.WriteString("        isetp.lt p0, r6, r7\n")
	b.WriteString("        bra   p0, loop\n")
	fmt.Fprintf(&b, "        st.global [r4+%d], r5\n", kasmWords/2*4)
	b.WriteString("        exit\n")
	return &serve.KasmSpec{Name: name, Source: b.String(), GridX: kasmBlocks, GridY: 1, GridZ: 1,
		DimX: 32 * kasmWarpsPerBlock, DimY: 1, DimZ: 1, GlobalWords: kasmWords}
}
