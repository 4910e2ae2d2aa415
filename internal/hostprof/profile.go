package hostprof

import (
	"io"

	"github.com/wirsim/wir/internal/pprofenc"
)

// Profile renders the collector's phase accounting as a pprof profile so
// `go tool pprof` (top, peek, -http flamegraphs) works on simulator time —
// host wall-clock nanoseconds, not simulated cycles. The synthetic call tree
// follows Phase.Parent(): run → {dispatch, step, telemetry}, step →
// {sm/regfile, sm/execute, sm/issue, sm/hooks, sm/other}, sm/execute →
// {sm/reuse, sm/mem}. Sample values are [wall ns, laps]; wall is the
// default view. Per-SM phase samples carry the SM index as a numeric
// label so `pprof -tagfocus` isolates one SM.
//
// Every node's sample holds its SELF time, so flamegraph widths add up; the
// "step" frame's self value is clamped at zero when the per-SM breakdown
// (measured inside the SM ticks) accounts for all of it, so clock-read
// jitter cannot make the profile ill-formed.
func (c *Collector) Profile() *pprofenc.Profile {
	p := &pprofenc.Profile{
		SampleType: []pprofenc.ValueType{
			{Type: "wall", Unit: "nanoseconds"},
			{Type: "laps", Unit: "count"},
		},
		PeriodType:        pprofenc.ValueType{Type: "wall", Unit: "nanoseconds"},
		Period:            1,
		DurationNanos:     c.runNS,
		DefaultSampleType: "wall",
		Comments:          []string{"wirsim host profile: simulator wall time per simulation phase"},
	}
	const memStart, memLimit = 0x1000, 0x10000000
	p.Mappings = []pprofenc.Mapping{{
		ID: 1, MemoryStart: memStart, MemoryLimit: memLimit,
		Filename: "[wirsim-host]", BuildID: "wir-hostprof",
	}}

	var nextFn, nextLoc uint64
	addLoc := func(name string) uint64 {
		nextFn++
		p.Functions = append(p.Functions, pprofenc.Function{
			ID: nextFn, Name: name, SystemName: name,
			Filename: "sim.host", StartLine: int64(nextFn),
		})
		nextLoc++
		p.Locations = append(p.Locations, pprofenc.Location{
			ID: nextLoc, MappingID: 1, Address: memStart + nextLoc*16,
			Lines: []pprofenc.Line{{FunctionID: nextFn, Line: int64(nextFn)}},
		})
		return nextLoc
	}

	rootLoc := addLoc("run")
	var phLoc [NumPhases]uint64
	for ph := 0; ph < NumPhases; ph++ {
		phLoc[ph] = addLoc(Phase(ph).String())
	}
	// Leaf-to-root stack per phase, following the static nesting.
	stackOf := func(ph Phase) []uint64 {
		stack := []uint64{phLoc[ph]}
		for {
			parent, ok := ph.Parent()
			if !ok {
				break
			}
			stack = append(stack, phLoc[parent])
			ph = parent
		}
		return append(stack, rootLoc)
	}

	// Aggregate the SM phases across SMs for the self-time clamp on "step".
	var smWall [NumPhases]int64
	var smCount [NumPhases]uint64
	for _, sp := range c.sms {
		for ph := int(PhaseSMRegfile); ph < NumPhases; ph++ {
			smWall[ph] += sp.wall[ph]
			smCount[ph] += sp.count[ph]
		}
	}

	for ph := PhaseDispatch; ph <= PhaseTelemetry; ph++ {
		wall := c.dwall[ph]
		if ph == PhaseStep {
			var smTotal int64
			for sm := int(PhaseSMRegfile); sm < NumPhases; sm++ {
				smTotal += smWall[sm]
			}
			wall -= smTotal
			if wall < 0 {
				wall = 0
			}
		}
		if wall == 0 && c.dcount[ph] == 0 {
			continue
		}
		p.Samples = append(p.Samples, pprofenc.Sample{
			LocationIDs: stackOf(ph),
			Values:      []int64{wall, int64(c.dcount[ph])},
		})
	}
	for ph := int(PhaseSMRegfile); ph < NumPhases; ph++ {
		for i, sp := range c.sms {
			if sp.wall[ph] == 0 && sp.count[ph] == 0 {
				continue
			}
			p.Samples = append(p.Samples, pprofenc.Sample{
				LocationIDs: stackOf(Phase(ph)),
				Values:      []int64{sp.wall[ph], int64(sp.count[ph])},
				Labels:      []pprofenc.Label{{Key: "sm", Num: int64(i), NumUnit: "id"}},
			})
		}
	}
	return p
}

// WriteProfile writes the gzip'd pprof profile.
func (c *Collector) WriteProfile(w io.Writer) error {
	return c.Profile().WriteGzip(w)
}
