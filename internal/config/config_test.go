package config

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

func TestDefaultValid(t *testing.T) {
	for _, m := range AllModels {
		cfg := Default(m)
		if err := cfg.Validate(); err != nil {
			t.Errorf("default config for %v invalid: %v", m, err)
		}
	}
}

func TestValidateCatchesBadGeometry(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumSMs = 0 },
		func(c *Config) { c.WarpsPerSM = 47 }, // not divisible by 2 schedulers
		func(c *Config) { c.PhysRegsPerSM = 0 },
		func(c *Config) { c.RFBankGroups = 0 },
		func(c *Config) { c.LineBytes = 100 }, // not a power of two
		func(c *Config) { c.ReuseEntries = 0 },
		func(c *Config) { c.BackendDelay = -1 },
		func(c *Config) { c.ReuseEntries = MaxEntries + 1 },
		func(c *Config) { c.NumSMs = MaxCount + 1 },
		// Tag lines past MaxCacheLines with every field within its cap: a
		// 4 MiB direct-mapped L1D of 1-byte lines on one SM (gpu.New once
		// allocated 223 MB for it), 1,024 direct-mapped 16 MiB L2
		// partitions (about 7 GB), and 1 MiB L1Ds on 1,024 SMs.
		func(c *Config) { c.NumSMs, c.LineBytes, c.L1DBytes, c.L1DWays = 1, 1, 4<<20, 1 },
		func(c *Config) { c.L2Partitions, c.L2BytesPerPart, c.L2Ways = 1024, 16<<20, 1 },
		func(c *Config) { c.NumSMs, c.L1DBytes = MaxCount, 1<<20 },
	}
	for i, mutate := range bad {
		cfg := Default(RLPV)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestCacheLines pins the default geometry's tag lines, quoted beside
// MaxCacheLines, and checks the cap admits it at the most SMs Validate
// allows.
func TestCacheLines(t *testing.T) {
	for _, c := range []struct{ sms, want int }{{15, 12_384}, {MaxCount, 432_128}} {
		cfg := Default(RLPV)
		cfg.NumSMs = c.sms
		if got := cfg.CacheLines(); got != c.want {
			t.Errorf("%d SMs: %d tag lines, want %d", c.sms, got, c.want)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%d SMs: default geometry rejected: %v", c.sms, err)
		}
	}
}

// FuzzConfigValidate sets Config's int fields to arbitrary values and checks
// Validate: it never panics, it answers the same twice without touching the
// config, and every config it accepts keeps each bounded field and its cache
// tag lines within their caps. The input is a run of 9-byte records, a field
// index then a little-endian int64, applied to the paper's default config,
// so a short input moves a few fields off a valid point. The target builds
// no GPU, so nothing it accepts is allocated.
func FuzzConfigValidate(f *testing.F) {
	rt := reflect.TypeOf(Config{})
	var ints []int // indices of Config's int-kind fields, Model included
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).Type.Kind() == reflect.Int {
			ints = append(ints, i)
		}
	}
	records := func(kv ...any) []byte {
		var b []byte
		for i := 0; i < len(kv); i += 2 {
			sf, _ := rt.FieldByName(kv[i].(string))
			b = append(b, byte(slices.Index(ints, sf.Index[0])))
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(kv[i+1].(int))))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(records("NumSMs", MaxCount))
	f.Add(records("L1DWays", 0))
	f.Add(records("LineBytes", 1<<62))
	f.Add(records("ReuseEntries", -1, "ReuseWays", 3))
	f.Add(records("NumSMs", 1, "LineBytes", 1, "L1DBytes", 4<<20, "L1DWays", 1))
	f.Add(records("L2Partitions", 1024, "L2BytesPerPart", 16<<20, "L2Ways", 1))
	f.Add(records("Model", -7, "ConstBytes", math.MinInt64, "TexBytes", 0))

	bounded := []struct {
		name string
		max  int
	}{
		{"NumSMs", MaxCount}, {"SchedulersPerSM", MaxCount}, {"WarpsPerSM", MaxCount},
		{"BlocksPerSM", MaxCount}, {"RFBankGroups", MaxCount}, {"L1DWays", MaxCount},
		{"L2Ways", MaxCount}, {"L2Partitions", MaxCount}, {"PhysRegsPerSM", MaxPhysRegs},
		{"L1DBytes", MaxCacheBytes}, {"ConstBytes", MaxCacheBytes}, {"TexBytes", MaxCacheBytes},
		{"L2BytesPerPart", MaxCacheBytes}, {"LineBytes", MaxLineBytes},
		{"ReuseEntries", MaxEntries}, {"VSBEntries", MaxEntries},
		{"VerifyCacheSize", MaxEntries}, {"PendingQueueSize", MaxEntries},
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		cfg := Default(RLPV)
		v := reflect.ValueOf(&cfg).Elem()
		for ; len(in) >= 9; in = in[9:] {
			v.Field(ints[int(in[0])%len(ints)]).SetInt(int64(binary.LittleEndian.Uint64(in[1:9])))
		}
		a, b := cfg, cfg
		errA, errB := a.Validate(), b.Validate()
		if fmt.Sprint(errA) != fmt.Sprint(errB) || a != cfg || b != cfg {
			t.Fatalf("Validate is not a pure function of the config: %v, then %v", errA, errB)
		}
		if errA != nil {
			return
		}
		for _, fb := range bounded {
			if got := v.FieldByName(fb.name).Int(); got > int64(fb.max) {
				t.Fatalf("accepted %s %d, above its cap of %d", fb.name, got, fb.max)
			}
		}
		if n := cfg.CacheLines(); n > MaxCacheLines {
			t.Fatalf("accepted a config with %d tag lines, above the cap of %d", n, MaxCacheLines)
		}
	})
}

func TestModelPredicates(t *testing.T) {
	type want struct {
		reuse, load, pending, vcache, capped, vsb, affine bool
	}
	cases := map[Model]want{
		Base:       {},
		R:          {reuse: true, vsb: true},
		RL:         {reuse: true, load: true, vsb: true},
		RLP:        {reuse: true, load: true, pending: true, vsb: true},
		RLPV:       {reuse: true, load: true, pending: true, vcache: true, vsb: true},
		RPV:        {reuse: true, pending: true, vcache: true, vsb: true},
		RLPVc:      {reuse: true, load: true, pending: true, vcache: true, capped: true, vsb: true},
		NoVSB:      {reuse: true},
		Affine:     {affine: true},
		AffineRLPV: {reuse: true, load: true, pending: true, vcache: true, vsb: true, affine: true},
	}
	for m, w := range cases {
		if m.Reuse() != w.reuse || m.LoadReuse() != w.load || m.PendingRetry() != w.pending ||
			m.VerifyCache() != w.vcache || m.CappedRegisters() != w.capped ||
			m.UseVSB() != w.vsb || m.AffineTracking() != w.affine {
			t.Errorf("%v predicates wrong: reuse=%v load=%v pending=%v vcache=%v capped=%v vsb=%v affine=%v",
				m, m.Reuse(), m.LoadReuse(), m.PendingRetry(), m.VerifyCache(), m.CappedRegisters(), m.UseVSB(), m.AffineTracking())
		}
	}
}

func TestParseModelRoundTrip(t *testing.T) {
	for _, m := range AllModels {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("round trip failed for %v: %v %v", m, got, err)
		}
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Errorf("expected error for unknown model")
	}
}

func TestTableIIValues(t *testing.T) {
	c := Default(RLPV)
	// Spot-check the paper's Table II parameters.
	if c.NumSMs != 15 || c.WarpsPerSM != 48 || c.BlocksPerSM != 8 ||
		c.PhysRegsPerSM != 1024 || c.SharedBytesPerSM != 48*1024 ||
		c.L1DBytes != 32*1024 || c.L1DMSHRs != 64 || c.L2Partitions != 6 ||
		c.L2Latency != 200 || c.DRAMLatency != 440 ||
		c.ReuseEntries != 256 || c.VSBEntries != 256 || c.VerifyCacheSize != 8 ||
		c.BackendDelay != 4 || c.MaxBarrierCount != 31 {
		t.Fatalf("Table II defaults drifted: %+v", c)
	}
}
