package config

import (
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
	}
	for i, mutate := range bad {
		cfg := Default(RLPV)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
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
