// Package config holds the machine and model configuration for the simulator,
// mirroring Table II of the WIR paper and the model matrix of section VII-A.
package config

import "fmt"

// Model selects which reuse design is simulated. The names follow the paper's
// section VII-A machine models.
type Model int

// Machine models.
const (
	// Base is the unmodified baseline GPU (paper section II).
	Base Model = iota
	// R is the minimum reuse design: register renaming, reuse buffer, and
	// value signature buffer.
	R
	// RL adds load reuse to R (section VI-A).
	RL
	// RLP adds the pending-retry mechanism to RL (section VI-B).
	RLP
	// RLPV adds the verify cache to RLP (section VI-C). This is the paper's
	// headline configuration.
	RLPV
	// RPV is RLPV without load reuse.
	RPV
	// RLPVc is RLPV with the capped-register policy instead of max-register.
	RLPVc
	// NoVSB is R without the value signature buffer: a fresh physical
	// register is allocated for every convergent register write.
	NoVSB
	// Affine is the hypothetical energy-optimized GPU that detects affine
	// (base, stride) warp values and discounts their register and FU energy.
	Affine
	// AffineRLPV runs RLPV on top of the Affine machine.
	AffineRLPV
)

var modelNames = [...]string{
	"Base", "R", "RL", "RLP", "RLPV", "RPV", "RLPVc", "NoVSB", "Affine", "Affine+RLPV",
}

func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// MarshalText renders the model by name, so JSON maps keyed by Model are
// readable ("RLPV" rather than "4").
func (m Model) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a model name.
func (m *Model) UnmarshalText(b []byte) error {
	v, err := ParseModel(string(b))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// AllModels lists every machine model in presentation order.
var AllModels = []Model{Base, R, RL, RLP, RLPV, RPV, RLPVc, NoVSB, Affine, AffineRLPV}

// ParseModel returns the model with the given name (as printed by String).
func ParseModel(s string) (Model, error) {
	for i, n := range modelNames {
		if n == s {
			return Model(i), nil
		}
	}
	return 0, fmt.Errorf("unknown model %q", s)
}

// Reuse reports whether the model includes the WIR machinery (renaming, reuse
// buffer, VSB, reference counting).
func (m Model) Reuse() bool { return m != Base && m != Affine }

// LoadReuse reports whether load instructions may reuse prior loads.
func (m Model) LoadReuse() bool {
	switch m {
	case RL, RLP, RLPV, RLPVc, AffineRLPV:
		return true
	}
	return false
}

// PendingRetry reports whether reuse-buffer misses eagerly reserve entries.
func (m Model) PendingRetry() bool {
	switch m {
	case RLP, RLPV, RPV, RLPVc, AffineRLPV:
		return true
	}
	return false
}

// VerifyCache reports whether verify-reads are filtered through the verify
// cache.
func (m Model) VerifyCache() bool {
	switch m {
	case RLPV, RPV, RLPVc, AffineRLPV:
		return true
	}
	return false
}

// CappedRegisters reports whether the capped-register policy limits physical
// register usage to the total logical register count.
func (m Model) CappedRegisters() bool { return m == RLPVc }

// UseVSB reports whether the value signature buffer correlates result values
// with physical registers. Only the NoVSB ablation disables it.
func (m Model) UseVSB() bool { return m.Reuse() && m != NoVSB }

// AffineTracking reports whether the machine detects affine warp values and
// discounts their energy.
func (m Model) AffineTracking() bool { return m == Affine || m == AffineRLPV }

// Warp scheduler policies.
const (
	// SchedGTO is greedy-then-oldest, the paper's configuration: keep
	// issuing from the same warp until it stalls, then pick the oldest.
	SchedGTO = "gto"
	// SchedLRR is loose round-robin: rotate across ready warps each cycle.
	SchedLRR = "lrr"
)

// Config is the full machine configuration (Table II plus reuse parameters).
type Config struct {
	Model Model

	// SM organization.
	NumSMs           int    // streaming multiprocessors on the chip
	SchedulersPerSM  int    // warp schedulers per SM (one per warp group)
	Scheduler        string // warp scheduling policy: SchedGTO (default) or SchedLRR
	WarpsPerSM       int    // concurrent warps per SM
	BlocksPerSM      int    // maximum resident thread blocks per SM
	PhysRegsPerSM    int    // physical warp registers per SM (1024 = 128 KB)
	SharedBytesPerSM int    // scratchpad capacity per SM

	// Register file geometry.
	RFBankGroups int // bank groups; each serves one 1024-bit read and write per cycle

	// Caches.
	L1DBytes   int
	L1DWays    int
	L1DMSHRs   int
	LineBytes  int
	ConstBytes int
	TexBytes   int

	// Memory system.
	L2Partitions   int
	L2BytesPerPart int
	L2Ways         int
	L2Latency      int // cycles, paper Table II
	DRAMLatency    int // cycles
	// DRAMQueue is Table II's per-partition scheduling queue depth. It is
	// printed in Table II, not modelled: a partition starts its DRAM misses
	// mem.DRAMServiceGap cycles apart, with no bound on how many wait. It
	// stays a field because harness.ConfigHash covers it.
	DRAMQueue int

	// Reuse structures.
	ReuseEntries     int // reuse buffer entries (paper default 256)
	ReuseWays        int // reuse buffer associativity (paper default 1: direct)
	VSBEntries       int // value signature buffer entries (paper default 256)
	VSBWays          int // VSB associativity (paper default 1: direct)
	VerifyCacheSize  int // verify cache entries (paper default 8)
	PendingQueueSize int // pending-retry queue entries (paper default 16)
	BackendDelay     int // extra pipeline cycles added by the reuse stages (default 4)
	MaxBarrierCount  int // reuse-buffer barrier counter saturation (5 bits -> 31)

	// Robustness harness.
	WatchdogCycles uint64 // fire the deadlock watchdog after this many cycles without a retire (0 = absolute backstop only)
}

// Default returns the paper's Table II configuration for the given model.
func Default(m Model) Config {
	return Config{
		Model:            m,
		NumSMs:           15,
		SchedulersPerSM:  2,
		Scheduler:        SchedGTO,
		WarpsPerSM:       48,
		BlocksPerSM:      8,
		PhysRegsPerSM:    1024,
		SharedBytesPerSM: 48 * 1024,
		RFBankGroups:     8,
		L1DBytes:         32 * 1024,
		L1DWays:          4,
		L1DMSHRs:         64,
		LineBytes:        128,
		ConstBytes:       8 * 1024,
		TexBytes:         12 * 1024,
		L2Partitions:     6,
		L2BytesPerPart:   128 * 1024,
		L2Ways:           8,
		L2Latency:        200,
		DRAMLatency:      440,
		DRAMQueue:        32,
		ReuseEntries:     256,
		ReuseWays:        1,
		VSBEntries:       256,
		VSBWays:          1,
		VerifyCacheSize:  8,
		PendingQueueSize: 16,
		BackendDelay:     4,
		MaxBarrierCount:  31,
	}
}

// Upper bounds Validate puts on every field that sizes an allocation or
// enters a product, and on the cache tag lines those fields multiply out to.
// Each sits far above every value an experiment uses (the largest today are
// 512 reuse-buffer entries in Fig. 21 and a 64-entry pending queue in the
// pending-queue ablation), and together they bound what gpu.New allocates
// for an accepted config. The field caps are checked before any product of
// fields, so no later check can overflow.
const (
	// MaxCount bounds NumSMs, SchedulersPerSM, WarpsPerSM, BlocksPerSM,
	// RFBankGroups, L1DWays, L2Ways and L2Partitions.
	MaxCount = 1 << 10
	// MaxPhysRegs bounds PhysRegsPerSM: physical register IDs are 16 bits
	// wide, with the top ID reserved for "no register".
	MaxPhysRegs = 1 << 15
	// MaxCacheBytes bounds L1DBytes, ConstBytes, TexBytes and L2BytesPerPart.
	MaxCacheBytes = 1 << 24
	// MaxLineBytes bounds LineBytes.
	MaxLineBytes = 1 << 12
	// MaxEntries bounds ReuseEntries, VSBEntries, VerifyCacheSize and
	// PendingQueueSize.
	MaxEntries = 1 << 16
	// MaxCacheLines bounds CacheLines, the tag lines of every cache on the
	// chip: each costs about 53 bytes at gpu.New, and the per-field caps
	// alone admit gigabytes of them. The default geometry needs 12,384 lines
	// at 15 SMs and 432,128 at 1,024.
	MaxCacheLines = 1 << 20
)

// CacheLines returns how many tag lines gpu.New allocates for the config's
// caches: the L1D, constant and texture caches of every SM plus every L2
// partition. It mirrors mem.NewCache, which rounds a cache down to whole
// sets and keeps at least one set. Call it only on a config whose ways and
// line size are positive, as Validate ensures.
func (c *Config) CacheLines() int {
	lines := func(size, ways int) int {
		return max(size/c.LineBytes/ways, 1) * ways
	}
	perSM := lines(c.L1DBytes, c.L1DWays) + lines(c.ConstBytes, 4) + lines(c.TexBytes, 4)
	return c.NumSMs*perSM + c.L2Partitions*lines(c.L2BytesPerPart, c.L2Ways)
}

// Validate checks the configuration for internally inconsistent values,
// including every zero divisor, negative size and oversized allocation that
// would otherwise panic in gpu.New or at the first memory access.
func (c *Config) Validate() error {
	for _, f := range []struct {
		name     string
		val, max int
	}{
		{"NumSMs", c.NumSMs, MaxCount},
		{"SchedulersPerSM", c.SchedulersPerSM, MaxCount},
		{"WarpsPerSM", c.WarpsPerSM, MaxCount},
		{"BlocksPerSM", c.BlocksPerSM, MaxCount},
		{"RFBankGroups", c.RFBankGroups, MaxCount},
		{"L1DWays", c.L1DWays, MaxCount},
		{"L2Ways", c.L2Ways, MaxCount},
		{"L2Partitions", c.L2Partitions, MaxCount},
		{"PhysRegsPerSM", c.PhysRegsPerSM, MaxPhysRegs},
		{"L1DBytes", c.L1DBytes, MaxCacheBytes},
		{"ConstBytes", c.ConstBytes, MaxCacheBytes},
		{"TexBytes", c.TexBytes, MaxCacheBytes},
		{"L2BytesPerPart", c.L2BytesPerPart, MaxCacheBytes},
		{"LineBytes", c.LineBytes, MaxLineBytes},
		{"ReuseEntries", c.ReuseEntries, MaxEntries},
		{"VSBEntries", c.VSBEntries, MaxEntries},
		{"VerifyCacheSize", c.VerifyCacheSize, MaxEntries},
		{"PendingQueueSize", c.PendingQueueSize, MaxEntries},
	} {
		if f.val > f.max {
			return fmt.Errorf("config: %s %d is above the limit of %d", f.name, f.val, f.max)
		}
	}
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("config: NumSMs must be positive, got %d", c.NumSMs)
	case c.BlocksPerSM <= 0:
		return fmt.Errorf("config: BlocksPerSM must be positive, got %d", c.BlocksPerSM)
	case c.SchedulersPerSM <= 0 || c.WarpsPerSM%c.SchedulersPerSM != 0:
		return fmt.Errorf("config: WarpsPerSM (%d) must divide evenly across schedulers (%d)", c.WarpsPerSM, c.SchedulersPerSM)
	case c.PhysRegsPerSM <= 0:
		return fmt.Errorf("config: PhysRegsPerSM must be positive, got %d", c.PhysRegsPerSM)
	case c.RFBankGroups <= 0:
		return fmt.Errorf("config: RFBankGroups must be positive, got %d", c.RFBankGroups)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("config: LineBytes must be a power of two, got %d", c.LineBytes)
	case c.L1DWays <= 0:
		return fmt.Errorf("config: L1DWays must be positive, got %d", c.L1DWays)
	case c.L1DBytes%(c.L1DWays*c.LineBytes) != 0:
		return fmt.Errorf("config: L1D size %d not divisible by ways*line", c.L1DBytes)
	case c.L2Partitions <= 0:
		return fmt.Errorf("config: L2Partitions must be positive, got %d", c.L2Partitions)
	case c.L2Ways <= 0:
		return fmt.Errorf("config: L2Ways must be positive, got %d", c.L2Ways)
	case c.Model.Reuse() && c.ReuseEntries <= 0:
		return fmt.Errorf("config: reuse model requires ReuseEntries > 0")
	case c.Model.UseVSB() && c.VSBEntries < 0:
		return fmt.Errorf("config: negative VSBEntries")
	case c.ReuseWays > 0 && c.ReuseEntries%c.ReuseWays != 0:
		return fmt.Errorf("config: ReuseEntries %d not divisible by ReuseWays %d", c.ReuseEntries, c.ReuseWays)
	case c.VSBWays > 0 && c.VSBEntries%c.VSBWays != 0:
		return fmt.Errorf("config: VSBEntries %d not divisible by VSBWays %d", c.VSBEntries, c.VSBWays)
	case c.BackendDelay < 0:
		return fmt.Errorf("config: negative BackendDelay")
	case c.PendingQueueSize < 0:
		return fmt.Errorf("config: negative PendingQueueSize")
	case c.Scheduler != "" && c.Scheduler != SchedGTO && c.Scheduler != SchedLRR:
		return fmt.Errorf("config: unknown scheduler %q", c.Scheduler)
	}
	if n := c.CacheLines(); n > MaxCacheLines {
		return fmt.Errorf("config: caches need %d tag lines, above the limit of %d", n, MaxCacheLines)
	}
	return nil
}
