// Package isa defines the warp instruction set executed by the simulator.
//
// The ISA is a small SASS/PTXplus-like vector instruction set: every
// instruction operates on a warp of 32 threads at once. A warp register is a
// 1024-bit vector (32 lanes x 32 bits), matching the machine model of the WIR
// paper (HPCA 2018). The package provides opcodes, instruction encoding,
// functional-unit classification, per-op latencies, functional execution of
// lane arithmetic, and disassembly.
package isa

import "fmt"

// WarpSize is the number of threads that execute a warp instruction in
// lockstep. All vector values in the simulator have this many lanes.
const WarpSize = 32

// NumLogicalRegs is the number of logical (architecturally visible) warp
// registers per warp. The paper's rename tables have 63 entries.
const NumLogicalRegs = 63

// NumPredRegs is the number of 32-bit predicate registers per warp. Predicate
// registers hold one bit per lane and are not renamed.
const NumPredRegs = 8

// Vec is a warp-wide register value: one 32-bit word per lane. It is the
// simulator's representation of a 1024-bit warp register.
type Vec [WarpSize]uint32

// Mask is a per-lane active mask. Bit i set means lane i participates in the
// instruction.
type Mask uint32

// FullMask has all 32 lanes active.
const FullMask Mask = 0xFFFFFFFF

// Active reports whether lane i is active in the mask.
func (m Mask) Active(i int) bool { return m&(1<<uint(i)) != 0 }

// Count returns the number of active lanes.
func (m Mask) Count() int {
	n := 0
	for v := uint32(m); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Full reports whether every lane is active (the instruction is convergent).
func (m Mask) Full() bool { return m == FullMask }

// Reg identifies a logical warp register operand. RegNone marks an unused
// operand slot.
type Reg uint8

// RegNone marks an absent register operand.
const RegNone Reg = 0xFF

// Valid reports whether r names one of the NumLogicalRegs logical registers.
func (r Reg) Valid() bool { return r < NumLogicalRegs }

func (r Reg) String() string {
	if r == RegNone {
		return "-"
	}
	return fmt.Sprintf("$r%d", uint8(r))
}

// PReg identifies a predicate register. PredNone means the instruction is
// unpredicated (or, as a SETP destination, that no predicate is written).
type PReg uint8

// PredNone marks an absent predicate operand.
const PredNone PReg = 0xFF

func (p PReg) String() string {
	if p == PredNone {
		return "-"
	}
	return fmt.Sprintf("$p%d", uint8(p))
}

// Op enumerates warp instruction opcodes.
type Op uint8

// Opcodes. Integer and bitwise operations execute on the SP pipelines,
// transcendental operations on the SFU pipeline, and memory operations on the
// MEM pipeline.
const (
	OpNop Op = iota

	// Data movement.
	OpMov  // dst = src0
	OpMovI // dst = imm (broadcast to all lanes)
	OpS2R  // dst = special register (per-lane, e.g. threadIdx.x)

	// Integer arithmetic (SP).
	OpIAdd // dst = src0 + src1
	OpISub // dst = src0 - src1
	OpIMul // dst = src0 * src1 (low 32 bits)
	OpIMad // dst = src0*src1 + src2
	OpIMin // dst = min(int32(src0), int32(src1))
	OpIMax // dst = max(int32(src0), int32(src1))
	OpIAbs // dst = |int32(src0)|

	// Bitwise / shift (SP).
	OpAnd // dst = src0 & src1
	OpOr  // dst = src0 | src1
	OpXor // dst = src0 ^ src1
	OpNot // dst = ^src0
	OpShl // dst = src0 << (src1 & 31)
	OpShr // dst = src0 >> (src1 & 31) (logical)
	OpSar // dst = int32(src0) >> (src1 & 31) (arithmetic)

	// Floating point (SP).
	OpFAdd // dst = src0 + src1
	OpFSub // dst = src0 - src1
	OpFMul // dst = src0 * src1
	OpFFma // dst = src0*src1 + src2
	OpFMin // dst = min(src0, src1)
	OpFMax // dst = max(src0, src1)
	OpFAbs // dst = |src0|
	OpFNeg // dst = -src0
	OpI2F  // dst = float32(int32(src0))
	OpF2I  // dst = int32(float32(src0))

	// Transcendental (SFU).
	OpFRcp  // dst = 1/src0
	OpFSqrt // dst = sqrt(src0)
	OpFRsq  // dst = 1/sqrt(src0)
	OpFExp  // dst = exp2(src0)
	OpFLog  // dst = log2(src0)
	OpFSin  // dst = sin(src0)
	OpFCos  // dst = cos(src0)
	OpFDiv  // dst = src0 / src1

	// Predicate computation (SP). Writes SetPDst.
	OpISetP // pdst = cmp(int32(src0), int32(src1))
	OpFSetP // pdst = cmp(float32(src0), float32(src1))

	// Predicate-based select (SP).
	OpSel // dst = pred ? src0 : src1

	// Memory (MEM). Address in src0 (byte address per lane); store data in
	// src1. Space selects global/shared/const/tex.
	OpLd
	OpSt

	// Control (issued but not sent to the backend pipelines).
	OpBra  // branch to Target if guard predicate true per-lane (divergence)
	OpJmp  // unconditional branch to Target
	OpBar  // block-wide barrier (__syncthreads)
	OpMemF // memory fence (treated as a reuse barrier like OpBar)
	OpExit // thread exit

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop", OpMov: "mov", OpMovI: "movi", OpS2R: "s2r",
	OpIAdd: "iadd", OpISub: "isub", OpIMul: "imul", OpIMad: "imad",
	OpIMin: "imin", OpIMax: "imax", OpIAbs: "iabs",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShl: "shl", OpShr: "shr", OpSar: "sar",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFFma: "ffma",
	OpFMin: "fmin", OpFMax: "fmax", OpFAbs: "fabs", OpFNeg: "fneg",
	OpI2F: "i2f", OpF2I: "f2i",
	OpFRcp: "frcp", OpFSqrt: "fsqrt", OpFRsq: "frsq", OpFExp: "fexp",
	OpFLog: "flog", OpFSin: "fsin", OpFCos: "fcos", OpFDiv: "fdiv",
	OpISetP: "isetp", OpFSetP: "fsetp", OpSel: "sel",
	OpLd: "ld", OpSt: "st",
	OpBra: "bra", OpJmp: "jmp", OpBar: "bar", OpMemF: "memfence", OpExit: "exit",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsFloat reports whether the opcode is a floating-point operation, used for
// the %FP statistic in Table I.
func (o Op) IsFloat() bool {
	switch o {
	case OpFAdd, OpFSub, OpFMul, OpFFma, OpFMin, OpFMax, OpFAbs, OpFNeg,
		OpI2F, OpF2I, OpFRcp, OpFSqrt, OpFRsq, OpFExp, OpFLog, OpFSin,
		OpFCos, OpFDiv, OpFSetP:
		return true
	}
	return false
}

// Cond enumerates comparison conditions for SETP instructions.
type Cond uint8

// Comparison conditions.
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
)

var condNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Space enumerates memory address spaces for loads and stores.
type Space uint8

// Memory spaces. Const and Tex are read-only: stores to them are rejected by
// the assembler, and loads from them are always safe to reuse.
const (
	SpaceNone Space = iota
	SpaceGlobal
	SpaceShared
	SpaceConst
	SpaceTex
)

var spaceNames = [...]string{"", "global", "shared", "const", "tex"}

func (s Space) String() string {
	if int(s) < len(spaceNames) {
		return spaceNames[s]
	}
	return fmt.Sprintf("space(%d)", uint8(s))
}

// ReadOnly reports whether the space cannot be written by kernels.
func (s Space) ReadOnly() bool { return s == SpaceConst || s == SpaceTex }

// SpecialReg enumerates per-lane special registers readable with S2R.
type SpecialReg uint8

// Special registers.
const (
	SrTidX    SpecialReg = iota // threadIdx.x
	SrTidY                      // threadIdx.y
	SrTidZ                      // threadIdx.z
	SrCtaidX                    // blockIdx.x
	SrCtaidY                    // blockIdx.y
	SrCtaidZ                    // blockIdx.z
	SrNtidX                     // blockDim.x
	SrNtidY                     // blockDim.y
	SrNtidZ                     // blockDim.z
	SrNctaidX                   // gridDim.x
	SrNctaidY                   // gridDim.y
	SrNctaidZ                   // gridDim.z
	SrLaneID                    // lane index within the warp
	SrWarpID                    // warp index within the block
	SrTid                       // linear thread index within the block
)

var sregNames = [...]string{
	"tid.x", "tid.y", "tid.z", "ctaid.x", "ctaid.y", "ctaid.z",
	"ntid.x", "ntid.y", "ntid.z", "nctaid.x", "nctaid.y", "nctaid.z",
	"laneid", "warpid", "tid",
}

func (s SpecialReg) String() string {
	if int(s) < len(sregNames) {
		return sregNames[s]
	}
	return fmt.Sprintf("sreg(%d)", uint8(s))
}

// FU identifies the functional-unit pipeline an opcode executes on.
type FU uint8

// Functional-unit pipelines. The baseline SM has two SP pipelines, one SFU
// pipeline and one MEM pipeline (paper section II). Control instructions
// resolve at issue and never enter the backend.
const (
	FUNone FU = iota // control: resolves in the frontend
	FUSP
	FUSFU
	FUMem
)

func (f FU) String() string {
	switch f {
	case FUNone:
		return "ctrl"
	case FUSP:
		return "sp"
	case FUSFU:
		return "sfu"
	case FUMem:
		return "mem"
	}
	return fmt.Sprintf("fu(%d)", uint8(f))
}

// Unit returns the functional-unit pipeline for the opcode.
func (o Op) Unit() FU {
	switch o {
	case OpBra, OpJmp, OpBar, OpMemF, OpExit, OpNop:
		return FUNone
	case OpFRcp, OpFSqrt, OpFRsq, OpFExp, OpFLog, OpFSin, OpFCos, OpFDiv:
		return FUSFU
	case OpLd, OpSt:
		return FUMem
	default:
		return FUSP
	}
}

// Latency returns the execution latency of the opcode in cycles, from dispatch
// to result availability, excluding memory-system time for loads. The values
// model Fermi-class dependent-issue latencies (arithmetic results become
// usable ~18-22 cycles after issue once operand collection and writeback are
// included).
func (o Op) Latency() int {
	switch o.Unit() {
	case FUSFU:
		return 28
	case FUMem:
		return 4 // address generation + coalescing; cache time is added on top
	case FUNone:
		return 1
	default:
		if o == OpFFma || o == OpIMad || o == OpFMul || o == OpIMul {
			return 14
		}
		return 10
	}
}

// Instr is one decoded warp instruction.
type Instr struct {
	Op    Op
	Cond  Cond  // comparison for ISetP/FSetP
	Space Space // address space for Ld/St

	Dst  Reg    // destination warp register, RegNone if none
	Src  [3]Reg // source warp registers, RegNone-padded
	NSrc int    // number of valid Src entries

	Imm    uint32 // immediate operand
	HasImm bool

	// Guard predicate: the instruction executes only in lanes where the
	// predicate (xor PredNeg) is true. PredNone = unpredicated.
	Pred    PReg
	PredNeg bool

	PDst Reg2P // predicate destination for SETP, and predicate source for Sel

	SReg SpecialReg // special register for S2R

	Target int // branch target PC for Bra/Jmp
	Join   int // reconvergence PC for Bra (set by the assembler)
}

// Reg2P carries a predicate register number in an Instr. A distinct type keeps
// predicate and vector register namespaces from being mixed up.
type Reg2P = PReg

// HasDst reports whether the instruction writes a destination warp register.
func (in *Instr) HasDst() bool { return in.Dst != RegNone }

// IsControl reports whether the instruction resolves in the frontend (branch,
// barrier, fence, exit, nop).
func (in *Instr) IsControl() bool { return in.Op.Unit() == FUNone }

// IsLoad reports whether the instruction is a memory load.
func (in *Instr) IsLoad() bool { return in.Op == OpLd }

// IsStore reports whether the instruction is a memory store.
func (in *Instr) IsStore() bool { return in.Op == OpSt }

// Reusable reports whether the result of the instruction may be recorded in
// and served from the reuse buffer, ignoring divergence and memory-hazard
// restrictions (those are dynamic). Per the paper, arithmetic instructions and
// loads are reusable; control flow and stores are not. S2R depends on thread
// identity (not only on register inputs), so it is not reusable either, and
// neither is Sel, whose outcome depends on a non-renamed predicate register.
func (in *Instr) Reusable() bool {
	if in.IsControl() || in.IsStore() {
		return false
	}
	switch in.Op {
	case OpS2R, OpSel, OpISetP, OpFSetP, OpNop:
		return false
	}
	return true
}

// Sources returns the valid source registers.
func (in *Instr) Sources() []Reg { return in.Src[:in.NSrc] }

// String disassembles the instruction.
func (in *Instr) String() string {
	s := ""
	if in.Pred != PredNone {
		neg := ""
		if in.PredNeg {
			neg = "!"
		}
		s += fmt.Sprintf("@%s%s ", neg, in.Pred)
	}
	s += in.Op.String()
	switch in.Op {
	case OpISetP, OpFSetP:
		s += "." + in.Cond.String()
	case OpLd, OpSt:
		s += "." + in.Space.String()
	}
	first := true
	emit := func(operand string) {
		if first {
			s += " " + operand
			first = false
		} else {
			s += ", " + operand
		}
	}
	switch in.Op {
	case OpISetP, OpFSetP:
		emit(in.PDst.String())
	default:
		if in.Dst != RegNone {
			emit(in.Dst.String())
		}
	}
	if in.Op == OpS2R {
		emit("%" + in.SReg.String())
	}
	if in.Op == OpLd {
		emit(fmt.Sprintf("[%s]", in.Src[0]))
	} else if in.Op == OpSt {
		emit(fmt.Sprintf("[%s]", in.Src[0]))
		emit(in.Src[1].String())
	} else {
		for _, r := range in.Sources() {
			emit(r.String())
		}
	}
	if in.Op == OpSel {
		emit(in.PDst.String())
	}
	if in.HasImm {
		emit(fmt.Sprintf("#%d", int32(in.Imm)))
	}
	if in.Op == OpBra || in.Op == OpJmp {
		emit(fmt.Sprintf("@%d", in.Target))
	}
	return s
}
