package kasm

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/wirsim/wir/internal/isa"
)

// Parse assembles kernel source text into a validated Kernel. The syntax is
// the disassembly syntax Instr.String and Listing print, line-oriented:
//
//	// gid = ctaid.x*ntid.x + tid.x; out[gid] = in[gid] + 1.0
//	.shared 128
//	        s2r   r0, %ctaid.x
//	        s2r   r1, %ntid.x
//	        s2r   r2, %tid.x
//	        imad  r3, r0, r1, r2
//	        shl   r3, r3, #2
//	        ld.global r4, [r3]
//	        fadd  r4, r4, #1.0
//	        st.global [r3+4096], r4
//	        exit
//
// Comments run from "//" or ";" to end of line. Registers are rN / pN (a
// leading $ as printed by the disassembler is accepted). Labels are
// "name:"-prefixed lines; branches name them: "bra p0, loop", "bra !p0, done",
// "jmp top". Immediates are #-prefixed (the # is optional): integers in Go
// literal syntax (decimal, 0x...), or a float (containing '.', 'e' or a
// trailing 'f') for the f* opcodes, movf, and fsetp. Loads and stores take
// the address in brackets with an optional +/- byte offset: [r3], [r3+64],
// or a trailing #imm operand as the disassembler prints. Registers and
// predicates are allocated up to the highest index used. The assembled kernel
// passes the same Build validation as programmatic Builder kernels, including
// automatic reconvergence-point derivation for branches.
func Parse(name, src string) (*Kernel, error) {
	p := &parser{name: name}
	if err := p.scan(src); err != nil {
		return nil, err
	}
	return p.emit()
}

// srcInstr is one scanned instruction line awaiting emission.
type srcInstr struct {
	line     int
	op       string
	suffix   string // .cond or .space
	operands []string
}

type parser struct {
	name    string
	instrs  []srcInstr
	labels  map[string]int // label name -> instruction index
	order   []string       // label names in definition order
	shared  int
	maxReg  int
	maxPred int
}

func (p *parser) errf(line int, format string, args ...any) error {
	return fmt.Errorf("kasm: %s: line %d: %s", p.name, line, fmt.Sprintf(format, args...))
}

// scan splits the source into labeled instruction lines and tallies register
// usage, so emit can preallocate builder registers by index.
func (p *parser) scan(src string) error {
	p.labels = make(map[string]int)
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		s := raw
		if j := strings.Index(s, "//"); j >= 0 {
			s = s[:j]
		}
		if j := strings.IndexByte(s, ';'); j >= 0 {
			s = s[:j]
		}
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		// Labels prefix the line; several may stack before one instruction.
		for {
			j := strings.IndexByte(s, ':')
			if j < 0 {
				break
			}
			lbl := strings.TrimSpace(s[:j])
			if !isIdent(lbl) {
				return p.errf(line, "bad label %q", lbl)
			}
			if _, dup := p.labels[lbl]; dup {
				return p.errf(line, "label %q defined twice", lbl)
			}
			p.labels[lbl] = len(p.instrs)
			p.order = append(p.order, lbl)
			s = strings.TrimSpace(s[j+1:])
		}
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, ".") {
			if err := p.directive(line, s); err != nil {
				return err
			}
			continue
		}
		op, rest, _ := strings.Cut(s, " ")
		op = strings.ToLower(op)
		suffix := ""
		if j := strings.IndexByte(op, '.'); j >= 0 {
			op, suffix = op[:j], op[j+1:]
		}
		var operands []string
		for _, f := range strings.Split(rest, ",") {
			f = strings.TrimSpace(f)
			if f != "" {
				operands = append(operands, f)
			}
		}
		in := srcInstr{line: line, op: op, suffix: suffix, operands: operands}
		p.noteRegs(in)
		p.instrs = append(p.instrs, in)
	}
	if len(p.instrs) == 0 {
		return fmt.Errorf("kasm: %s: empty program", p.name)
	}
	return nil
}

func (p *parser) directive(line int, s string) error {
	f := strings.Fields(s)
	switch f[0] {
	case ".shared":
		if len(f) != 2 {
			return p.errf(line, ".shared wants one byte-count operand")
		}
		n, err := strconv.Atoi(f[1])
		if err != nil || n < 0 {
			return p.errf(line, "bad .shared size %q", f[1])
		}
		p.shared = n
		return nil
	default:
		return p.errf(line, "unknown directive %s", f[0])
	}
}

// noteRegs records the highest register/predicate index each operand touches.
func (p *parser) noteRegs(in srcInstr) {
	for _, o := range in.operands {
		o = strings.Trim(o, "[]!@")
		if i := strings.IndexAny(o, "+-"); i > 0 {
			o = o[:i]
		}
		o = strings.TrimPrefix(o, "$")
		if n, ok := regIndex(o, 'r'); ok && n > p.maxReg {
			p.maxReg = n
		}
		if n, ok := regIndex(o, 'p'); ok && n > p.maxPred {
			p.maxPred = n
		}
	}
}

// regIndex parses "r12"/"p3"-style names.
func regIndex(s string, kind byte) (int, bool) {
	if len(s) < 2 || s[0] != kind {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// opClass tables: which builder emission shape each mnemonic takes.
var (
	unaryOps = map[string]isa.Op{
		"mov": isa.OpMov, "iabs": isa.OpIAbs, "not": isa.OpNot,
		"fabs": isa.OpFAbs, "fneg": isa.OpFNeg, "i2f": isa.OpI2F, "f2i": isa.OpF2I,
		"frcp": isa.OpFRcp, "fsqrt": isa.OpFSqrt, "frsq": isa.OpFRsq,
		"fexp": isa.OpFExp, "flog": isa.OpFLog, "fsin": isa.OpFSin, "fcos": isa.OpFCos,
	}
	intBinOps = map[string]isa.Op{
		"iadd": isa.OpIAdd, "isub": isa.OpISub, "imul": isa.OpIMul,
		"imin": isa.OpIMin, "imax": isa.OpIMax,
		"and": isa.OpAnd, "or": isa.OpOr, "xor": isa.OpXor,
		"shl": isa.OpShl, "shr": isa.OpShr, "sar": isa.OpSar,
	}
	floatBinOps = map[string]isa.Op{
		"fadd": isa.OpFAdd, "fsub": isa.OpFSub, "fmul": isa.OpFMul,
		"fmin": isa.OpFMin, "fmax": isa.OpFMax, "fdiv": isa.OpFDiv,
	}
	ternaryOps = map[string]isa.Op{"imad": isa.OpIMad, "ffma": isa.OpFFma}
)

// emit runs the scanned program through a Builder, which performs the same
// validation (register bounds, terminator, reconvergence points) as
// programmatic kernels.
func (p *parser) emit() (*Kernel, error) {
	if p.maxReg >= isa.NumLogicalRegs {
		return nil, fmt.Errorf("kasm: %s: register r%d out of range (%d logical registers)", p.name, p.maxReg, isa.NumLogicalRegs)
	}
	if p.maxPred >= isa.NumPredRegs {
		return nil, fmt.Errorf("kasm: %s: predicate p%d out of range (%d predicate registers)", p.name, p.maxPred, isa.NumPredRegs)
	}
	b := NewBuilder(p.name)
	if p.shared > 0 {
		b.Shared(p.shared)
	}
	for i := 0; i <= p.maxReg; i++ {
		b.R()
	}
	for i := 0; i <= p.maxPred; i++ {
		b.P()
	}
	lbl := make(map[string]Label, len(p.labels))
	for _, name := range p.order {
		lbl[name] = b.NewLabel()
	}
	for idx, in := range p.instrs {
		for _, name := range p.order {
			if p.labels[name] == idx {
				b.Bind(lbl[name])
			}
		}
		if err := p.emitOne(b, lbl, in); err != nil {
			return nil, err
		}
	}
	// A label after the last instruction would branch past the end of the
	// program; there is no instruction for it to name.
	for _, name := range p.order {
		if p.labels[name] == len(p.instrs) {
			return nil, fmt.Errorf("kasm: %s: label %q points past the end of the program", p.name, name)
		}
	}
	k, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("kasm: %w", err)
	}
	return k, nil
}

func (p *parser) emitOne(b *Builder, lbl map[string]Label, in srcInstr) error {
	want := func(n int) error {
		if len(in.operands) != n {
			return p.errf(in.line, "%s wants %d operands, got %d", in.op, n, len(in.operands))
		}
		return nil
	}
	switch {
	case in.op == "exit":
		if err := want(0); err != nil {
			return err
		}
		b.Exit()
	case in.op == "bar":
		if err := want(0); err != nil {
			return err
		}
		b.Bar()
	case in.op == "memfence":
		if err := want(0); err != nil {
			return err
		}
		b.MemFence()
	case in.op == "jmp":
		if err := want(1); err != nil {
			return err
		}
		l, err := p.label(lbl, in.line, in.operands[0])
		if err != nil {
			return err
		}
		b.JmpTo(l)
	case in.op == "bra":
		if err := want(2); err != nil {
			return p.errf(in.line, "bra wants a predicate and a target (an unconditional branch is jmp)")
		}
		pr, neg, err := p.pred(in.line, in.operands[0])
		if err != nil {
			return err
		}
		l, err := p.label(lbl, in.line, in.operands[1])
		if err != nil {
			return err
		}
		b.BraTo(pr, neg, l)
	case in.op == "movi":
		if err := want(2); err != nil {
			return err
		}
		dst, err := p.reg(in.line, in.operands[0])
		if err != nil {
			return err
		}
		imm, err := p.intImm(in.line, in.operands[1])
		if err != nil {
			return err
		}
		b.MovI(dst, imm)
	case in.op == "movf":
		if err := want(2); err != nil {
			return err
		}
		dst, err := p.reg(in.line, in.operands[0])
		if err != nil {
			return err
		}
		f, err := p.floatImm(in.line, in.operands[1])
		if err != nil {
			return err
		}
		b.MovF(dst, f)
	case in.op == "s2r":
		if err := want(2); err != nil {
			return err
		}
		dst, err := p.reg(in.line, in.operands[0])
		if err != nil {
			return err
		}
		sr, err := p.sreg(in.line, in.operands[1])
		if err != nil {
			return err
		}
		b.S2R(dst, sr)
	case in.op == "sel":
		if err := want(4); err != nil {
			return err
		}
		// Disassembly order: sel dst, a, b, p.
		dst, err := p.reg(in.line, in.operands[0])
		if err != nil {
			return err
		}
		a, err := p.reg(in.line, in.operands[1])
		if err != nil {
			return err
		}
		c, err := p.reg(in.line, in.operands[2])
		if err != nil {
			return err
		}
		pr, neg, err := p.pred(in.line, in.operands[3])
		if err != nil {
			return err
		}
		if neg {
			return p.errf(in.line, "sel predicate cannot be negated")
		}
		b.Sel(dst, pr, a, c)
	case in.op == "ld":
		return p.emitMem(b, in, true)
	case in.op == "st":
		return p.emitMem(b, in, false)
	case in.op == "isetp" || in.op == "fsetp":
		if err := want(3); err != nil {
			return err
		}
		cond, err := p.cond(in.line, in.suffix)
		if err != nil {
			return err
		}
		pd, neg, err := p.pred(in.line, in.operands[0])
		if err != nil {
			return err
		}
		if neg {
			return p.errf(in.line, "%s destination cannot be negated", in.op)
		}
		a, err := p.reg(in.line, in.operands[1])
		if err != nil {
			return err
		}
		if c, err := p.reg(in.line, in.operands[2]); err == nil {
			if in.op == "isetp" {
				b.ISetP(pd, cond, a, c)
			} else {
				b.FSetP(pd, cond, a, c)
			}
			return nil
		}
		if in.op == "isetp" {
			imm, err := p.intImm(in.line, in.operands[2])
			if err != nil {
				return err
			}
			b.ISetPI(pd, cond, a, int32(imm))
		} else {
			f, err := p.floatImm(in.line, in.operands[2])
			if err != nil {
				return err
			}
			b.FSetPI(pd, cond, a, f)
		}
	default:
		if op, ok := ternaryOps[in.op]; ok {
			if err := want(4); err != nil {
				return err
			}
			rs := make([]isa.Reg, 4)
			for i, o := range in.operands {
				r, err := p.reg(in.line, o)
				if err != nil {
					return err
				}
				rs[i] = r
			}
			b.Op3(op, rs[0], rs[1], rs[2], rs[3])
			return nil
		}
		if op, ok := unaryOps[in.op]; ok {
			if err := want(2); err != nil {
				return err
			}
			dst, err := p.reg(in.line, in.operands[0])
			if err != nil {
				return err
			}
			a, err := p.reg(in.line, in.operands[1])
			if err != nil {
				return err
			}
			b.Op1(op, dst, a)
			return nil
		}
		op, isInt := intBinOps[in.op]
		fop, isFloat := floatBinOps[in.op]
		if !isInt && !isFloat {
			return p.errf(in.line, "unknown opcode %q", in.op)
		}
		if !isInt {
			op = fop
		}
		if err := want(3); err != nil {
			return err
		}
		dst, err := p.reg(in.line, in.operands[0])
		if err != nil {
			return err
		}
		a, err := p.reg(in.line, in.operands[1])
		if err != nil {
			return err
		}
		if c, err := p.reg(in.line, in.operands[2]); err == nil {
			b.Op2(op, dst, a, c)
			return nil
		}
		if isInt {
			imm, err := p.intImm(in.line, in.operands[2])
			if err != nil {
				return err
			}
			b.Op2I(op, dst, a, imm)
		} else {
			f, err := p.floatImm(in.line, in.operands[2])
			if err != nil {
				return err
			}
			b.Op2I(op, dst, a, isa.F32Bits(f))
		}
	}
	return nil
}

// emitMem assembles ld/st: "ld.space dst, [addr(+off)] (, #off)" and
// "st.space [addr(+off)], val (, #off)".
func (p *parser) emitMem(b *Builder, in srcInstr, load bool) error {
	space, err := p.space(in.line, in.suffix)
	if err != nil {
		return err
	}
	ops := in.operands
	var off int32
	if n := len(ops); n == 3 {
		imm, err := p.intImm(in.line, ops[2])
		if err != nil {
			return err
		}
		off = int32(imm)
		ops = ops[:2]
	}
	if len(ops) != 2 {
		return p.errf(in.line, "%s wants 2 operands plus an optional offset", in.op)
	}
	addrIdx := 1
	if !load {
		addrIdx = 0
	}
	addr, aOff, err := p.addr(in.line, ops[addrIdx])
	if err != nil {
		return err
	}
	if aOff != 0 {
		if off != 0 {
			return p.errf(in.line, "offset given both in brackets and as an immediate")
		}
		off = aOff
	}
	other, err := p.reg(in.line, ops[1-addrIdx])
	if err != nil {
		return err
	}
	if load {
		b.Ld(other, space, addr, off)
	} else {
		b.St(space, addr, other, off)
	}
	return nil
}

// --- operand parsing ---

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (p *parser) reg(line int, s string) (isa.Reg, error) {
	n, ok := regIndex(strings.TrimPrefix(s, "$"), 'r')
	if !ok || n >= isa.NumLogicalRegs {
		return isa.RegNone, p.errf(line, "bad register %q", s)
	}
	return isa.Reg(n), nil
}

func (p *parser) pred(line int, s string) (isa.PReg, bool, error) {
	neg := strings.HasPrefix(s, "!")
	n, ok := regIndex(strings.TrimPrefix(strings.TrimPrefix(s, "!"), "$"), 'p')
	if !ok || n >= isa.NumPredRegs {
		return isa.PredNone, false, p.errf(line, "bad predicate %q", s)
	}
	return isa.PReg(n), neg, nil
}

func (p *parser) addr(line int, s string) (isa.Reg, int32, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return isa.RegNone, 0, p.errf(line, "address %q must be bracketed, like [r3] or [r3+64]", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	off := int32(0)
	if i := strings.IndexAny(inner, "+-"); i > 0 {
		imm, err := p.intImm(line, strings.TrimSpace(inner[i+1:]))
		if err != nil {
			return isa.RegNone, 0, err
		}
		off = int32(imm)
		if inner[i] == '-' {
			off = -off
		}
		inner = strings.TrimSpace(inner[:i])
	}
	r, err := p.reg(line, inner)
	return r, off, err
}

func (p *parser) intImm(line int, s string) (uint32, error) {
	s = strings.TrimPrefix(s, "#")
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil || v > (1<<32)-1 || v < -(1<<31) {
		return 0, p.errf(line, "bad integer immediate %q", s)
	}
	return uint32(v), nil
}

func (p *parser) floatImm(line int, s string) (float32, error) {
	s = strings.TrimPrefix(s, "#")
	s = strings.TrimSuffix(s, "f")
	v, err := strconv.ParseFloat(s, 32)
	if err != nil {
		return 0, p.errf(line, "bad float immediate %q", s)
	}
	return float32(v), nil
}

func (p *parser) label(lbl map[string]Label, line int, s string) (Label, error) {
	l, ok := lbl[strings.TrimPrefix(s, "@")]
	if !ok {
		return 0, p.errf(line, "unknown label %q", s)
	}
	return l, nil
}

func (p *parser) sreg(line int, s string) (isa.SpecialReg, error) {
	name := strings.TrimPrefix(s, "%")
	for sr := isa.SpecialReg(0); sr <= isa.SrTid; sr++ {
		if sr.String() == name {
			return sr, nil
		}
	}
	return 0, p.errf(line, "unknown special register %q", s)
}

func (p *parser) cond(line int, suffix string) (isa.Cond, error) {
	for c := isa.CondEQ; c <= isa.CondGE; c++ {
		if c.String() == suffix {
			return c, nil
		}
	}
	return 0, p.errf(line, "bad comparison suffix %q (want eq, ne, lt, le, gt or ge)", suffix)
}

func (p *parser) space(line int, suffix string) (isa.Space, error) {
	for s := isa.SpaceGlobal; s <= isa.SpaceTex; s++ {
		if s.String() == suffix {
			return s, nil
		}
	}
	return 0, p.errf(line, "bad address space %q (want global, shared, const or tex)", suffix)
}
