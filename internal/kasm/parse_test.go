package kasm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/wirsim/wir/internal/isa"
)

// saxpySrc is saxpy with a loop, spelled with both comment styles, a
// label, a predicated backward branch and a .shared directive.
const saxpySrc = `
	// saxpy-with-a-loop: out[i] = 2*in[i] + 1 for i in [0, 8)
	.shared 64
	        movi  r0, #0          ; i
	        movi  r1, #8
	loop:   shl   r2, r0, #2
	        ld.global r3, [r2]
	        fadd  r3, r3, #1.0
	        st.global [r2+64], r3
	        iadd  r0, r0, #1
	        isetp.lt p0, r0, r1
	        bra   p0, loop
	        exit
`

// roundTripSrc covers special registers, a negated forward branch, jmp,
// float immediates, sel and bar.
const roundTripSrc = `
	        s2r   r0, %ctaid.x
	        s2r   r1, %ntid.x
	        s2r   r2, %tid.x
	        imad  r3, r0, r1, r2
	        isetp.ge p1, r3, #16
	        bra   !p1, small
	        jmp   done
	small:  movf  r4, #3.5
	        fmul  r4, r4, r4
	        sel   r5, r4, r3, p1
	done:   bar
	        exit
`

// offsetsSrc spells a load offset in brackets, as an immediate, and
// negative.
const offsetsSrc = "ld.global r0, [r1+8]\nld.global r0, [r1], #8\nld.global r0, [r1-4]\nexit"

// smokeSrc is the kernel the CI wirserve smoke submits.
const smokeSrc = "movi r0, #1\niadd r0, r0, #2\nst.global [r1], r0\nexit"

// parseErrorCases are malformed programs and the diagnostic each must
// produce.
var parseErrorCases = []struct {
	name, src, want string
}{
	{"empty", "\n// nothing\n", "empty program"},
	{"no-exit", "movi r0, #1", "must end with Exit"},
	{"bad-op", "frobnicate r0, r1\nexit", `unknown opcode "frobnicate"`},
	{"bad-reg", "movi r99, #1\nexit", "out of range"},
	{"bad-pred", "isetp.lt p9, r0, #1\nexit", "out of range"},
	{"not-a-pred", "sel r0, r1, r2, r3\nexit", "bad predicate"},
	{"bad-label", "jmp nowhere\nexit", `unknown label "nowhere"`},
	{"dup-label", "a: movi r0, #1\na: exit", `label "a" defined twice`},
	{"bad-imm", "movi r0, #zork\nexit", "bad integer immediate"},
	{"bad-space", "ld.l33t r0, [r1]\nexit", "bad address space"},
	{"bad-cond", "isetp.zz p0, r0, #1\nexit", "bad comparison suffix"},
	{"store-ro", "st.const [r0], r1\nexit", "read-only"},
	{"uncond-bra", "bra top\ntop: exit", "unconditional branch is jmp"},
	{"trailing-label", "movi r0, #1\nexit\nend:", "past the end"},
	{"bad-addr", "ld.global r0, r1\nexit", "must be bracketed"},
	{"empty-addr", "ld.global r0, []\nexit", "bad register"},
	{"bad-directive", ".align 8\nexit", "unknown directive"},
}

// TestParseMatchesBuilder assembles a kernel from text and from the
// programmatic Builder and requires identical code, register counts and
// reconvergence points.
func TestParseMatchesBuilder(t *testing.T) {
	got, err := Parse("saxpy", saxpySrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}

	b := NewBuilder("saxpy")
	b.Shared(64)
	r0, r1, r2, r3 := b.R(), b.R(), b.R(), b.R()
	p0 := b.P()
	loop := b.NewLabel()
	b.MovI(r0, 0)
	b.MovI(r1, 8)
	b.Bind(loop)
	b.ShlI(r2, r0, 2)
	b.Ld(r3, isa.SpaceGlobal, r2, 0)
	b.FAddI(r3, r3, 1.0)
	b.St(isa.SpaceGlobal, r2, r3, 64)
	b.IAddI(r0, r0, 1)
	b.ISetP(p0, isa.CondLT, r0, r1)
	b.BraTo(p0, false, loop)
	b.Exit()
	want := b.MustBuild()

	if got.Regs != want.Regs || got.Preds != want.Preds || got.SharedBytes != want.SharedBytes {
		t.Fatalf("shape mismatch: got regs=%d preds=%d shared=%d, want %d/%d/%d",
			got.Regs, got.Preds, got.SharedBytes, want.Regs, want.Preds, want.SharedBytes)
	}
	if len(got.Code) != len(want.Code) {
		t.Fatalf("got %d instructions, want %d", len(got.Code), len(want.Code))
	}
	for pc := range want.Code {
		if got.Code[pc] != want.Code[pc] {
			t.Errorf("pc %d: got %v, want %v", pc, got.Code[pc], want.Code[pc])
		}
	}
}

// TestParseRoundTripsDisassembly reparses a kernel's own listing lines.
func TestParseRoundTrips(t *testing.T) {
	k, err := Parse("rt", roundTripSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// Reassemble from the disassembly of each instruction: the printed syntax
	// must parse back to the identical program (labels become numeric targets,
	// so rewrite them symbolically).
	var lines []string
	for pc, in := range k.Code {
		s := in.String()
		s = strings.ReplaceAll(s, "$r", "r")
		s = strings.ReplaceAll(s, "$p", "p")
		s = strings.ReplaceAll(s, "@7", "small") // bra/jmp targets in this program
		s = strings.ReplaceAll(s, "@10", "done")
		s = strings.ReplaceAll(s, "@!", "!") // guard prefix: "@!p1 bra" form below
		if strings.HasPrefix(s, "!p1 bra") {
			s = "bra !p1, small"
		}
		prefix := "        "
		switch pc {
		case 7:
			prefix = "small:  "
		case 10:
			prefix = "done:   "
		}
		lines = append(lines, prefix+s)
	}
	k2, err := Parse("rt", strings.Join(lines, "\n"))
	if err != nil {
		t.Fatalf("reparse: %v\nlisting:\n%s", err, strings.Join(lines, "\n"))
	}
	for pc := range k.Code {
		if k.Code[pc] != k2.Code[pc] {
			t.Errorf("pc %d: %v reparsed as %v", pc, k.Code[pc], k2.Code[pc])
		}
	}
}

// TestParseErrors checks that malformed programs fail with line-numbered
// diagnostics rather than panicking or silently mis-assembling.
func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.name, c.src)
			if err == nil {
				t.Fatalf("Parse accepted %q", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestParseOffsets covers the two offset spellings and their conflict.
func TestParseOffsets(t *testing.T) {
	k, err := Parse("offs", offsetsSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if k.Code[0] != k.Code[1] {
		t.Errorf("bracket and immediate offsets differ: %v vs %v", k.Code[0], k.Code[1])
	}
	if int32(k.Code[2].Imm) != -4 {
		t.Errorf("negative offset: got %d", int32(k.Code[2].Imm))
	}
	if _, err := Parse("both", "ld.global r0, [r1+8], #8\nexit"); err == nil || !strings.Contains(err.Error(), "both") {
		t.Fatalf("double offset accepted or wrong error: %v", err)
	}
}

// FuzzParse feeds arbitrary source text to the assembler, the first parser
// on the service's input edge. Parse must never panic and must be
// deterministic, and every kernel it accepts must end in exit with every
// branch target and reconvergence point inside the program.
func FuzzParse(f *testing.F) {
	for _, src := range []string{saxpySrc, roundTripSrc, offsetsSrc, smokeSrc} {
		f.Add(src)
	}
	for _, c := range parseErrorCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Parse("fuzz", src)
		k2, err2 := Parse("fuzz", src)
		if !reflect.DeepEqual(k, k2) || fmt.Sprint(err) != fmt.Sprint(err2) {
			t.Fatalf("Parse is not deterministic:\n%v, %v\n%v, %v", k, err, k2, err2)
		}
		if err != nil {
			return
		}
		n := len(k.Code)
		if n == 0 || k.Code[n-1].Op != isa.OpExit {
			t.Fatalf("accepted kernel does not end in exit: %v", k.Code)
		}
		for pc, in := range k.Code {
			switch in.Op {
			case isa.OpBra:
				if in.Join < 0 || in.Join >= n {
					t.Fatalf("pc %d: join %d outside the %d-instruction program", pc, in.Join, n)
				}
				fallthrough
			case isa.OpJmp:
				if in.Target < 0 || in.Target >= n {
					t.Fatalf("pc %d: target %d outside the %d-instruction program", pc, in.Target, n)
				}
			}
		}
	})
}
