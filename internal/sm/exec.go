package sm

import (
	"github.com/wirsim/wir/internal/chaos"
	"github.com/wirsim/wir/internal/core"
	"github.com/wirsim/wir/internal/isa"
)

// execute performs the functional work of a non-control instruction at issue
// time: operand values are read from the architectural register state, the
// result is computed (memory operations access the functional store), and
// per-lane merge semantics for divergent writes are applied. Timing proceeds
// separately through the pipeline stages. It returns the operand values for
// the profiling hook; the slice aliases per-SM scratch and is only valid
// until the next issued instruction.
func (s *SM) execute(wc *warpCtx, fl *core.Flight) []isa.Vec {
	in := fl.In
	w := fl.Warp
	srcs := s.srcScratch[:in.NSrc]
	for i := 0; i < in.NSrc; i++ {
		s.eng.RegValueInto(&srcs[i], w, in.Src[i])
	}
	// Every vector-result opcode below merges inactive lanes from fl.OldDst;
	// a freshly pooled flight holds a zero OldDst for the dst-less ones.
	if in.HasDst() {
		s.eng.RegValueInto(&fl.OldDst, w, in.Dst)
	}

	switch in.Op {
	case isa.OpS2R:
		fl.Result = s.specialVec(wc, in.SReg)
		for i := 0; i < isa.WarpSize; i++ {
			if !fl.Mask.Active(i) {
				fl.Result[i] = fl.OldDst[i]
			}
		}
		fl.HasResult = true
	case isa.OpISetP, isa.OpFSetP:
		a := &srcs[0]
		var b isa.Vec
		if in.NSrc > 1 {
			b = srcs[1]
		} else if in.HasImm {
			for i := range b {
				b[i] = in.Imm
			}
		}
		var m isa.Mask
		for i := 0; i < isa.WarpSize; i++ {
			if isa.Compare(in.Op, in.Cond, a[i], b[i]) {
				m |= 1 << uint(i)
			}
		}
		// Inactive lanes keep their previous predicate bit.
		prev := wc.preds[in.PDst]
		wc.preds[in.PDst] = (prev &^ fl.Mask) | (m & fl.Mask)
	case isa.OpSel:
		p := wc.preds[in.PDst]
		fl.Result = fl.OldDst
		for i := 0; i < isa.WarpSize; i++ {
			if fl.Mask.Active(i) {
				if p.Active(i) {
					fl.Result[i] = srcs[0][i]
				} else {
					fl.Result[i] = srcs[1][i]
				}
			}
		}
		fl.HasResult = true
	case isa.OpLd:
		s.executeLoad(wc, fl, &srcs[0])
	case isa.OpSt:
		s.executeStore(wc, fl, &srcs[0], &srcs[1])
	default:
		isa.ExecVecInto(&fl.Result, in, srcs, &fl.OldDst, fl.Mask)
		fl.HasResult = true
		if s.chaos.RollOperandBit() && s.chaos.FlipBit(srcs, fl.Mask) {
			clean := fl.Result
			isa.ExecVecInto(&fl.Result, in, srcs, &fl.OldDst, fl.Mask)
			// Value-changing is settled at retire: a reuse hit replaces the
			// corrupted result with the donor's clean value (see ChaosDirty).
			fl.ChaosDirty = fl.Result != clean
			if !fl.ChaosDirty {
				s.chaos.Note(chaos.OperandBit, false)
			}
		}
	}
	return srcs
}

// specialVec materializes a per-lane special register value.
func (s *SM) specialVec(wc *warpCtx, sr isa.SpecialReg) isa.Vec {
	b := s.blocks[wc.block]
	info := b.info
	var v isa.Vec
	for lane := 0; lane < isa.WarpSize; lane++ {
		lin := wc.inBlock*isa.WarpSize + lane
		var x uint32
		switch sr {
		case isa.SrTidX:
			x = uint32(lin % info.DimX)
		case isa.SrTidY:
			x = uint32(lin / info.DimX % maxi(info.DimY, 1))
		case isa.SrTidZ:
			x = uint32(lin / (info.DimX * maxi(info.DimY, 1)))
		case isa.SrCtaidX:
			x = uint32(info.BlockX)
		case isa.SrCtaidY:
			x = uint32(info.BlockY)
		case isa.SrCtaidZ:
			x = uint32(info.BlockZ)
		case isa.SrNtidX:
			x = uint32(info.DimX)
		case isa.SrNtidY:
			x = uint32(maxi(info.DimY, 1))
		case isa.SrNtidZ:
			x = uint32(maxi(info.DimZ, 1))
		case isa.SrNctaidX:
			x = uint32(info.GridX)
		case isa.SrNctaidY:
			x = uint32(maxi(info.GridY, 1))
		case isa.SrNctaidZ:
			x = uint32(maxi(info.GridZ, 1))
		case isa.SrLaneID:
			x = uint32(lane)
		case isa.SrWarpID:
			x = uint32(wc.inBlock)
		case isa.SrTid:
			x = uint32(lin)
		}
		v[lane] = x
	}
	return v
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// laneAddrInto computes the per-lane byte addresses of a memory instruction
// into *dst.
func laneAddrInto(dst *isa.Vec, base *isa.Vec, in *isa.Instr) {
	if !in.HasImm {
		*dst = *base
		return
	}
	for i := range base {
		dst[i] = base[i] + in.Imm
	}
}

// executeLoad reads memory functionally and prepares the timing descriptors
// (coalesced line list or scratchpad conflict degree). The result is built
// in place over fl.OldDst's lane image, so inactive lanes merge without an
// extra vector copy.
func (s *SM) executeLoad(wc *warpCtx, fl *core.Flight, addrBase *isa.Vec) {
	in := fl.In
	var addrs isa.Vec
	laneAddrInto(&addrs, addrBase, in)
	fl.Result = fl.OldDst
	out := &fl.Result
	switch in.Space {
	case isa.SpaceShared:
		sh := s.blocks[wc.block].shared
		for i := 0; i < isa.WarpSize; i++ {
			if fl.Mask.Active(i) {
				out[i] = sharedLoad(sh, addrs[i])
			}
		}
		fl.MemConflicts = s.bankConflicts(addrs, fl.Mask)
	case isa.SpaceGlobal:
		// The per-SM path can serve a chaos-staled L1D line; the golden
		// model reads through LoadGlobal and sees the truth.
		s.ms.LoadGlobalWarp(s.ID, &addrs, fl.Mask, out)
		fl.MemLines = coalesceInto(fl.MemLines[:0], addrs, fl.Mask, s.ms.LineBytes())
	case isa.SpaceConst:
		for i := 0; i < isa.WarpSize; i++ {
			if fl.Mask.Active(i) {
				out[i] = s.ms.LoadConst(addrs[i] &^ 3)
			}
		}
		fl.MemLines = coalesceInto(fl.MemLines[:0], addrs, fl.Mask, s.ms.LineBytes())
	case isa.SpaceTex:
		for i := 0; i < isa.WarpSize; i++ {
			if fl.Mask.Active(i) {
				out[i] = s.ms.LoadTex(addrs[i] &^ 3)
			}
		}
		fl.MemLines = coalesceInto(fl.MemLines[:0], addrs, fl.Mask, s.ms.LineBytes())
	}
	fl.MemSpace = in.Space
	fl.HasResult = true
}

// executeStore writes memory functionally and prepares timing descriptors.
func (s *SM) executeStore(wc *warpCtx, fl *core.Flight, addrBase, val *isa.Vec) {
	in := fl.In
	var addrs isa.Vec
	laneAddrInto(&addrs, addrBase, in)
	switch in.Space {
	case isa.SpaceShared:
		sh := s.blocks[wc.block].shared
		for i := 0; i < isa.WarpSize; i++ {
			if fl.Mask.Active(i) {
				sharedStore(sh, addrs[i], val[i])
			}
		}
		fl.MemConflicts = s.bankConflicts(addrs, fl.Mask)
	case isa.SpaceGlobal:
		for i := 0; i < isa.WarpSize; i++ {
			if fl.Mask.Active(i) {
				s.ms.StoreGlobal(addrs[i]&^3, val[i])
			}
		}
		fl.MemLines = coalesceInto(fl.MemLines[:0], addrs, fl.Mask, s.ms.LineBytes())
	}
	fl.MemSpace = in.Space
}

func sharedLoad(sh []uint32, addr uint32) uint32 {
	i := addr / 4
	if int(i) >= len(sh) {
		return 0
	}
	return sh[i]
}

func sharedStore(sh []uint32, addr, v uint32) {
	i := addr / 4
	if int(i) < len(sh) {
		sh[i] = v
	}
}

// coalesceInto reduces the active lanes' byte addresses to the set of
// distinct cache lines they touch, in first-appearance order, appending to
// lines (pass the flight's MemLines[:0] so a recycled flight's backing array
// absorbs the appends).
func coalesceInto(lines []uint64, addrs isa.Vec, mask isa.Mask, lineBytes int) []uint64 {
	for i := 0; i < isa.WarpSize; i++ {
		if !mask.Active(i) {
			continue
		}
		l := uint64(addrs[i]) / uint64(lineBytes)
		seen := false
		for _, x := range lines {
			if x == l {
				seen = true
				break
			}
		}
		if !seen {
			lines = append(lines, l)
		}
	}
	return lines
}

// bankConflicts returns the scratchpad serialization degree: the maximum
// number of distinct words the active lanes address within one of the 32
// word-interleaved banks (identical addresses broadcast without conflict).
// The per-bank word sets live in SM scratch (at most one word per lane, so
// 32 per bank bounds them) reused across calls.
func (s *SM) bankConflicts(addrs isa.Vec, mask isa.Mask) int {
	for i := range s.bankLen {
		s.bankLen[i] = 0
	}
	worst := 1
	for i := 0; i < isa.WarpSize; i++ {
		if !mask.Active(i) {
			continue
		}
		word := addrs[i] / 4
		b := word % 32
		n := int(s.bankLen[b])
		dup := false
		for j := 0; j < n; j++ {
			if s.bankWords[b][j] == word {
				dup = true
				break
			}
		}
		if !dup {
			s.bankWords[b][n] = word
			s.bankLen[b] = uint8(n + 1)
			if n+1 > worst {
				worst = n + 1
			}
		}
	}
	return worst
}
