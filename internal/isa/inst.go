package isa

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/arch"
	"repro/internal/descriptor"
)

// StreamCfgPart is the payload of one OpSCfg µOp. A full stream
// configuration is a sequence of parts: the start part (ss.ld.sta/ss.st.sta,
// carrying base address, width, kind and the innermost dimension), zero or
// more appended dimensions or modifiers (ss.app[.mod|.ind]), and a final
// part flagged End (ss.end). Simple 1-D patterns are a single part with both
// Start and End set (plain ss.ld/ss.st, paper Fig 4).
type StreamCfgPart struct {
	Stream int // u register being configured
	Start  bool
	End    bool

	// Start-only fields.
	Kind  descriptor.Kind
	Width arch.ElemWidth
	Level arch.CacheLevel
	Base  uint64 // byte base address of the pattern

	// Dimension payload (valid unless Mod or Ind is set).
	Dim descriptor.Dim

	// Modifier payloads (at most one non-nil; bound to the dimension
	// appended immediately before this part).
	Mod *descriptor.StaticMod
	Ind *descriptor.IndirectMod
}

// Inst is one decoded instruction. Every instruction corresponds to a
// single µOp, per the paper's RISC-style design principle (§III).
type Inst struct {
	Op   Op
	Dst  Reg
	Src1 Reg
	Src2 Reg
	Src3 Reg
	Pred Reg // predicate operand; None means p0 (all lanes active)

	Imm int64
	W   arch.ElemWidth // element width / FP precision

	// Target is the branch destination as an instruction index; the program
	// builder resolves labels into it.
	Target int
	// Label is the unresolved branch destination used during building.
	Label string

	// Cfg is the OpSCfg payload.
	Cfg *StreamCfgPart
}

// Srcs appends the valid source registers of the instruction to dst.
func (i *Inst) Srcs(dst []Reg) []Reg {
	for _, r := range [...]Reg{i.Src1, i.Src2, i.Src3, i.Pred} {
		if r.Class != ClassNone {
			dst = append(dst, r)
		}
	}
	return dst
}

// HasDst reports whether the instruction writes a destination register.
func (i *Inst) HasDst() bool { return i.Dst.Class != ClassNone }

func (i *Inst) String() string {
	var b strings.Builder
	b.WriteString(i.Op.Name())
	if i.W != 0 {
		fmt.Fprintf(&b, ".%s", i.W)
	}
	sep := " "
	for _, r := range [...]Reg{i.Dst, i.Src1, i.Src2, i.Src3} {
		if r.Class != ClassNone {
			b.WriteString(sep)
			b.WriteString(r.String())
			sep = ","
		}
	}
	if i.Op.IsBranch() {
		if i.Label != "" {
			fmt.Fprintf(&b, "%s.%s", sep, i.Label)
		} else {
			fmt.Fprintf(&b, "%s@%d", sep, i.Target)
		}
	} else if i.Imm != 0 {
		fmt.Fprintf(&b, "%s%d", sep, i.Imm)
	}
	if i.Pred.Class != ClassNone {
		fmt.Fprintf(&b, " [%s]", i.Pred)
	}
	if i.Cfg != nil {
		fmt.Fprintf(&b, " {u%d start=%v end=%v}", i.Cfg.Stream, i.Cfg.Start, i.Cfg.End)
	}
	return b.String()
}

// --- constructors: scalar ---

// Nop returns a no-operation instruction.
func Nop() Inst { return Inst{Op: OpNop} }

// Halt terminates the simulated program.
func Halt() Inst { return Inst{Op: OpHalt} }

// Li loads an immediate into an integer register.
func Li(rd Reg, imm int64) Inst { return Inst{Op: OpLi, Dst: rd, Imm: imm} }

// Mv copies an integer register.
func Mv(rd, rs Reg) Inst { return Inst{Op: OpMv, Dst: rd, Src1: rs} }

// Add, Sub, Mul, Div are three-register integer ALU operations.
func Add(rd, rs1, rs2 Reg) Inst { return Inst{Op: OpAdd, Dst: rd, Src1: rs1, Src2: rs2} }
func Sub(rd, rs1, rs2 Reg) Inst { return Inst{Op: OpSub, Dst: rd, Src1: rs1, Src2: rs2} }
func Mul(rd, rs1, rs2 Reg) Inst { return Inst{Op: OpMul, Dst: rd, Src1: rs1, Src2: rs2} }
func Div(rd, rs1, rs2 Reg) Inst { return Inst{Op: OpDiv, Dst: rd, Src1: rs1, Src2: rs2} }

// AddI adds an immediate to an integer register.
func AddI(rd, rs Reg, imm int64) Inst { return Inst{Op: OpAddI, Dst: rd, Src1: rs, Imm: imm} }

// AndI ands an immediate into an integer register.
func AndI(rd, rs Reg, imm int64) Inst { return Inst{Op: OpAndI, Dst: rd, Src1: rs, Imm: imm} }

// SllI and SrlI shift by an immediate.
func SllI(rd, rs Reg, imm int64) Inst { return Inst{Op: OpSllI, Dst: rd, Src1: rs, Imm: imm} }
func SrlI(rd, rs Reg, imm int64) Inst { return Inst{Op: OpSrlI, Dst: rd, Src1: rs, Imm: imm} }

// Slt sets rd to 1 when rs1 < rs2 (signed).
func Slt(rd, rs1, rs2 Reg) Inst { return Inst{Op: OpSlt, Dst: rd, Src1: rs1, Src2: rs2} }

// Branches. The label is resolved by the program builder.
func J(label string) Inst             { return Inst{Op: OpJ, Label: label} }
func Beq(a, b Reg, label string) Inst { return Inst{Op: OpBeq, Src1: a, Src2: b, Label: label} }
func Bne(a, b Reg, label string) Inst { return Inst{Op: OpBne, Src1: a, Src2: b, Label: label} }
func Blt(a, b Reg, label string) Inst { return Inst{Op: OpBlt, Src1: a, Src2: b, Label: label} }
func Bge(a, b Reg, label string) Inst { return Inst{Op: OpBge, Src1: a, Src2: b, Label: label} }

// Load reads mem[rs1+imm] into an integer register (width w, zero-extended).
func Load(w arch.ElemWidth, rd, rs1 Reg, imm int64) Inst {
	return Inst{Op: OpLoad, Dst: rd, Src1: rs1, Imm: imm, W: w}
}

// Store writes integer register data to mem[rs1+imm].
func Store(w arch.ElemWidth, rs1 Reg, imm int64, data Reg) Inst {
	return Inst{Op: OpStore, Src1: rs1, Src3: data, Imm: imm, W: w}
}

// FLoad and FStore are the FP flavors of Load and Store.
func FLoad(w arch.ElemWidth, rd, rs1 Reg, imm int64) Inst {
	return Inst{Op: OpFLoad, Dst: rd, Src1: rs1, Imm: imm, W: w}
}
func FStore(w arch.ElemWidth, rs1 Reg, imm int64, data Reg) Inst {
	return Inst{Op: OpFStore, Src1: rs1, Src3: data, Imm: imm, W: w}
}

// --- constructors: scalar FP ---

// FLi loads an FP immediate.
func FLi(w arch.ElemWidth, rd Reg, v float64) Inst {
	var bits int64
	if w == arch.W4 {
		bits = int64(math.Float32bits(float32(v)))
	} else {
		bits = int64(math.Float64bits(v))
	}
	return Inst{Op: OpFLi, Dst: rd, Imm: bits, W: w}
}

func FMv(w arch.ElemWidth, rd, rs Reg) Inst { return Inst{Op: OpFMv, Dst: rd, Src1: rs, W: w} }
func FAdd(w arch.ElemWidth, rd, a, b Reg) Inst {
	return Inst{Op: OpFAdd, Dst: rd, Src1: a, Src2: b, W: w}
}
func FSub(w arch.ElemWidth, rd, a, b Reg) Inst {
	return Inst{Op: OpFSub, Dst: rd, Src1: a, Src2: b, W: w}
}
func FMul(w arch.ElemWidth, rd, a, b Reg) Inst {
	return Inst{Op: OpFMul, Dst: rd, Src1: a, Src2: b, W: w}
}
func FDiv(w arch.ElemWidth, rd, a, b Reg) Inst {
	return Inst{Op: OpFDiv, Dst: rd, Src1: a, Src2: b, W: w}
}
func FSqrt(w arch.ElemWidth, rd, a Reg) Inst { return Inst{Op: OpFSqrt, Dst: rd, Src1: a, W: w} }
func FMadd(w arch.ElemWidth, rd, a, b, c Reg) Inst {
	return Inst{Op: OpFMadd, Dst: rd, Src1: a, Src2: b, Src3: c, W: w}
}
func FMax(w arch.ElemWidth, rd, a, b Reg) Inst {
	return Inst{Op: OpFMax, Dst: rd, Src1: a, Src2: b, W: w}
}
func FMin(w arch.ElemWidth, rd, a, b Reg) Inst {
	return Inst{Op: OpFMin, Dst: rd, Src1: a, Src2: b, W: w}
}
func FLt(w arch.ElemWidth, rd, a, b Reg) Inst {
	return Inst{Op: OpFLt, Dst: rd, Src1: a, Src2: b, W: w}
}
func ItoF(w arch.ElemWidth, rd, rs Reg) Inst { return Inst{Op: OpItoF, Dst: rd, Src1: rs, W: w} }

// --- constructors: vector ---

// VLoad reads a vector from mem[base + (idx+imm)·w] with unit stride.
func VLoad(w arch.ElemWidth, vd, base, idx Reg, imm int64, pred Reg) Inst {
	return Inst{Op: OpVLoad, Dst: vd, Src1: base, Src2: idx, Imm: imm, W: w, Pred: pred}
}

// VStore writes vector data to mem[base + (idx+imm)·w] with unit stride.
func VStore(w arch.ElemWidth, base, idx Reg, imm int64, data, pred Reg) Inst {
	return Inst{Op: OpVStore, Src1: base, Src2: idx, Src3: data, Imm: imm, W: w, Pred: pred}
}

// VLoadG gathers dst[l] ← mem[base + vidx[l]·w].
func VLoadG(w arch.ElemWidth, vd, base, vidx Reg, pred Reg) Inst {
	return Inst{Op: OpVLoadG, Dst: vd, Src1: base, Src2: vidx, W: w, Pred: pred}
}

// VDup broadcasts an FP scalar to all lanes; VDupX broadcasts an integer.
func VDup(w arch.ElemWidth, vd, fs Reg) Inst  { return Inst{Op: OpVDup, Dst: vd, Src1: fs, W: w} }
func VDupX(w arch.ElemWidth, vd, xs Reg) Inst { return Inst{Op: OpVDupX, Dst: vd, Src1: xs, W: w} }

// VBcast broadcasts lane 0 of a vector register to all lanes — the UVE
// idiom for using a one-element stream chunk as a scalar operand.
func VBcast(w arch.ElemWidth, vd, vs Reg) Inst { return Inst{Op: OpVBcast, Dst: vd, Src1: vs, W: w} }

// VMove copies a vector register (a stream iteration under UVE).
func VMove(w arch.ElemWidth, vd, vs Reg) Inst { return Inst{Op: OpVMove, Dst: vd, Src1: vs, W: w} }

// Vector arithmetic constructors. pred None means all lanes.
func VFAdd(w arch.ElemWidth, vd, a, b, pred Reg) Inst {
	return Inst{Op: OpVFAdd, Dst: vd, Src1: a, Src2: b, W: w, Pred: pred}
}
func VFSub(w arch.ElemWidth, vd, a, b, pred Reg) Inst {
	return Inst{Op: OpVFSub, Dst: vd, Src1: a, Src2: b, W: w, Pred: pred}
}
func VFMul(w arch.ElemWidth, vd, a, b, pred Reg) Inst {
	return Inst{Op: OpVFMul, Dst: vd, Src1: a, Src2: b, W: w, Pred: pred}
}
func VFDiv(w arch.ElemWidth, vd, a, b, pred Reg) Inst {
	return Inst{Op: OpVFDiv, Dst: vd, Src1: a, Src2: b, W: w, Pred: pred}
}
func VFSqrt(w arch.ElemWidth, vd, a Reg) Inst {
	return Inst{Op: OpVFSqrt, Dst: vd, Src1: a, W: w}
}
func VFMax(w arch.ElemWidth, vd, a, b, pred Reg) Inst {
	return Inst{Op: OpVFMax, Dst: vd, Src1: a, Src2: b, W: w, Pred: pred}
}
func VFMin(w arch.ElemWidth, vd, a, b, pred Reg) Inst {
	return Inst{Op: OpVFMin, Dst: vd, Src1: a, Src2: b, W: w, Pred: pred}
}

// VFMla computes vd ← vd + a·b (destructive accumulate, SVE fmla).
func VFMla(w arch.ElemWidth, vd, a, b, pred Reg) Inst {
	return Inst{Op: OpVFMla, Dst: vd, Src1: a, Src2: b, Src3: vd, W: w, Pred: pred}
}

// VFMulAdd computes vd ← a·b + c (non-destructive, UVE vectormad).
func VFMulAdd(w arch.ElemWidth, vd, a, b, c Reg) Inst {
	return Inst{Op: OpVFMulAdd, Dst: vd, Src1: a, Src2: b, Src3: c, W: w}
}

// Horizontal reductions into a single-lane vector destination (UVE style,
// writable to an output stream) or a scalar FP destination (SVE style).
func VFAddV(w arch.ElemWidth, vd, vs Reg) Inst  { return Inst{Op: OpVFAddV, Dst: vd, Src1: vs, W: w} }
func VFMaxV(w arch.ElemWidth, vd, vs Reg) Inst  { return Inst{Op: OpVFMaxV, Dst: vd, Src1: vs, W: w} }
func VFMinV(w arch.ElemWidth, vd, vs Reg) Inst  { return Inst{Op: OpVFMinV, Dst: vd, Src1: vs, W: w} }
func VFAddVF(w arch.ElemWidth, fd, vs Reg) Inst { return Inst{Op: OpVFAddVF, Dst: fd, Src1: vs, W: w} }
func VFMaxVF(w arch.ElemWidth, fd, vs Reg) Inst { return Inst{Op: OpVFMaxVF, Dst: fd, Src1: vs, W: w} }

// --- constructors: predication ---

// Whilelt sets pd lanes l where idx + l < n (SVE whilelt).
func Whilelt(w arch.ElemWidth, pd, idx, n Reg) Inst {
	return Inst{Op: OpWhilelt, Dst: pd, Src1: idx, Src2: n, W: w}
}

// BFirst branches when lane 0 of the predicate is active.
func BFirst(p Reg, label string) Inst { return Inst{Op: OpBFirst, Src1: p, Label: label} }

// IncVL advances a loop index by the lane count for width w (SVE incw).
func IncVL(w arch.ElemWidth, rd, rs Reg) Inst { return Inst{Op: OpIncVL, Dst: rd, Src1: rs, W: w} }

// GetVL reads the lane count for width w.
func GetVL(w arch.ElemWidth, rd Reg) Inst { return Inst{Op: OpGetVL, Dst: rd, W: w} }

// --- constructors: UVE streaming ---

// SCfgParts expands a descriptor into its configuration µOp sequence, one
// instruction per dimension and per modifier, exactly as the UVE assembly
// would (ss.ld.sta / ss.app[.mod|.ind] / ss.end, paper §III-B).
func SCfgParts(stream int, d *descriptor.Descriptor) []Inst {
	if err := d.Validate(); err != nil {
		panic(fmt.Sprintf("SCfgParts u%d: %v", stream, err))
	}
	var parts []*StreamCfgPart
	for i, dim := range d.Dims {
		p := &StreamCfgPart{Stream: stream, Dim: dim}
		if i == 0 {
			p.Start = true
			p.Kind = d.Kind
			p.Width = d.Width
			p.Level = d.Level
			p.Base = d.Base
		}
		parts = append(parts, p)
		for _, m := range d.Static {
			if m.Bound == i {
				mc := m
				parts = append(parts, &StreamCfgPart{Stream: stream, Mod: &mc})
			}
		}
		for _, m := range d.Indirect {
			if m.Bound == i {
				mc := m
				parts = append(parts, &StreamCfgPart{Stream: stream, Ind: &mc})
			}
		}
	}
	// Modifiers bound at or beyond the level count (virtual levels).
	for _, m := range d.Static {
		if m.Bound >= len(d.Dims) {
			mc := m
			parts = append(parts, &StreamCfgPart{Stream: stream, Mod: &mc})
		}
	}
	for _, m := range d.Indirect {
		if m.Bound >= len(d.Dims) {
			mc := m
			parts = append(parts, &StreamCfgPart{Stream: stream, Ind: &mc})
		}
	}
	parts[len(parts)-1].End = true
	out := make([]Inst, len(parts))
	for i, p := range parts {
		out[i] = Inst{Op: OpSCfg, Dst: V(stream), Cfg: p}
	}
	return out
}

// RebuildDescriptor reassembles a descriptor from a configuration part
// sequence; the streaming engine uses it when a stream's final ss.end part
// arrives. Modifier bounds are re-derived from part order.
func RebuildDescriptor(parts []*StreamCfgPart) (*descriptor.Descriptor, error) {
	if len(parts) == 0 || !parts[0].Start {
		return nil, fmt.Errorf("stream config: missing start part")
	}
	// One allocation holds the descriptor and room for its dimensions.
	st := new(struct {
		d    descriptor.Descriptor
		dims [descriptor.MaxDims]descriptor.Dim
	})
	d := &st.d
	d.Base, d.Width, d.Kind, d.Level = parts[0].Base, parts[0].Width, parts[0].Kind, parts[0].Level
	for _, p := range parts {
		switch {
		case p.Mod != nil:
			// Static modifiers bind to the most recently appended dimension.
			m := *p.Mod
			m.Bound = len(d.Dims) - 1
			if m.Bound < 1 {
				return nil, fmt.Errorf("stream config: static modifier before second dimension")
			}
			d.Static = append(d.Static, m)
		case p.Ind != nil:
			// Indirect modifiers carry their bound verbatim: bound 0 is a
			// per-element gather, bound == #dims a virtual outer level;
			// part order alone cannot distinguish the two.
			d.Indirect = append(d.Indirect, *p.Ind)
		default:
			if d.Dims == nil {
				d.Dims = st.dims[:0]
			}
			d.Dims = append(d.Dims, p.Dim)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// SetVL requests an effective vector length of rs lanes (width w); the
// granted lane count (clamped to the physical width) lands in rd. The
// instruction serializes the pipeline (ss.setvl, §III-B Advanced control).
func SetVL(w arch.ElemWidth, rd, rs Reg) Inst {
	return Inst{Op: OpSSetVL, Dst: rd, Src1: rs, W: w}
}

// SSuspend, SResume, SStop control stream u.
func SSuspend(u int) Inst { return Inst{Op: OpSSuspend, Dst: V(u)} }
func SResume(u int) Inst  { return Inst{Op: OpSResume, Dst: V(u)} }
func SStop(u int) Inst    { return Inst{Op: OpSStop, Dst: V(u)} }

// Stream-conditional branches (paper §III-B "Loop control").
func SBNotEnd(u int, label string) Inst { return Inst{Op: OpSBNotEnd, Src1: V(u), Label: label} }
func SBEnd(u int, label string) Inst    { return Inst{Op: OpSBEnd, Src1: V(u), Label: label} }
func SBDimNotEnd(u, dim int, label string) Inst {
	return Inst{Op: OpSBDimNotEnd, Src1: V(u), Imm: int64(dim), Label: label}
}
func SBDimEnd(u, dim int, label string) Inst {
	return Inst{Op: OpSBDimEnd, Src1: V(u), Imm: int64(dim), Label: label}
}
