// Package interp gives the IR executable semantics: an architectural state
// with Itanium-style rotating register files, predication (including
// cmp.unc clearing semantics, which pipelined kernels rely on to shut down
// stages during fill and drain), sparse byte-addressed memory, and the
// LC/EC counted-loop branches br.cloop and br.ctop.
//
// Rotation model: on every execution of br.ctop the register rename bases
// decrement, so the value in logical register X becomes visible as X+1 in
// the next kernel iteration. The stage predicate injected into p16 is 1
// while new source iterations start (LC > 0) and 0 while the pipeline
// drains.
//
// A loop-carried rotating value with a live-in initial value is placed one
// register above its blade base before the loop: the first consumer of
// source iteration 0 in stage s reads logical base+s+1 at kernel iteration
// s+1, i.e. after s rotations, which is where a pre-loop store to base+1
// has rotated to by then.
package interp

import (
	"fmt"
	"math"

	"ltsp/internal/ir"
)

// Register file geometry (Itanium architectural).
const (
	NumGR   = 128
	NumFR   = 128
	NumPR   = 64
	RotBase = 32 // first rotating GR/FR
	RotPRLo = 16 // first rotating PR
	rotSize = 96 // rotating GR/FR region size
	rotPRSz = 48 // rotating PR region size (p16-p63)
)

// Memory is a sparse, little-endian, byte-addressed memory.
type Memory struct {
	pages map[int64]*[pageSize]byte
	// Reads counts load accesses, Writes store accesses (for tests).
	Reads, Writes int64
}

const pageSize = 4096

// NewMemory returns an empty memory; all bytes read as zero.
func NewMemory() *Memory {
	return &Memory{pages: map[int64]*[pageSize]byte{}}
}

func (m *Memory) page(addr int64, create bool) (*[pageSize]byte, int64) {
	pn := addr >> 12
	p := m.pages[pn]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p, addr & (pageSize - 1)
}

// Load reads size bytes (1, 2, 4 or 8) at addr, zero-extended.
func (m *Memory) Load(addr int64, size int) int64 {
	m.Reads++
	var v uint64
	for i := 0; i < size; i++ {
		p, off := m.page(addr+int64(i), false)
		var b byte
		if p != nil {
			b = p[off]
		}
		v |= uint64(b) << (8 * i)
	}
	return int64(v)
}

// Store writes the low size bytes of val at addr.
func (m *Memory) Store(addr int64, size int, val int64) {
	m.Writes++
	for i := 0; i < size; i++ {
		p, off := m.page(addr+int64(i), true)
		p[off] = byte(uint64(val) >> (8 * i))
	}
}

// LoadF reads a float64 at addr.
func (m *Memory) LoadF(addr int64) float64 {
	return math.Float64frombits(uint64(m.Load(addr, 8)))
}

// StoreF writes a float64 at addr.
func (m *Memory) StoreF(addr int64, v float64) {
	m.Store(addr, 8, int64(math.Float64bits(v)))
}

// Snapshot returns a copy of all touched memory as a map from page number
// to page contents, for state comparison in tests.
func (m *Memory) Snapshot() map[int64][pageSize]byte {
	out := make(map[int64][pageSize]byte, len(m.pages))
	for pn, p := range m.pages {
		out[pn] = *p
	}
	return out
}

// State is the architectural machine state.
type State struct {
	GR  [NumGR]int64
	FR  [NumFR]float64
	PR  [NumPR]bool
	LC  int64 // loop count application register
	EC  int64 // epilog count application register
	Mem *Memory

	// DataRotation controls whether br.ctop rotates the GR/FR rename
	// bases. It models the programmable rotating-region size of the
	// Itanium CFM (alloc ... sor): kernels generated by modulo variable
	// expansion set the rotating data region to zero and use r32+/f32+ as
	// plain registers, while the predicate region always rotates (stage
	// control). Default true.
	DataRotation bool

	rrbGR, rrbFR, rrbPR int

	// pend and effs are Group's scratch, reused from call to call.
	pend pending
	effs []Effect
}

// NewState returns a zeroed state with fresh memory. r0 stays 0, f0 = 0.0,
// f1 = 1.0 and p0 = true are maintained as architectural constants.
func NewState() *State { return NewStateWith(nil) }

// NewStateWith returns a zeroed state, like NewState, over mem, or over
// fresh memory when mem is nil.
func NewStateWith(mem *Memory) *State {
	if mem == nil {
		mem = NewMemory()
	}
	s := &State{Mem: mem, DataRotation: true}
	s.FR[1] = 1.0
	s.PR[0] = true
	return s
}

// RenameGR maps a logical GR number to its physical index under the
// current rotation.
func (s *State) RenameGR(n int) int {
	if n < RotBase {
		return n
	}
	return RotBase + (n-RotBase+s.rrbGR)%rotSize
}

// RenameFR maps a logical FR number to its physical index.
func (s *State) RenameFR(n int) int {
	if n < RotBase {
		return n
	}
	return RotBase + (n-RotBase+s.rrbFR)%rotSize
}

// RenamePR maps a logical PR number to its physical index.
func (s *State) RenamePR(n int) int {
	if n < RotPRLo {
		return n
	}
	return RotPRLo + (n-RotPRLo+s.rrbPR)%rotPRSz
}

// PhysIndex returns the physical register index a logical register operand
// resolves to under the current rotation.
func (s *State) PhysIndex(r ir.Reg) int {
	switch r.Class {
	case ir.ClassGR:
		return s.RenameGR(r.N)
	case ir.ClassFR:
		return s.RenameFR(r.N)
	case ir.ClassPR:
		return s.RenamePR(r.N)
	}
	panic(fmt.Sprintf("interp: PhysIndex of %v", r))
}

func (s *State) readGR(r ir.Reg) int64   { return s.GR[s.RenameGR(r.N)] }
func (s *State) readFR(r ir.Reg) float64 { return s.FR[s.RenameFR(r.N)] }
func (s *State) readPR(r ir.Reg) bool    { return s.PR[s.RenamePR(r.N)] }
func (s *State) writeGR(r ir.Reg, v int64) {
	p := s.RenameGR(r.N)
	if p != 0 {
		s.GR[p] = v
	}
}
func (s *State) writeFR(r ir.Reg, v float64) {
	p := s.RenameFR(r.N)
	if p > 1 {
		s.FR[p] = v
	}
}
func (s *State) writePR(r ir.Reg, v bool) {
	p := s.RenamePR(r.N)
	if p != 0 {
		s.PR[p] = v
	}
}

// PredOn reports whether the instruction's qualifying predicate is true.
func (s *State) PredOn(in *ir.Instr) bool {
	if in.Pred.IsNone() {
		return true
	}
	return s.readPR(in.Pred)
}

// Effect describes what executing one instruction did, for the timing
// simulator.
type Effect struct {
	// Executed is false when the qualifying predicate was off.
	Executed bool
	// IsMem/IsLoad/IsStore/IsPrefetch classify memory activity; Addr is the
	// effective address (before post-increment) and FP marks FP loads.
	IsMem, IsLoad, IsStore, IsPrefetch bool
	Addr                               int64
	FP                                 bool
}

// pending defers register writes so that all instructions issued in the
// same cycle read operands before any of them writes (in-order issue groups
// read at dispersal).
type pending struct {
	gr []struct {
		r ir.Reg
		v int64
	}
	fr []struct {
		r ir.Reg
		v float64
	}
	pr []struct {
		r ir.Reg
		v bool
	}
}

// Group executes the instructions of one issue group with
// reads-before-writes semantics and returns their effects, one per
// instruction. The returned slice is a buffer the state owns: it stays
// valid until the next Group or Exec call on the same state. An
// instruction the interpreter cannot execute (an op outside the
// executable set — reachable from adversarial wire input, so an error
// rather than a panic) aborts the group with no register writes applied.
func (s *State) Group(ins []*ir.Instr) ([]Effect, error) {
	p := &s.pend
	p.gr, p.fr, p.pr = p.gr[:0], p.fr[:0], p.pr[:0]
	s.effs = s.effs[:0]
	for _, in := range ins {
		e, err := s.exec(in, p)
		if err != nil {
			return nil, err
		}
		s.effs = append(s.effs, e)
	}
	for _, w := range p.gr {
		s.writeGR(w.r, w.v)
	}
	for _, w := range p.fr {
		s.writeFR(w.r, w.v)
	}
	for _, w := range p.pr {
		s.writePR(w.r, w.v)
	}
	return s.effs, nil
}

// Exec executes a single instruction immediately (one-instruction group)
// and returns a copy of its effect.
func (s *State) Exec(in *ir.Instr) (Effect, error) {
	ins := [1]*ir.Instr{in}
	e, err := s.Group(ins[:])
	if err != nil {
		return Effect{}, err
	}
	return e[0], nil
}

func (p *pending) defGR(r ir.Reg, v int64) {
	p.gr = append(p.gr, struct {
		r ir.Reg
		v int64
	}{r, v})
}
func (p *pending) defFR(r ir.Reg, v float64) {
	p.fr = append(p.fr, struct {
		r ir.Reg
		v float64
	}{r, v})
}
func (p *pending) defPR(r ir.Reg, v bool) {
	p.pr = append(p.pr, struct {
		r ir.Reg
		v bool
	}{r, v})
}

func (s *State) exec(in *ir.Instr, p *pending) (Effect, error) {
	on := s.PredOn(in)
	// cmp.unc semantics: a predicated-off compare clears both destination
	// predicates. This is what turns consumer instructions off during
	// pipeline fill/drain when their stage's compare did not run.
	if !on {
		switch in.Op {
		case ir.OpCmpEq, ir.OpCmpLt, ir.OpCmpEqI, ir.OpCmpLtI, ir.OpFCmpLt:
			for _, d := range in.Dsts {
				if !d.IsNone() {
					p.defPR(d, false)
				}
			}
		}
		return Effect{}, nil
	}
	eff := Effect{Executed: true}
	switch in.Op {
	case ir.OpNop:
	case ir.OpMovI:
		p.defGR(in.Dsts[0], in.Imm)
	case ir.OpMov:
		p.defGR(in.Dsts[0], s.readGR(in.Srcs[0]))
	case ir.OpAdd:
		p.defGR(in.Dsts[0], s.readGR(in.Srcs[0])+s.readGR(in.Srcs[1]))
	case ir.OpSub:
		p.defGR(in.Dsts[0], s.readGR(in.Srcs[0])-s.readGR(in.Srcs[1]))
	case ir.OpAddI:
		p.defGR(in.Dsts[0], s.readGR(in.Srcs[0])+in.Imm)
	case ir.OpAnd:
		p.defGR(in.Dsts[0], s.readGR(in.Srcs[0])&s.readGR(in.Srcs[1]))
	case ir.OpOr:
		p.defGR(in.Dsts[0], s.readGR(in.Srcs[0])|s.readGR(in.Srcs[1]))
	case ir.OpXor:
		p.defGR(in.Dsts[0], s.readGR(in.Srcs[0])^s.readGR(in.Srcs[1]))
	case ir.OpShlI:
		p.defGR(in.Dsts[0], s.readGR(in.Srcs[0])<<uint(in.Imm&63))
	case ir.OpShrI:
		p.defGR(in.Dsts[0], s.readGR(in.Srcs[0])>>uint(in.Imm&63))
	case ir.OpShladd:
		p.defGR(in.Dsts[0], (s.readGR(in.Srcs[0])<<uint(in.Imm&63))+s.readGR(in.Srcs[1]))
	case ir.OpMul:
		p.defGR(in.Dsts[0], s.readGR(in.Srcs[0])*s.readGR(in.Srcs[1]))
	case ir.OpCmpEq:
		s.compare(in, p, s.readGR(in.Srcs[0]) == s.readGR(in.Srcs[1]))
	case ir.OpCmpLt:
		s.compare(in, p, s.readGR(in.Srcs[0]) < s.readGR(in.Srcs[1]))
	case ir.OpCmpEqI:
		s.compare(in, p, s.readGR(in.Srcs[0]) == in.Imm)
	case ir.OpCmpLtI:
		s.compare(in, p, s.readGR(in.Srcs[0]) < in.Imm)
	case ir.OpFMovI:
		p.defFR(in.Dsts[0], in.FImm)
	case ir.OpFMov:
		p.defFR(in.Dsts[0], s.readFR(in.Srcs[0]))
	case ir.OpFAdd:
		p.defFR(in.Dsts[0], s.readFR(in.Srcs[0])+s.readFR(in.Srcs[1]))
	case ir.OpFSub:
		p.defFR(in.Dsts[0], s.readFR(in.Srcs[0])-s.readFR(in.Srcs[1]))
	case ir.OpFMul:
		p.defFR(in.Dsts[0], s.readFR(in.Srcs[0])*s.readFR(in.Srcs[1]))
	case ir.OpFMA:
		p.defFR(in.Dsts[0], s.readFR(in.Srcs[0])*s.readFR(in.Srcs[1])+s.readFR(in.Srcs[2]))
	case ir.OpFCmpLt:
		s.comparePR(in, p, s.readFR(in.Srcs[0]) < s.readFR(in.Srcs[1]))
	case ir.OpGetF:
		p.defGR(in.Dsts[0], int64(s.readFR(in.Srcs[0])))
	case ir.OpSetF:
		p.defFR(in.Dsts[0], float64(s.readGR(in.Srcs[0])))
	case ir.OpSel:
		if s.readPR(in.Srcs[0]) {
			p.defGR(in.Dsts[0], s.readGR(in.Srcs[1]))
		} else {
			p.defGR(in.Dsts[0], s.readGR(in.Srcs[2]))
		}
	case ir.OpFSel:
		if s.readPR(in.Srcs[0]) {
			p.defFR(in.Dsts[0], s.readFR(in.Srcs[1]))
		} else {
			p.defFR(in.Dsts[0], s.readFR(in.Srcs[2]))
		}
	case ir.OpChk:
		// Data-speculation check: always succeeds in this model (the
		// workloads' speculated dependences never actually alias).
	case ir.OpLd:
		base := in.BaseReg()
		addr := s.readGR(base)
		p.defGR(in.Dsts[0], s.Mem.Load(addr, in.Mem.Size))
		if in.Mem.PostInc != 0 {
			p.defGR(base, addr+in.Mem.PostInc)
		}
		eff.IsMem, eff.IsLoad, eff.Addr = true, true, addr
	case ir.OpLdF:
		base := in.BaseReg()
		addr := s.readGR(base)
		p.defFR(in.Dsts[0], s.Mem.LoadF(addr))
		if in.Mem.PostInc != 0 {
			p.defGR(base, addr+in.Mem.PostInc)
		}
		eff.IsMem, eff.IsLoad, eff.FP, eff.Addr = true, true, true, addr
	case ir.OpSt:
		base := in.BaseReg()
		addr := s.readGR(base)
		s.Mem.Store(addr, in.Mem.Size, s.readGR(in.Srcs[0]))
		if in.Mem.PostInc != 0 {
			p.defGR(base, addr+in.Mem.PostInc)
		}
		eff.IsMem, eff.IsStore, eff.Addr = true, true, addr
	case ir.OpStF:
		base := in.BaseReg()
		addr := s.readGR(base)
		s.Mem.StoreF(addr, s.readFR(in.Srcs[0]))
		if in.Mem.PostInc != 0 {
			p.defGR(base, addr+in.Mem.PostInc)
		}
		eff.IsMem, eff.IsStore, eff.Addr = true, true, addr
	case ir.OpLfetch:
		base := in.BaseReg()
		addr := s.readGR(base)
		if in.Mem.PostInc != 0 {
			p.defGR(base, addr+in.Mem.PostInc)
		}
		eff.IsMem, eff.IsPrefetch, eff.Addr = true, true, addr
	default:
		return Effect{}, fmt.Errorf("interp: cannot execute %v", in.Op)
	}
	return eff, nil
}

func (s *State) compare(in *ir.Instr, p *pending, res bool) { s.comparePR(in, p, res) }

func (s *State) comparePR(in *ir.Instr, p *pending, res bool) {
	if !in.Dsts[0].IsNone() {
		p.defPR(in.Dsts[0], res)
	}
	if !in.Dsts[1].IsNone() {
		p.defPR(in.Dsts[1], !res)
	}
}

// rotate decrements the rename bases (the value in logical X moves to
// logical X+1) and injects the new stage predicate into logical p16. With
// DataRotation off only the predicate file rotates.
func (s *State) rotate(inject bool) {
	if s.DataRotation {
		s.rrbGR = (s.rrbGR - 1 + rotSize) % rotSize
		s.rrbFR = (s.rrbFR - 1 + rotSize) % rotSize
	}
	s.rrbPR = (s.rrbPR - 1 + rotPRSz) % rotPRSz
	s.PR[s.RenamePR(RotPRLo)] = inject
}

// Ctop executes br.ctop: while LC > 0 a new source iteration starts
// (inject 1, branch taken); afterwards the pipeline drains for EC kernel
// iterations (inject 0). The registers rotate on every execution.
func (s *State) Ctop() (taken bool) {
	inject := false
	switch {
	case s.LC > 0:
		s.LC--
		inject = true
		taken = true
	case s.EC > 1:
		s.EC--
		taken = true
	case s.EC == 1:
		s.EC--
		taken = false
	default:
		taken = false
	}
	s.rotate(inject)
	return taken
}

// Wtop executes br.wtop for a kernel-only pipelined while loop: the
// branch is taken while the qualifying predicate — the validity of the
// oldest in-flight source iteration — is still set, and during the fill
// phase (when that slot holds no iteration yet) while EC counts down,
// exactly like the hardware's qp==0 path. The registers rotate on every
// execution and a 0 is injected into p16 (while loops compute their own
// validity chain in software).
func (s *State) Wtop(qp ir.Reg) (taken bool) {
	switch {
	case s.readPR(qp):
		taken = true
	case s.EC > 1:
		s.EC--
		taken = true
	default:
		if s.EC > 0 {
			s.EC--
		}
		taken = false
	}
	s.rotate(false)
	return taken
}

// Cloop executes br.cloop: branch while LC > 0, decrementing it. No
// rotation occurs.
func (s *State) Cloop() (taken bool) {
	if s.LC > 0 {
		s.LC--
		return true
	}
	return false
}

// ApplySetup writes the initial register values. It must be called before
// any rotation (logical and physical numbering coincide).
func (s *State) ApplySetup(inits []ir.RegInit) {
	for _, init := range inits {
		switch init.Reg.Class {
		case ir.ClassGR:
			s.writeGR(init.Reg, init.Val)
		case ir.ClassFR:
			s.writeFR(init.Reg, init.FVal)
		case ir.ClassPR:
			s.writePR(init.Reg, init.Val != 0)
		}
	}
}

// ReadReg returns the integer value of a GR or PR register (predicates as
// 0/1) under current rotation; for FR registers it truncates.
func (s *State) ReadReg(r ir.Reg) int64 {
	switch r.Class {
	case ir.ClassGR:
		return s.readGR(r)
	case ir.ClassPR:
		if s.readPR(r) {
			return 1
		}
		return 0
	case ir.ClassFR:
		return int64(s.readFR(r))
	}
	return 0
}

// ReadRegF returns the FP value of an FR register under current rotation.
func (s *State) ReadRegF(r ir.Reg) float64 { return s.readFR(r) }
