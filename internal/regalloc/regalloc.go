// Package regalloc performs rotating register allocation for modulo-
// scheduled loops in the style of Rau et al., "Register Allocation for
// Software Pipelined Loops" (PLDI 1992): every value produced per source
// iteration gets a *blade* of consecutive rotating registers whose width is
// the number of kernel iterations the value stays live, and blades are
// packed into the rotating region of each register file. Values updated in
// place (post-incremented address bases, accumulators) and loop invariants
// are assigned static registers instead.
//
// Allocation failure — the paper's trigger for the pipeliner's fallback
// ladder (reduce non-critical load latencies, then raise the II) — is
// reported as *OverflowError.
package regalloc

import (
	"fmt"
	"sort"

	"ltsp/internal/ddg"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/obs"
)

// Kind classifies how a virtual register was allocated.
type Kind uint8

const (
	// KindRotating: the value gets a blade in the rotating region.
	KindRotating Kind = iota
	// KindStatic: in-place updates and loop invariants.
	KindStatic
)

// Alloc is the physical placement of one virtual register.
type Alloc struct {
	Kind Kind
	// Base is the physical register number. For rotating allocations it is
	// the logical register the defining instruction writes; use sites read
	// Base + delta (see UseDelta).
	Base int
	// Width is the blade width in registers (rotating only).
	Width int
}

// Assignment is the result of allocating one scheduled loop.
type Assignment struct {
	// Phys maps each virtual register to its allocation.
	Phys map[ir.Reg]Alloc
	// StagePredBase is the first rotating predicate (p16); stage s is
	// guarded by PR StagePredBase+s.
	StagePredBase int
	// Stats summarizes register consumption for the paper's Sec. 4.5
	// statistics.
	Stats Stats
	// RotInits are initial values that must be placed into rotating
	// registers before loop entry (loop-carried live-in values).
	RotInits []ir.RegInit
}

// Stats counts allocated registers by file.
type Stats struct {
	RotGR, RotFR, RotPR          int // rotating registers consumed (blade widths summed)
	StaticGR, StaticFR, StaticPR int // static registers consumed
	// Spills is the number of prolog/epilog spill+fill pairs forced by
	// static-register pressure beyond the file size (cost paid once per
	// loop execution).
	Spills int
}

// TotalGR returns all general registers the loop consumes.
func (s Stats) TotalGR() int { return s.RotGR + s.StaticGR }

// TotalFR returns all FP registers the loop consumes.
func (s Stats) TotalFR() int { return s.RotFR + s.StaticFR }

// TotalPR returns all predicate registers the loop consumes.
func (s Stats) TotalPR() int { return s.RotPR + s.StaticPR }

// OverflowError reports that the rotating region of a register file cannot
// hold the blades the schedule requires.
type OverflowError struct {
	Class    ir.RegClass
	Need     int
	Capacity int
}

// Error implements error.
func (e *OverflowError) Error() string {
	return fmt.Sprintf("regalloc: rotating %s region overflow: need %d, have %d",
		e.Class, e.Need, e.Capacity)
}

// DefSites maps each register a loop body writes to the index of its first
// defining instruction.
type DefSites map[ir.Reg]int

// DefSitesOf indexes the definitions of l's body in one pass.
func DefSitesOf(l *ir.Loop) DefSites {
	defs := DefSites{}
	var buf []ir.Reg
	for i, in := range l.Body {
		buf = in.AppendDefs(buf[:0])
		for _, d := range buf {
			if _, seen := defs[d]; !seen {
				defs[d] = i
			}
		}
	}
	return defs
}

// UseDelta returns the rotating-register offset a use site adds to the
// defining blade's base: stage(use) + distance - stage(def), where distance
// is 1 when the definition appears at or after the use in program order
// (the use consumes the previous source iteration's value).
func (defs DefSites) UseDelta(s *modsched.Schedule, useID int, r ir.Reg) (int, bool) {
	defID, ok := defs[r]
	if !ok {
		return 0, false
	}
	dist := 0
	if defID >= useID {
		dist = 1
	}
	return s.Stage(useID) + dist - s.Stage(defID), true
}

// Allocate assigns physical registers for the scheduled loop. The graph g
// must be the DDG the schedule was produced from (it supplies the in-place
// classification).
func Allocate(m *machine.Model, g *ddg.Graph, s *modsched.Schedule) (*Assignment, error) {
	l := g.Loop
	asn := &Assignment{
		Phys:          map[ir.Reg]Alloc{},
		StagePredBase: 16,
	}
	inPlace := g.InPlaceRegs()

	// Gather virtual registers: defined-in-body vs invariant (setup-only).
	type vreg struct {
		r     ir.Reg
		defID int
	}
	var defined []vreg
	defs := DefSitesOf(l)
	seen := map[ir.Reg]bool{}
	var buf []ir.Reg
	for i, in := range l.Body {
		buf = in.AppendDefs(buf[:0])
		for _, d := range buf {
			if !d.Virtual || seen[d] {
				continue
			}
			seen[d] = true
			defined = append(defined, vreg{d, i})
		}
	}
	var invariant []ir.Reg
	for _, in := range l.Body {
		buf = in.AppendUses(buf[:0])
		for _, u := range buf {
			if u.Virtual && !seen[u] {
				seen[u] = true
				invariant = append(invariant, u)
			}
		}
	}
	sort.Slice(invariant, func(a, b int) bool {
		if invariant[a].Class != invariant[b].Class {
			return invariant[a].Class < invariant[b].Class
		}
		return invariant[a].N < invariant[b].N
	})

	// Blade widths for rotating candidates.
	type blade struct {
		v     vreg
		width int
		// loExt extends the blade below the definition register so the
		// pre-loop initial value of a loop-carried live-in (placed at
		// def-1+... = base+1 of the extended blade) rotates into the right
		// place: the value a stage-s consumer reads at kernel iteration
		// s+1 must sit s registers below where it will be read.
		loExt   int
		hasInit bool
	}
	var blades []blade
	var statics []vreg
	for _, v := range defined {
		if _, ip := inPlace[v.r]; ip {
			statics = append(statics, v)
			continue
		}
		maxDelta := 0
		carried := false
		for i, in := range l.Body {
			buf = in.AppendUses(buf[:0])
			for _, u := range buf {
				if u != v.r {
					continue
				}
				d, _ := defs.UseDelta(s, i, v.r)
				if d < 0 {
					return nil, fmt.Errorf("regalloc: %s: negative rotation delta %d for %s at body[%d]",
						l.Name, d, v.r, i)
				}
				if d > maxDelta {
					maxDelta = d
				}
				if v.defID >= i {
					carried = true
				}
			}
		}
		b := blade{v: v, width: maxDelta + 1}
		if _, hasInit := l.InitValue(v.r); hasInit && carried {
			b.hasInit = true
			b.loExt = s.Stage(v.defID)
		}
		blades = append(blades, b)
	}

	// Pack blades. Stage predicates occupy the first Stages slots of the
	// rotating PR region.
	next := map[ir.RegClass]int{
		ir.ClassGR: 32,
		ir.ClassFR: 32,
		ir.ClassPR: 16 + s.Stages,
	}
	capacity := map[ir.RegClass]int{
		ir.ClassGR: 32 + m.RotGR,
		ir.ClassFR: 32 + m.RotFR,
		ir.ClassPR: 16 + m.RotPR,
	}
	sort.SliceStable(blades, func(a, b int) bool { return blades[a].v.defID < blades[b].v.defID })
	for _, b := range blades {
		lo := next[b.v.r.Class]
		base := lo + b.loExt // the register the definition writes
		total := b.loExt + b.width
		if lo+total > capacity[b.v.r.Class] {
			return nil, &OverflowError{
				Class:    b.v.r.Class,
				Need:     lo + total - (capacity[b.v.r.Class] - rotSize(m, b.v.r.Class)),
				Capacity: rotSize(m, b.v.r.Class),
			}
		}
		asn.Phys[b.v.r] = Alloc{Kind: KindRotating, Base: base, Width: b.width}
		next[b.v.r.Class] = lo + total
		switch b.v.r.Class {
		case ir.ClassGR:
			asn.Stats.RotGR += total
		case ir.ClassFR:
			asn.Stats.RotFR += total
		case ir.ClassPR:
			asn.Stats.RotPR += total
		}
		// Loop-carried live-in: the pre-loop initial value is placed at
		// lo+1 == base+1-stage(def); after stage(def)+s rotations it is
		// read at base+delta by the stage-s consumer of source iteration
		// 0 (see the derivation in interp's package comment).
		if b.hasInit {
			init, _ := l.InitEntry(b.v.r)
			init.Reg = ir.Reg{Class: b.v.r.Class, N: lo + 1}
			asn.RotInits = append(asn.RotInits, init)
		}
	}
	asn.Stats.RotPR += s.Stages // stage predicates are rotating PRs too

	// Static assignment: in-place defs first, then invariants.
	staticNext := map[ir.RegClass]int{
		ir.ClassGR: 1, // r0 is hardwired zero
		ir.ClassFR: 2, // f0/f1 are constants
		ir.ClassPR: 1, // p0 is hardwired true
	}
	staticCap := map[ir.RegClass]int{
		ir.ClassGR: 1 + m.StaticGR,
		ir.ClassFR: 2 + m.StaticFR,
		ir.ClassPR: 1 + m.StaticPR,
	}
	assignStatic := func(r ir.Reg) error {
		n := staticNext[r.Class]
		if n >= staticCap[r.Class] {
			return fmt.Errorf("regalloc: %s: static %s register file exhausted (%d in use)",
				l.Name, r.Class, n)
		}
		asn.Phys[r] = Alloc{Kind: KindStatic, Base: n}
		staticNext[r.Class] = n + 1
		switch r.Class {
		case ir.ClassGR:
			asn.Stats.StaticGR++
		case ir.ClassFR:
			asn.Stats.StaticFR++
		case ir.ClassPR:
			asn.Stats.StaticPR++
		}
		return nil
	}
	sort.SliceStable(statics, func(a, b int) bool { return statics[a].defID < statics[b].defID })
	for _, v := range statics {
		if err := assignStatic(v.r); err != nil {
			return nil, err
		}
	}
	for _, r := range invariant {
		if err := assignStatic(r); err != nil {
			return nil, err
		}
	}
	return asn, nil
}

// AllocateTraced is Allocate plus decision-trace emission: one
// obs.RegallocEvent per attempt, tagged with the schedule's II and whether
// the pipeliner had already reduced latencies to base (the fallback
// ladder's first rung) when it asked for this allocation.
func AllocateTraced(m *machine.Model, g *ddg.Graph, s *modsched.Schedule, tr *obs.Trace, reduced bool) (*Assignment, error) {
	asn, err := Allocate(m, g, s)
	if tr.On() {
		ev := obs.RegallocEvent{II: s.II, Reduced: reduced, OK: err == nil}
		if err != nil {
			ev.Err = err.Error()
		} else {
			ev.RotGR, ev.RotFR, ev.RotPR = asn.Stats.RotGR, asn.Stats.RotFR, asn.Stats.RotPR
			ev.Static = asn.Stats.StaticGR + asn.Stats.StaticFR + asn.Stats.StaticPR
		}
		tr.Emit(ev)
	}
	return asn, err
}

func rotSize(m *machine.Model, c ir.RegClass) int {
	switch c {
	case ir.ClassGR:
		return m.RotGR
	case ir.ClassFR:
		return m.RotFR
	case ir.ClassPR:
		return m.RotPR
	}
	return 0
}
