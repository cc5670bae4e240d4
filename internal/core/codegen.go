package core

import (
	"fmt"

	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/modsched"
	"ltsp/internal/regalloc"
)

// GenKernel produces the executable kernel-only pipelined program:
// instructions grouped by kernel slot, virtual registers rewritten to
// physical ones (rotating uses read base+delta), stage predicates attached
// to unpredicated instructions, and setup values mapped to their physical
// homes. It is exported so the verification layer can regenerate code for
// deliberately corrupted schedules in its mutation tests.
func GenKernel(l *ir.Loop, s *modsched.Schedule, asn *regalloc.Assignment) (*interp.Program, error) {
	groups := make([][]*ir.Instr, s.II)
	defs := regalloc.DefSitesOf(l)

	physDef := func(r ir.Reg) (ir.Reg, error) {
		if !r.Virtual {
			return r, nil
		}
		a, ok := asn.Phys[r]
		if !ok {
			return ir.None, fmt.Errorf("core: %s: no allocation for %s", l.Name, r)
		}
		return ir.Reg{Class: r.Class, N: a.Base}, nil
	}
	physUse := func(useID int, r ir.Reg) (ir.Reg, error) {
		if !r.Virtual {
			return r, nil
		}
		a, ok := asn.Phys[r]
		if !ok {
			return ir.None, fmt.Errorf("core: %s: no allocation for %s", l.Name, r)
		}
		if a.Kind == regalloc.KindStatic {
			return ir.Reg{Class: r.Class, N: a.Base}, nil
		}
		delta, ok := defs.UseDelta(s, useID, r)
		if !ok {
			return ir.None, fmt.Errorf("core: %s: rotating %s has no definition", l.Name, r)
		}
		if delta < 0 || delta >= a.Width {
			return ir.None, fmt.Errorf("core: %s: use of %s at body[%d] has delta %d outside blade width %d",
				l.Name, r, useID, delta, a.Width)
		}
		return ir.Reg{Class: r.Class, N: a.Base + delta}, nil
	}

	// In-place (static) registers read by another instruction must be read
	// in the defining instruction's stage: a different stage would observe
	// a different source iteration's value. (Data self-uses only; a
	// qualifying-predicate self-reference rotates.)
	inPlaceDef := map[ir.Reg]int{}
	var buf []ir.Reg
	for i, in := range l.Body {
		buf = in.AppendDefs(buf[:0])
		for _, d := range buf {
			for _, u := range in.Srcs {
				if u == d {
					inPlaceDef[d] = i
				}
			}
		}
	}
	for i, in := range l.Body {
		buf = in.AppendUses(buf[:0])
		for _, u := range buf {
			if d, ok := inPlaceDef[u]; ok && d != i && s.Stage(d) != s.Stage(i) {
				return nil, fmt.Errorf("core: %s: body[%d] reads in-place register %s across stages (def stage %d, use stage %d)",
					l.Name, i, u, s.Stage(d), s.Stage(i))
			}
		}
	}

	for i, in := range l.Body {
		k := in.Clone()
		// Qualifying predicate: the instruction's own (rewritten) predicate
		// if it has one — its producing compare runs under a stage
		// predicate with .unc semantics, so it turns off during fill and
		// drain — otherwise the stage predicate itself.
		if k.Pred.IsNone() {
			k.Pred = ir.PR(asn.StagePredBase + s.Stage(i))
		} else {
			p, err := physUse(i, k.Pred)
			if err != nil {
				return nil, err
			}
			k.Pred = p
		}
		for di, d := range k.Dsts {
			if d.IsNone() {
				continue
			}
			pd, err := physDef(d)
			if err != nil {
				return nil, err
			}
			k.Dsts[di] = pd
		}
		for si, src := range k.Srcs {
			// The base register of a post-incrementing memory op is both
			// read and written; it is in-place static, so physUse and
			// physDef agree.
			pu, err := physUse(i, src)
			if err != nil {
				return nil, err
			}
			k.Srcs[si] = pu
		}
		slot := s.Slot(i)
		groups[slot] = append(groups[slot], k)
	}

	prog := &interp.Program{
		Name:      l.Name,
		Pipelined: true,
		Groups:    groups,
		Stages:    s.Stages,
	}
	// While loops close with br.wtop on the validity of the oldest
	// in-flight iteration: the condition blade's highest-delta register.
	if l.While != nil {
		a, ok := asn.Phys[l.While.Cond]
		if !ok || a.Kind != regalloc.KindRotating {
			return nil, fmt.Errorf("core: %s: while condition %s not allocated rotating", l.Name, l.While.Cond)
		}
		prog.WhileQP = ir.PR(a.Base + a.Width - 1)
	}

	// Setup: map virtual targets to their physical homes. Rotating
	// loop-carried live-ins were already converted by the allocator.
	for _, init := range l.Setup {
		if !init.Reg.Virtual {
			prog.Setup = append(prog.Setup, init)
			continue
		}
		a, ok := asn.Phys[init.Reg]
		if !ok {
			// Initialized but unused register: drop.
			continue
		}
		if a.Kind == regalloc.KindStatic {
			prog.Setup = append(prog.Setup, ir.RegInit{
				Reg: ir.Reg{Class: init.Reg.Class, N: a.Base}, Val: init.Val, FVal: init.FVal,
			})
		}
	}
	prog.Setup = append(prog.Setup, asn.RotInits...)

	for _, r := range l.LiveOut {
		if !r.Virtual {
			prog.LiveOut = append(prog.LiveOut, r)
			continue
		}
		a, ok := asn.Phys[r]
		if !ok || a.Kind != regalloc.KindStatic {
			return nil, fmt.Errorf("core: %s: live-out %s is not in a static register", l.Name, r)
		}
		prog.LiveOut = append(prog.LiveOut, ir.Reg{Class: r.Class, N: a.Base})
	}
	return prog, nil
}
