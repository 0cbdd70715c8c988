"""PowerPC superblock code generator.

``generate`` compiles a run of decoded :class:`PPCInstr` objects (or a
region of such runs) through the shared generator of
:mod:`repro.compile.emit`, which lowers each row body of the
:mod:`repro.ppc.isa` table.  This module names what is the G4's, and
replicates its observation points exactly:

* the block text of each register operand (``gpr[3]``, ``(ra|0)``,
  ``cpu.lr``, a CR bit), and the CR fields a compare writes: ``cr`` is
  carried in a local (the PPC analogue of EFLAGS); ``lr``, ``ctr`` and
  ``xer`` stay on the CPU object — they are touched by few
  instructions and always via plain attribute access;
* loads add the +2 misalignment penalty *before* the permission check;
  misaligned stores raise ALIGNMENT before checking, exactly like
  ``cpu.store``.  The access itself is the big-endian soft-TLB
  lowering of :mod:`repro.compile.access`;
* the MSR[DR]-clear trap (``_high_data_fault``) is hoisted into a
  local and tested before the TLB probe: only system instructions can
  change it and they always end a block.  ``translation_on`` never
  changes on this core;
* the block-final branches (BO/BI decomposed at compile time) and
  ``lmw``/``stmw`` (unrolled) are written out here.  Every taken
  branch goes through the BTIC-poisoning check; the poisoned path
  delegates to ``cpu.branch`` so the PROGRAM fault is raised with
  identical attribution.
"""

from __future__ import annotations

from typing import Sequence

from repro.compile.access import load, store
from repro.compile.emit import Gen, Member, instr_key, unit
from repro.ppc import isa
from repro.ppc.exceptions import PPCFault, PPCVector
from repro.ppc.insn import PPCInstr

M = 0xFFFFFFFF

#: register-count-driven loops; cycle cost unbounded per instruction
UNBOUNDED = frozenset()


# ---------------------------------------------------------------------------
# memory access


def _load(g: Gen, width: int, known_aligned: bool = False) -> None:
    """cpu.load(): the MSR[DR] trap, then the +2 misalignment penalty
    before the permission check (skipped when the emitter has proven
    word alignment: lmw), then the shared lowering."""
    g.w("if hdf is not None and a_ >= 2147483648:")
    g.w("    cpu._high_data_trap(a_)")
    if width > 1 and not known_aligned:
        g.w(f"if a_ & {width - 1}:")
        g.w("    cyc += 2")
    load(g, width, known_aligned)


def _store(g: Gen, width: int, value: str,
           known_aligned: bool = False) -> None:
    """cpu.store(): the MSR[DR] trap, then ALIGNMENT for a misaligned
    store before checking — so the access never crosses a page."""
    g.w("if hdf is not None and a_ >= 2147483648:")
    g.w("    cpu._high_data_trap(a_)")
    if width > 1 and not known_aligned:
        g.w(f"if a_ & {width - 1}:")
        g.w(f'    raise PF(ALV, a_, "unaligned {width}-byte store")')
    store(g, width, value, aligned=True)


# -- lmw/stmw -----------------------------------------------------------------


def _multiple_addr(i) -> str:
    if i.ra:
        return f"(gpr[{i.ra}] + {i.imm}) & 4294967295"
    return str(i.imm & M)


def _e_lmw(g, i, a, n, k) -> bool:
    """Unrolled load-multiple: rt..r31, word count known at decode time
    so the cycle cost is bounded (2 per word after the alignment
    check, exactly like the per-word cpu.load calls)."""
    g.entry(a, n, k)
    g.w(f"a_ = {_multiple_addr(i)}")
    g.w("if a_ & 3:")
    g.w('    raise PF(ALV, a_, "lmw operand not aligned")')
    for reg in range(i.rt, 32):
        _load(g, 4, known_aligned=True)
        g.w(f"gpr[{reg}] = v_")
        if reg != 31:
            g.w("a_ = (a_ + 4) & 4294967295")
    g.max_cycles += (32 - i.rt) * 2
    return True


def _e_stmw(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    g.w(f"a_ = {_multiple_addr(i)}")
    g.w("if a_ & 3:")
    g.w('    raise PF(ALV, a_, "stmw operand not aligned")')
    for reg in range(i.rt, 32):
        _store(g, 4, f"gpr[{reg}]", known_aligned=True)
        if reg != 31:
            g.w("a_ = (a_ + 4) & 4294967295")
    g.max_cycles += (32 - i.rt) * 2
    return True


# -- branches (block-final) --------------------------------------------------


def _taken_branch(g: Gen, target: str) -> None:
    """Emit the taken path: BTIC check (cpu.branch raises the PROGRAM
    fault itself when poisoned), then the pc update + 2 cycles."""
    g.w("    if cpu.btic_poisoned:")
    g.w("        cpu.branch(0)")
    g.w(f"    pc = {target}")
    g.w("    cyc += 2")


def _e_b(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    if i.op2 & 1:
        g.w(f"cpu.lr = {n}")
    target = i.imm if i.op2 & 2 else (a + i.imm) & M
    g.w("if cpu.btic_poisoned:")
    g.w("    cpu.branch(0)")
    g.w(f"pc = {target & 0xFFFFFFFC}")
    g.w("cyc += 2")
    g.pc_done = True
    return True


def _bc_cond(g: Gen, bo: int, bi: int) -> str:
    """Decompose _bc_taken for constant bo/bi; emits the CTR decrement
    and returns the taken expression ('True' when unconditional)."""
    conds = []
    if not bo & 0x4:
        g.w("cpu.ctr = (cpu.ctr - 1) & 4294967295")
        conds.append("cpu.ctr == 0" if bo & 0x2 else "cpu.ctr != 0")
    if not bo & 0x10:
        bit = f"(cr >> {31 - (bi & 31)}) & 1"
        conds.append(bit if bo & 0x8 else f"not {bit}")
    return " and ".join(conds) if conds else "True"


def _e_bc(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    if i.op2 & 1:
        g.w(f"cpu.lr = {n}")
    cond = _bc_cond(g, i.rt, i.ra)
    target = i.imm if i.op2 & 2 else (a + i.imm) & M
    g.w(f"if {cond}:")
    _taken_branch(g, str(target & 0xFFFFFFFC))
    if cond != "True":
        g.w("else:")
        g.w(f"    pc = {n}")
    g.pc_done = True
    return True


def _e_bclr(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    cond = _bc_cond(g, i.rt, i.ra)
    g.w(f"tk_ = {cond}")
    g.w("t_ = cpu.lr & 4294967292")
    if i.op2 & 1:
        g.w(f"cpu.lr = {n}")
    g.w("if tk_:")
    _taken_branch(g, "t_")
    g.w("else:")
    g.w(f"    pc = {n}")
    g.pc_done = True
    return True


def _e_bcctr(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    cond = _bc_cond(g, i.rt | 0x4, i.ra)    # bcctr never decrements CTR
    g.w(f"if {cond}:")
    if i.op2 & 1:
        g.w(f"    cpu.lr = {n}")
    g.w("    if cpu.btic_poisoned:")
    g.w("        cpu.branch(0)")
    g.w("    pc = cpu.ctr & 4294967292")
    g.w("    cyc += 2")
    if cond != "True":
        g.w("else:")
        g.w(f"    pc = {n}")
    g.pc_done = True
    return True


class _Gen(Gen):
    little = False
    flags = ("cr", "cr")
    entry_pc = "cpu.pc & 4294967292"
    prologue = ("hdf = cpu._high_data_fault",)
    tag = "ppc-block"
    lang = isa.LANG
    operands = {
        "rt": lambda i, a, n: f"gpr[{i.rt}]",
        "ra": lambda i, a, n: f"gpr[{i.ra}]",
        "rb": lambda i, a, n: f"gpr[{i.rb}]",
        "ra0": lambda i, a, n: f"gpr[{i.ra}]" if i.ra else "0",
        "xer": lambda i, a, n: "cpu.xer",
        "lr": lambda i, a, n: "cpu.lr",
        "ctr": lambda i, a, n: "cpu.ctr",
        "cr": lambda i, a, n: "cr",
        "crbit": lambda i, a, n: f"(cr >> {31 - i.ra} & 1)",
        "spr": lambda i, a, n: f"cpu.{isa.NAMED_SPRS[i.imm]}",
    }
    fields = {name: eval(f"lambda i: 28 - 4 * {field}")
              for name, field in isa.FIELDS.items()}
    final = {"b": _e_b, "bc": _e_bc, "bclr": _e_bclr, "bcctr": _e_bcctr}
    explicit = {"lmw": _e_lmw, "stmw": _e_stmw}
    key = staticmethod(instr_key(PPCInstr, isa.op_of))

    def __init__(self) -> None:
        super().__init__()
        self.ns.update(PF=PPCFault, ALV=PPCVector.ALIGNMENT, int=int)

    def load(self, width: int) -> None:
        _load(self, width)

    def store(self, width: int, value: str) -> None:
        _store(self, width, value)


def generate(members: Sequence[Member]):
    """Compile one superblock, or a region of them, into (fn,
    [max_cycles of each member]); see :func:`repro.compile.emit.unit`."""
    return unit(_Gen(), members)
