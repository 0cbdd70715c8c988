"""Per-ISA def/use and side-effect model of decoded instructions.

Every decoded instruction (``x86.insn.Instr`` / ``ppc.insn.PPCInstr``)
is mapped to an :class:`InsnEffects` record: the architectural
*resources* it reads and writes, whether it touches memory, how it
terminates (or does not terminate) a basic block, and whether it can
fault on its own.  The x86 table below is keyed by the decoder's
``execute`` function object, so it stays mechanically in sync with
the decode tables — an instruction the decoder can produce but the
table does not know is a hard error, not a silent default.  The ppc
effects are derived from the bodies of :mod:`repro.ppc.isa`, the same
source the step and block cores execute.

Resource vocabulary (the liveness domain):

* x86 — the eight 32-bit GPRs by name (``eax`` … ``edi``; 8/16-bit
  accesses alias their parent register) plus ``eflags``, meaning the
  arithmetic condition flags as one unit.  Partial updates (an 8/16-bit
  register write; ``inc``, ``bt``, ``clc``… on the flags) are modelled
  read-modify-write so they never kill liveness; system bits (IF, NT)
  are *not* part of the resource, so ``cli``/``sti`` neither use nor
  define it.
* ppc — ``r0`` … ``r31``, ``lr``, ``ctr``, ``xer``, and the eight
  condition fields ``cr0`` … ``cr7`` as separate resources.  A write
  that may leave part of the old value in place (XER's carry bit; a
  link written on only one path) is a use too, for the same reason.

Supervisor state (segment registers, control registers, MSR, unnamed
SPRs — see :mod:`repro.machine.register_semantics`) is outside the
liveness domain; instructions touching it set ``system`` and are
never dead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, List, Optional, Tuple, Union, cast,
)

from repro.x86 import decoder as xdec
from repro.x86.insn import Instr
from repro.x86.registers import GPR_NAMES
from repro.ppc import isa
from repro.ppc.insn import PPCInstr

# -- block-terminator kinds -------------------------------------------------

#: straight-line; execution continues at the next instruction
KIND_FALL = "fall"
#: unconditional direct jump (successor: target only)
KIND_JUMP = "jump"
#: conditional direct branch (successors: target + fallthrough)
KIND_BRANCH = "branch"
#: direct call (successor: fallthrough; target is another function)
KIND_CALL = "call"
#: indirect call through a register/memory value (successor: fallthrough)
KIND_CALL_INDIRECT = "call-indirect"
#: function return (no intra-function successor)
KIND_RET = "ret"
#: indirect jump (successors statically unknown)
KIND_JUMP_INDIRECT = "jump-indirect"
#: architecturally guaranteed fault (ud2, undefined encodings)
KIND_ILLEGAL = "illegal"
#: halts the processor (no successor)
KIND_HALT = "halt"

#: kinds that end a basic block
TERMINATOR_KINDS = frozenset({
    KIND_JUMP, KIND_BRANCH, KIND_CALL, KIND_CALL_INDIRECT,
    KIND_RET, KIND_JUMP_INDIRECT, KIND_ILLEGAL, KIND_HALT,
})

MASK32 = 0xFFFFFFFF

EFLAGS = "eflags"

X86_RESOURCES: Tuple[str, ...] = GPR_NAMES + (EFLAGS,)

PPC_RESOURCES: Tuple[str, ...] = isa.GPRS + ("lr", "ctr", "xer") + isa.CRS

_EMPTY: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class InsnEffects:
    """Architectural effect summary of one decoded instruction."""

    uses: FrozenSet[str] = _EMPTY
    defs: FrozenSet[str] = _EMPTY
    reads_mem: bool = False
    writes_mem: bool = False
    kind: str = KIND_FALL
    #: statically known branch/call target (``None`` for indirect)
    target: Optional[int] = None
    #: can fault architecturally without any corruption (traps,
    #: privileged checks, alignment, divide error, …)
    may_fault: bool = False
    #: reads or writes supervisor state outside the liveness domain
    system: bool = False

    @property
    def is_terminator(self) -> bool:
        return self.kind in TERMINATOR_KINDS


class UnknownInstructionError(LookupError):
    """The effect table has no entry for this execute function."""


# ---------------------------------------------------------------------------
# x86
# ---------------------------------------------------------------------------

def _xr(reg: int, width: int) -> str:
    """Canonical GPR resource for a register operand of a given width.

    8-bit registers 4-7 are ah/ch/dh/bh and alias eax..ebx.
    """
    if width == 1 and reg >= 4:
        return GPR_NAMES[reg - 4]
    return GPR_NAMES[reg]


def _partial(reg: int, width: int) -> FrozenSet[str]:
    """A sub-word register write merges into its parent register."""
    return frozenset({_xr(reg, width)}) if width < 4 else _EMPTY


def _x_mem_uses(i: Instr) -> set:
    uses = set()
    if i.base >= 0:
        uses.add(GPR_NAMES[i.base])
    if i.index >= 0:
        uses.add(GPR_NAMES[i.index])
    return uses


def _x_rel_target(i: Instr, addr: int) -> int:
    # cpu.eip at execute time is the next instruction's address
    return (addr + i.length + i.imm) & MASK32


_XFX = Dict[Callable, Callable[[Instr, int], InsnEffects]]
_X86_EFFECTS: _XFX = {}


def _x86(fn: Callable) -> Callable:
    def register(handler: Callable[[Instr, int], InsnEffects]) -> Callable:
        _X86_EFFECTS[fn] = handler
        return handler
    return register


def _alu_family(i: Instr, dest_rm: bool, has_reg_operand: bool) -> InsnEffects:
    """Shared shape of alu_rm_r / alu_r_rm / grp1_rm_imm.

    ``i.reg`` is a register operand only for the two-register forms;
    for grp1 it carries the modrm /op digit and must be ignored.
    """
    uses = _x_mem_uses(i)
    defs = {EFLAGS}
    reads = writes = False
    if i.op2 in (xdec.ALU_ADC, xdec.ALU_SBB):
        uses.add(EFLAGS)
    writeback = i.op2 != xdec.ALU_CMP
    if i.rm_reg >= 0:
        uses.add(_xr(i.rm_reg, i.width))
        if dest_rm and writeback:
            defs.add(_xr(i.rm_reg, i.width))
    else:
        reads = True
        if dest_rm and writeback:
            writes = True
    if has_reg_operand:
        uses.add(_xr(i.reg, i.width))
        if not dest_rm and writeback:
            defs.add(_xr(i.reg, i.width))
    return InsnEffects(frozenset(uses), frozenset(defs), reads, writes,
                       may_fault=reads or writes)


@_x86(xdec.exec_alu_rm_r)
def _(i: Instr, addr: int) -> InsnEffects:
    return _alu_family(i, dest_rm=True, has_reg_operand=True)


@_x86(xdec.exec_alu_r_rm)
def _(i: Instr, addr: int) -> InsnEffects:
    return _alu_family(i, dest_rm=False, has_reg_operand=True)


@_x86(xdec.exec_alu_a_imm)
def _(i: Instr, addr: int) -> InsnEffects:
    acc = _xr(0, i.width)
    uses = {acc}
    if i.op2 in (xdec.ALU_ADC, xdec.ALU_SBB):
        uses.add(EFLAGS)
    defs = {EFLAGS}
    if i.op2 != xdec.ALU_CMP:
        defs.add(acc)
    return InsnEffects(frozenset(uses), frozenset(defs))


@_x86(xdec.exec_grp1_rm_imm)
def _(i: Instr, addr: int) -> InsnEffects:
    return _alu_family(i, dest_rm=True, has_reg_operand=False)


@_x86(xdec.exec_test_rm_r)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i) | {_xr(i.reg, i.width)}
    reads = i.rm_reg < 0
    if not reads:
        uses.add(_xr(i.rm_reg, i.width))
    return InsnEffects(frozenset(uses), frozenset({EFLAGS}), reads,
                       may_fault=reads)


@_x86(xdec.exec_test_a_imm)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({_xr(0, i.width)}), frozenset({EFLAGS}))


@_x86(xdec.exec_mov_rm_r)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i) | {_xr(i.reg, i.width)}
    if i.rm_reg >= 0:
        return InsnEffects(frozenset(uses | _partial(i.rm_reg, i.width)),
                           frozenset({_xr(i.rm_reg, i.width)}))
    return InsnEffects(frozenset(uses), _EMPTY, writes_mem=True,
                       may_fault=True)


@_x86(xdec.exec_mov_r_rm)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i)
    reads = i.rm_reg < 0
    if not reads:
        uses.add(_xr(i.rm_reg, i.width))
    uses |= _partial(i.reg, i.width)
    return InsnEffects(frozenset(uses), frozenset({_xr(i.reg, i.width)}),
                       reads, may_fault=reads)


@_x86(xdec.exec_mov_r_imm)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(_partial(i.reg, i.width),
                       frozenset({_xr(i.reg, i.width)}))


@_x86(xdec.exec_mov_rm_imm)
def _(i: Instr, addr: int) -> InsnEffects:
    if i.rm_reg >= 0:
        return InsnEffects(_partial(i.rm_reg, i.width),
                           frozenset({_xr(i.rm_reg, i.width)}))
    return InsnEffects(frozenset(_x_mem_uses(i)), _EMPTY, writes_mem=True,
                       may_fault=True)


def _x_load_to_reg(i: Instr, src_width: int) -> InsnEffects:
    uses = _x_mem_uses(i)
    reads = i.rm_reg < 0
    if not reads:
        uses.add(_xr(i.rm_reg, src_width))
    return InsnEffects(frozenset(uses), frozenset({_xr(i.reg, 4)}),
                       reads, may_fault=reads)


@_x86(xdec.exec_movzx)
def _(i: Instr, addr: int) -> InsnEffects:
    return _x_load_to_reg(i, i.op2)


@_x86(xdec.exec_movsx)
def _(i: Instr, addr: int) -> InsnEffects:
    return _x_load_to_reg(i, i.op2)


@_x86(xdec.exec_lea)
def _(i: Instr, addr: int) -> InsnEffects:
    if i.rm_reg >= 0:      # undefined: lea with register rm faults
        return InsnEffects(kind=KIND_ILLEGAL, may_fault=True)
    return InsnEffects(frozenset(_x_mem_uses(i)),
                       frozenset({_xr(i.reg, 4)}))


@_x86(xdec.exec_moffs_load)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(_EMPTY, frozenset({_xr(0, i.width)}),
                       reads_mem=True, may_fault=True)


@_x86(xdec.exec_moffs_store)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({_xr(0, i.width)}), _EMPTY,
                       writes_mem=True, may_fault=True)


@_x86(xdec.exec_xchg_r_rm)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i) | {_xr(i.reg, i.width)}
    defs = {_xr(i.reg, i.width)}
    if i.rm_reg >= 0:
        uses.add(_xr(i.rm_reg, i.width))
        defs.add(_xr(i.rm_reg, i.width))
        return InsnEffects(frozenset(uses), frozenset(defs))
    return InsnEffects(frozenset(uses), frozenset(defs), True, True,
                       may_fault=True)


@_x86(xdec.exec_xchg_eax_r)
def _(i: Instr, addr: int) -> InsnEffects:
    pair = frozenset({"eax", GPR_NAMES[i.reg]})
    return InsnEffects(pair, pair)


@_x86(xdec.exec_cdq)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({"eax"}), frozenset({"edx"}))


@_x86(xdec.exec_cwde)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({"eax"}), frozenset({"eax"}))


@_x86(xdec.exec_push_r)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({GPR_NAMES[i.reg], "esp"}),
                       frozenset({"esp"}), writes_mem=True, may_fault=True)


@_x86(xdec.exec_pop_r)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({"esp"}),
                       frozenset({GPR_NAMES[i.reg], "esp"}),
                       reads_mem=True, may_fault=True)


@_x86(xdec.exec_push_imm)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({"esp"}), frozenset({"esp"}),
                       writes_mem=True, may_fault=True)


@_x86(xdec.exec_pop_rm)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i) | {"esp"}
    defs = {"esp"}
    writes = False
    if i.rm_reg >= 0:
        defs.add(GPR_NAMES[i.rm_reg])
    else:
        writes = True
    return InsnEffects(frozenset(uses), frozenset(defs), True, writes,
                       may_fault=True)


@_x86(xdec.exec_pushfd)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({EFLAGS, "esp"}), frozenset({"esp"}),
                       writes_mem=True, may_fault=True)


@_x86(xdec.exec_popfd)
def _(i: Instr, addr: int) -> InsnEffects:
    # restores system bits (IF, NT) too: mark as system state
    return InsnEffects(frozenset({"esp"}), frozenset({EFLAGS, "esp"}),
                       reads_mem=True, may_fault=True, system=True)


@_x86(xdec.exec_leave)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({"ebp"}), frozenset({"esp", "ebp"}),
                       reads_mem=True, may_fault=True)


@_x86(xdec.exec_inc_r)
def _(i: Instr, addr: int) -> InsnEffects:
    # inc/dec preserve CF: read-modify-write of the flag resource
    return InsnEffects(frozenset({GPR_NAMES[i.reg], EFLAGS}),
                       frozenset({GPR_NAMES[i.reg], EFLAGS}))


@_x86(xdec.exec_dec_r)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({GPR_NAMES[i.reg], EFLAGS}),
                       frozenset({GPR_NAMES[i.reg], EFLAGS}))


@_x86(xdec.exec_grp5)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i)
    rm_is_reg = i.rm_reg >= 0
    if i.op2 in (0, 1):            # inc/dec r/m (CF preserved)
        uses.add(EFLAGS)
        defs = {EFLAGS}
        if rm_is_reg:
            uses.add(_xr(i.rm_reg, i.width))
            defs.add(_xr(i.rm_reg, i.width))
            return InsnEffects(frozenset(uses), frozenset(defs))
        return InsnEffects(frozenset(uses), frozenset(defs), True, True,
                           may_fault=True)
    if i.op2 == 2:                 # call r/m
        if rm_is_reg:
            uses.add(GPR_NAMES[i.rm_reg])
        uses.add("esp")
        return InsnEffects(frozenset(uses), frozenset({"esp"}),
                           reads_mem=not rm_is_reg, writes_mem=True,
                           kind=KIND_CALL_INDIRECT, may_fault=True)
    if i.op2 == 4:                 # jmp r/m
        if rm_is_reg:
            uses.add(GPR_NAMES[i.rm_reg])
        return InsnEffects(frozenset(uses), _EMPTY,
                           reads_mem=not rm_is_reg,
                           kind=KIND_JUMP_INDIRECT, may_fault=True)
    if i.op2 == 6:                 # push r/m
        if rm_is_reg:
            uses.add(GPR_NAMES[i.rm_reg])
        uses.add("esp")
        return InsnEffects(frozenset(uses), frozenset({"esp"}),
                           reads_mem=not rm_is_reg, writes_mem=True,
                           may_fault=True)
    return InsnEffects(kind=KIND_ILLEGAL, may_fault=True)


@_x86(xdec.exec_ret)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({"esp"}), frozenset({"esp"}),
                       reads_mem=True, kind=KIND_RET, may_fault=True)


@_x86(xdec.exec_call_rel)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({"esp"}), frozenset({"esp"}),
                       writes_mem=True, kind=KIND_CALL,
                       target=_x_rel_target(i, addr), may_fault=True)


@_x86(xdec.exec_jmp_rel)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(kind=KIND_JUMP, target=_x_rel_target(i, addr))


@_x86(xdec.exec_jcc)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({EFLAGS}), _EMPTY, kind=KIND_BRANCH,
                       target=_x_rel_target(i, addr))


@_x86(xdec.exec_grp2)
def _(i: Instr, addr: int) -> InsnEffects:
    op = i.op2 & 7
    uses = _x_mem_uses(i)
    if (i.op2 >> 3) == 2:          # count in CL
        uses.add("ecx")
    if op in (2, 3, 6):            # rcl/rcr/undefined shift: faults
        # after reading its count and operand
        return InsnEffects(frozenset(uses), reads_mem=i.rm_reg < 0,
                           kind=KIND_ILLEGAL, may_fault=True)
    defs = {EFLAGS}
    reads = writes = False
    if i.rm_reg >= 0:
        uses.add(_xr(i.rm_reg, i.width))
        defs.add(_xr(i.rm_reg, i.width))
    else:
        reads = writes = True
    # count may be zero (flags untouched): model flags as RMW
    uses.add(EFLAGS)
    return InsnEffects(frozenset(uses), frozenset(defs), reads, writes,
                       may_fault=reads)


@_x86(xdec.exec_grp3)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i)
    reads = i.rm_reg < 0
    if not reads:
        uses.add(_xr(i.rm_reg, i.width))
    defs = set()
    writes = False
    fault = reads
    if i.op2 in (0, 1):            # test r/m, imm
        defs.add(EFLAGS)
    elif i.op2 == 2:               # not (no flags)
        if i.rm_reg >= 0:
            defs.add(_xr(i.rm_reg, i.width))
        else:
            writes = True
    elif i.op2 == 3:               # neg
        defs.add(EFLAGS)
        if i.rm_reg >= 0:
            defs.add(_xr(i.rm_reg, i.width))
        else:
            writes = True
    elif i.op2 in (4, 5):          # mul/imul: eax (and edx when 32-bit)
        uses.add(_xr(0, i.width))
        defs.add(_xr(0, i.width))
        if i.width == 4:
            defs.add("edx")
    else:                          # div/idiv: can raise divide error
        uses.add(_xr(0, i.width))
        defs.add(_xr(0, i.width))
        if i.width == 4:
            uses.add("edx")
            defs.add("edx")
        fault = True
    return InsnEffects(frozenset(uses), frozenset(defs), reads, writes,
                       may_fault=fault)


@_x86(xdec.exec_imul_r_rm)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i) | {_xr(i.reg, i.width)}
    reads = i.rm_reg < 0
    if not reads:
        uses.add(_xr(i.rm_reg, i.width))
    return InsnEffects(frozenset(uses), frozenset({_xr(i.reg, i.width)}),
                       reads, may_fault=reads)


@_x86(xdec.exec_imul_rmi)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i)
    reads = i.rm_reg < 0
    if not reads:
        uses.add(_xr(i.rm_reg, i.width))
    uses |= _partial(i.reg, i.width)
    return InsnEffects(frozenset(uses), frozenset({_xr(i.reg, i.width)}),
                       reads, may_fault=reads)


@_x86(xdec.exec_nop)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects()


def _flag_rmw(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({EFLAGS}), frozenset({EFLAGS}))


_X86_EFFECTS[xdec.exec_clc] = _flag_rmw
_X86_EFFECTS[xdec.exec_stc] = _flag_rmw
_X86_EFFECTS[xdec.exec_cmc] = _flag_rmw


@_x86(xdec.exec_ud2)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(kind=KIND_ILLEGAL, may_fault=True)


@_x86(xdec.exec_invalid)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(kind=KIND_ILLEGAL, may_fault=True)


@_x86(xdec.exec_int)
def _(i: Instr, addr: int) -> InsnEffects:
    # int 0x80 raises SYSCALL; anything else may GP-fault or invoke a
    # real handler.  Either way it leaves straight-line flow.
    return InsnEffects(may_fault=True, system=True)


@_x86(xdec.exec_int3)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(system=True)


@_x86(xdec.exec_into)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({EFLAGS}), _EMPTY, may_fault=True)


@_x86(xdec.exec_iret)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({"esp", EFLAGS}),
                       frozenset({"esp", EFLAGS}), reads_mem=True,
                       kind=KIND_RET, may_fault=True, system=True)


@_x86(xdec.exec_hlt)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(kind=KIND_HALT, system=True)


@_x86(xdec.exec_cli)
def _(i: Instr, addr: int) -> InsnEffects:
    # IF is not part of the eflags liveness resource
    return InsnEffects(system=True)


@_x86(xdec.exec_sti)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(system=True)


@_x86(xdec.exec_bound)
def _(i: Instr, addr: int) -> InsnEffects:
    if i.rm_reg >= 0:
        return InsnEffects(kind=KIND_ILLEGAL, may_fault=True)
    uses = _x_mem_uses(i) | {GPR_NAMES[i.reg]}
    return InsnEffects(frozenset(uses), _EMPTY, reads_mem=True,
                       may_fault=True)


@_x86(xdec.exec_push_sreg)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({"esp"}), frozenset({"esp"}),
                       writes_mem=True, may_fault=True, system=True)


@_x86(xdec.exec_pop_sreg)
def _(i: Instr, addr: int) -> InsnEffects:
    return InsnEffects(frozenset({"esp"}), frozenset({"esp"}),
                       reads_mem=True, may_fault=True, system=True)


@_x86(xdec.exec_mov_sreg_rm)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i)
    reads = i.rm_reg < 0
    if not reads:
        uses.add(_xr(i.rm_reg, 2))
    return InsnEffects(frozenset(uses), _EMPTY, reads,
                       may_fault=True, system=True)


@_x86(xdec.exec_mov_rm_sreg)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i)
    if i.rm_reg >= 0:
        return InsnEffects(frozenset(uses),
                           frozenset({GPR_NAMES[i.rm_reg]}), system=True)
    return InsnEffects(frozenset(uses), _EMPTY, writes_mem=True,
                       may_fault=True, system=True)


@_x86(xdec.exec_mov_cr)
def _(i: Instr, addr: int) -> InsnEffects:
    gpr = GPR_NAMES[i.rm_reg if i.rm_reg >= 0 else 0]
    if i.op2 == 0:                 # mov r32, crN
        return InsnEffects(_EMPTY, frozenset({gpr}), system=True)
    # mov crN, r32: can flip paging/PE — full system write
    return InsnEffects(frozenset({gpr}), _EMPTY, may_fault=True,
                       system=True)


@_x86(xdec.exec_movs)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = {"esi", "edi"}
    defs = {"esi", "edi"}
    if i.op2:                      # rep
        uses.add("ecx")
        defs.add("ecx")
    return InsnEffects(frozenset(uses), frozenset(defs), True, True,
                       may_fault=True)


@_x86(xdec.exec_stos)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = {"edi", "eax"}
    defs = {"edi"}
    if i.op2:
        uses.add("ecx")
        defs.add("ecx")
    return InsnEffects(frozenset(uses), frozenset(defs), False, True,
                       may_fault=True)


@_x86(xdec.exec_setcc)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i) | {EFLAGS}
    if i.rm_reg >= 0:
        return InsnEffects(frozenset(uses | _partial(i.rm_reg, 1)),
                           frozenset({_xr(i.rm_reg, 1)}))
    return InsnEffects(frozenset(uses), _EMPTY, writes_mem=True,
                       may_fault=True)


@_x86(xdec.exec_cmovcc)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i) | {EFLAGS}
    reads = i.rm_reg < 0
    if not reads:
        uses.add(_xr(i.rm_reg, i.width))
    # conditional write: destination keeps its old value when the
    # condition fails, so the def is also a use
    dest = _xr(i.reg, i.width)
    uses.add(dest)
    return InsnEffects(frozenset(uses), frozenset({dest}), reads,
                       may_fault=reads)


def _bt_family(i: Instr, bit_from_reg: bool) -> InsnEffects:
    uses = _x_mem_uses(i) | {EFLAGS}
    if bit_from_reg:
        uses.add(_xr(i.reg, 4))
    defs = {EFLAGS}                # CF only: modelled RMW via uses
    reads = writes = False
    if i.rm_reg >= 0:
        uses.add(_xr(i.rm_reg, 4))
        if i.op2:
            defs.add(_xr(i.rm_reg, 4))
    else:
        reads = True
        writes = bool(i.op2)
    return InsnEffects(frozenset(uses), frozenset(defs), reads, writes,
                       may_fault=reads)


@_x86(xdec.exec_bt)
def _(i: Instr, addr: int) -> InsnEffects:
    return _bt_family(i, bit_from_reg=True)


@_x86(xdec.exec_bt_imm)
def _(i: Instr, addr: int) -> InsnEffects:
    return _bt_family(i, bit_from_reg=False)


def _bscan(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i) | {EFLAGS}
    reads = i.rm_reg < 0
    if not reads:
        uses.add(_xr(i.rm_reg, 4))
    dest = _xr(i.reg, 4)
    uses.add(dest)                 # unwritten when the source is zero
    return InsnEffects(frozenset(uses), frozenset({dest, EFLAGS}), reads,
                       may_fault=reads)


_X86_EFFECTS[xdec.exec_bsf] = _bscan
_X86_EFFECTS[xdec.exec_bsr] = _bscan


@_x86(xdec.exec_shld)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i) | {_xr(i.reg, 4), EFLAGS}
    defs = {EFLAGS}
    reads = writes = False
    if i.rm_reg >= 0:
        uses.add(_xr(i.rm_reg, 4))
        defs.add(_xr(i.rm_reg, 4))
    else:
        reads = writes = True
    return InsnEffects(frozenset(uses), frozenset(defs), reads, writes,
                       may_fault=reads)


@_x86(xdec.exec_xadd)
def _(i: Instr, addr: int) -> InsnEffects:
    uses = _x_mem_uses(i) | {_xr(i.reg, i.width)}
    defs = {_xr(i.reg, i.width), EFLAGS}
    reads = writes = False
    if i.rm_reg >= 0:
        uses.add(_xr(i.rm_reg, i.width))
        defs.add(_xr(i.rm_reg, i.width))
    else:
        reads = writes = True
    return InsnEffects(frozenset(uses), frozenset(defs), reads, writes,
                       may_fault=reads)


@_x86(xdec.exec_cmpxchg)
def _(i: Instr, addr: int) -> InsnEffects:
    acc = _xr(0, i.width)
    uses = _x_mem_uses(i) | {acc, _xr(i.reg, i.width)}
    defs = {acc, EFLAGS}
    reads = writes = False
    if i.rm_reg >= 0:
        uses.add(_xr(i.rm_reg, i.width))
        defs.add(_xr(i.rm_reg, i.width))
    else:
        reads = writes = True
    return InsnEffects(frozenset(uses), frozenset(defs), reads, writes,
                       may_fault=reads)


# ---------------------------------------------------------------------------
# ppc: derived from the instruction table
# ---------------------------------------------------------------------------


def _effect_name(node: ast.Name) -> Optional[ast.expr]:
    return isa.static_names(node) or ast.Name(f"x_{node.id}", node.ctx)


def _value(node: ast.AST) -> str:
    """Effect-function source for a static or loop-index expression."""
    return isa.rename(node, _effect_name)


class _PPCEffects:
    """Source of one row's effect function, read off its body: register
    operands read are uses, register operands written are defs, helper
    calls carry their roles.  Static ifs stay ifs (resolved per decoded
    instruction); a def on only one side of a runtime if may leave the
    old value in place, so it is also a use."""

    def __init__(self, op: isa.Op) -> None:
        self.lines = ["def effects(i, addr):",
                      "    cia = addr",
                      "    nia = (addr + 4) & 4294967295",
                      "    u = set(); d = set(); f = set(); tg = None"]
        self.sets = 0
        self.block(op.body, 1, "d")
        self.lines.append(
            "    return InsnEffects(frozenset(u), frozenset(d), "
            "'reads_mem' in f, 'writes_mem' in f, kind(i), tg, "
            "'may_fault' in f, 'system' in f)")

    def w(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def block(self, stmts: List[ast.stmt], depth: int, defs: str) -> None:
        self.w(depth, "pass")
        for s in stmts:
            if isinstance(s, ast.If) and isa.is_static(s.test):
                self.w(depth, f"if {_value(s.test)}:")
                self.block(s.body, depth + 1, defs)
                self.w(depth, "else:")
                self.block(s.orelse, depth + 1, defs)
            elif isinstance(s, ast.If):
                self.reads(s.test, depth)
                sides = []
                for branch in (s.body, s.orelse):
                    self.sets += 1
                    sides.append(f"s{self.sets}")
                    self.w(depth, f"{sides[-1]} = set()")
                    self.block(branch, depth, sides[-1])
                self.w(depth, f"{defs} |= {sides[0]} | {sides[1]}")
                self.w(depth, f"u |= {sides[0]} ^ {sides[1]}")
            elif isinstance(s, ast.For):
                self.w(depth, f"for {_value(s.target)} in {_value(s.iter)}:")
                self.block(s.body, depth + 1, defs)
            elif isinstance(s, ast.Assign):
                self.reads(s.value, depth)
                self.writes(s.targets[0], depth, defs)
            elif isinstance(s, ast.Expr):
                self.reads(s.value, depth)
            elif not (isinstance(s, ast.AugAssign)
                      and ast.unparse(s.target) == "cycles"):
                raise ValueError(f"no effect rule for {ast.unparse(s)!r}")

    def reads(self, node: ast.AST, depth: int) -> None:
        for sub in ast.walk(node):
            name = isa.helper(sub)
            if isinstance(sub, ast.Name) and sub.id in isa.REGS:
                self.w(depth, f"u.update({isa.REGS[sub.id][2]})")
            elif isinstance(sub, ast.Subscript) and _is_gpr(sub):
                self.w(depth, f"u.add(GPRS[{_value(sub.slice)}])")
            elif isinstance(sub, ast.Call) and name is not None:
                roles = isa.HELPERS[name][1].split()
                if roles:
                    self.w(depth, f"f.update({roles!r})")
                if name == "branch" and ast.unparse(sub.args[0]) == "target":
                    self.w(depth, f"tg = {_value(sub.args[0])}")

    def writes(self, target: ast.expr, depth: int, defs: str) -> None:
        if isinstance(target, ast.Name) and target.id in isa.REGS:
            self.w(depth, f"{defs}.update({isa.REGS[target.id][2]})")
        elif isinstance(target, ast.Name) and target.id in isa.FIELDS:
            self.w(depth, f"{defs}.add(CRS[{isa.FIELDS[target.id]}])")
        elif isinstance(target, ast.Subscript) and _is_gpr(target):
            self.w(depth, f"{defs}.add(GPRS[{_value(target.slice)}])")


def _is_gpr(node: ast.Subscript) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id == "gpr"


def _ppc_effects(op: isa.Op) -> Callable[[PPCInstr, int], InsnEffects]:
    kind = op.kind if op.kind is not None else (lambda i: KIND_FALL)
    ns = dict(isa.NS, InsnEffects=InsnEffects, kind=kind)
    exec(compile("\n".join(_PPCEffects(op).lines), f"<effects {op.name}>",
                 "exec"), ns)
    return cast(Callable[[PPCInstr, int], InsnEffects], ns["effects"])


#: effect function per row, generated on first use
_PPC_EFFECT_FNS: Dict[isa.Op, Callable[[PPCInstr, int], InsnEffects]] = {}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def insn_effects(insn: Union[Instr, PPCInstr], addr: int) -> InsnEffects:
    """Effect summary for a decoded instruction at ``addr``.

    Raises :class:`UnknownInstructionError` when the instruction's
    execute function has no table entry — that means the decoder
    learned a new instruction and this model must be extended.
    """
    if isinstance(insn, Instr):
        handler = _X86_EFFECTS.get(insn.execute)
        if handler is not None:
            return handler(insn, addr)
    else:
        op = isa.BY_EXECUTE.get(insn.execute)
        if op is not None:
            ppc = _PPC_EFFECT_FNS.get(op)
            if ppc is None:
                ppc = _PPC_EFFECT_FNS[op] = _ppc_effects(op)
            return ppc(insn, addr)
    raise UnknownInstructionError(
        f"no effect model for {insn.mnemonic!r} "
        f"({getattr(insn.execute, '__name__', insn.execute)})")


def resources_for(arch: str) -> Tuple[str, ...]:
    """The liveness resource vocabulary of an architecture."""
    if arch == "x86":
        return X86_RESOURCES
    if arch == "ppc":
        return PPC_RESOURCES
    raise ValueError(f"unknown arch {arch!r}")
