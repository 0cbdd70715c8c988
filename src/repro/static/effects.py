"""Per-ISA def/use and side-effect model of decoded instructions.

Every decoded instruction (``x86.insn.Instr`` / ``ppc.insn.PPCInstr``)
is mapped to an :class:`InsnEffects` record: the architectural
*resources* it reads and writes, whether it touches memory, how it
terminates (or does not terminate) a basic block, and whether it can
fault on its own.  Both architectures derive it from the bodies of
their instruction tables (:mod:`repro.x86.isa`, :mod:`repro.ppc.isa`),
the same source the decoder, the step core and the block core use: a
decoded instruction's ``execute`` function names its row, and an
instruction with no row is a hard error, not a silent default.

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

from repro.x86 import isa as xisa
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


class _X86Effects:
    """One row's effects for one kind of decoded instruction (its r/m
    form and the outcome of its static ifs), read off the resolved
    body: operands read are uses, operands written are defs, helper
    calls carry their roles.  An operand read after the body wrote it
    is not a use; a def on only one side of a runtime if (or in a loop
    body) may leave the old value in place, so it is also a use.  The
    operands stay symbolic until :meth:`function` compiles the code
    that names the registers of one instruction."""

    def __init__(self, op: xisa.Op, stmts: List[ast.stmt],
                 mem: bool) -> None:
        self.mem = mem
        self.uses: List[str] = []
        self.defs: List[str] = []
        self.roles: set = set()
        self.target = False
        self.kind = op.kind
        self.block(stmts, self.defs)

    def use(self, name: str) -> None:
        name = "flags" if name in ("cf", "cond") else name
        if name not in self.defs and name not in self.uses:
            self.uses.append(name)

    def block(self, stmts: List[ast.stmt], defs: List[str]) -> None:
        for s in stmts:
            if isinstance(s, (ast.If, ast.For)):
                self.reads(s.test if isinstance(s, ast.If) else s.iter,
                           defs)
                sides: List[List[str]] = [[], []]
                self.block(s.body, sides[0])
                self.block(s.orelse, sides[1])
                for name in sides[0] + sides[1]:
                    if (name in sides[0]) != (name in sides[1]):
                        self.use(name)
                for name in sides[0] + sides[1]:
                    if name not in defs:
                        defs.append(name)
            elif isinstance(s, ast.Assign):
                self.reads(s.value, defs)
                self.write(s.targets[0], defs)
            elif isinstance(s, ast.AugAssign):
                if ast.unparse(s.target) != "cycles":
                    self.reads(s.value, defs)
                    self.write(s.target, defs, merge=True)
            elif isinstance(s, ast.Expr):
                self.reads(s.value, defs)
            elif not isinstance(s, ast.Pass):
                raise ValueError(f"no effect rule for {ast.unparse(s)!r}")

    def operand(self, name: str, access: str) -> bool:
        """Note a memory or supervisor access; True when *name* is a
        register operand (a liveness resource)."""
        if name == "ea" or (self.mem and name in xisa.MEMORY):
            self.use("ea")
            if name != "ea":
                self.roles.update((access, "may_fault"))
            return False
        if name in xisa.STATE and xisa.STATE[name][2]:
            self.roles.add("system")
            if access == "writes_mem" and name in ("sreg", "cr"):
                self.roles.add("may_fault")     # a checked load
            return False
        return name in xisa.STATE or name in xisa.GPR_OPERANDS

    def reads(self, node: ast.AST, defs: List[str]) -> None:
        """Operands an expression reads, then its helpers' roles."""
        calls = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and \
                    self.operand(sub.id, "reads_mem"):
                self.use(sub.id)
            name = xisa.helper(sub)
            if name is not None:
                calls.append((name, cast(ast.Call, sub)))
        for name, call in calls:
            roles = xisa.HELPERS[name][1].split()
            if "stack" in roles:
                self.use("esp")
                defs.append("esp")
            if "merges_flags" in roles:
                self.use("flags")
            if "sets_flags" in roles or "merges_flags" in roles:
                defs.append("flags")
            self.roles.update(r for r in roles if "flags" not in r
                              and r != "stack")
            if name == "branch":
                # a computed target may fault on its fetch
                if ast.unparse(call.args[0]) == "target":
                    self.target = True
                else:
                    self.roles.add("may_fault")

    def write(self, target: ast.expr, defs: List[str],
              merge: bool = False) -> None:
        """An assignment to *target*; *merge* for ``op=``, which reads
        it too."""
        if not isinstance(target, ast.Name) or \
                not self.operand(target.id, "writes_mem"):
            return
        name = target.id
        if merge:
            self.use(name)
        elif name == "flags":
            self.roles.add("system")        # restores IF, NT, ... too
        if name not in defs:
            defs.append(name)

    def function(self) -> Callable[[Instr, int], InsnEffects]:
        """``effects(i, addr)``, naming the registers of one
        instruction."""
        def resource(name: str) -> str:
            if name in xisa.STATE:
                return repr(EFLAGS)
            number, width = xisa.GPR_OPERANDS[name]
            return f"GPR_NAMES[{number}]" if width == "4" \
                else f"_xr({number}, {width})"

        uses = [resource(name) for name in self.uses if name != "ea"]
        lines = ["def effects(i, addr):",
                 f"    u = {{{', '.join(uses)}}}" if uses else "    u = set()"]
        if "ea" in self.uses:
            lines.append("    u |= _x_mem_uses(i)")
        for name in self.defs:                  # a sub-word write merges
            width = xisa.GPR_OPERANDS.get(name, ("", "4"))[1]
            if width != "4":
                lines.append(f"    if {width} < 4: u.add({resource(name)})")
        defs = ", ".join(resource(name) for name in self.defs)
        default = KIND_ILLEGAL if "illegal" in self.roles else KIND_FALL
        kind = f"kind(i) or {default!r}" if self.kind else repr(default)
        target = "_x_rel_target(i, addr)" if self.target else "None"
        flags = ", ".join(str(role in self.roles) for role in (
            "reads_mem", "writes_mem"))
        faults = ", ".join(str(role in self.roles) for role in (
            "may_fault", "system"))
        lines.append(f"    return InsnEffects(frozenset(u), "
                     f"frozenset(({defs}{',' if defs else ''})), {flags}, "
                     f"{kind}, {target}, {faults})")
        ns = {"GPR_NAMES": GPR_NAMES, "_xr": _xr, "_x_mem_uses": _x_mem_uses,
              "_x_rel_target": _x_rel_target, "InsnEffects": InsnEffects,
              "kind": self.kind}
        exec(compile("\n".join(lines), "<x86 effects>", "exec"), ns)
        return cast(Callable[[Instr, int], InsnEffects], ns["effects"])


#: effect function per (row, key), built on first use
_X86_EFFECT_FNS: Dict[tuple, Callable[[Instr, int], InsnEffects]] = {}


def _x86_effects(op: xisa.Op, i: Instr, addr: int) -> InsnEffects:
    key = (op, op.key(i))
    effects = _X86_EFFECT_FNS.get(key)
    if effects is None:
        effects = _X86_EFFECT_FNS[key] = _X86Effects(
            op, op.resolved(i), i.rm_reg < 0).function()
    return effects(i, addr)


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
        x86 = xisa.BY_EXECUTE.get(insn.execute)
        if x86 is not None:
            return _x86_effects(x86, insn, addr)
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
