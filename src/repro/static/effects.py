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
import re
from dataclasses import dataclass
from types import CodeType
from typing import (
    Any, Callable, Dict, FrozenSet, List, Optional, Tuple, Union, cast,
)

from repro.isa.codecache import cached
from repro.isa.table import Operand, Row, rename
from repro.ppc import isa
from repro.ppc.insn import PPCInstr
from repro.x86 import isa as xisa
from repro.x86.insn import Instr
from repro.x86.registers import GPR_NAMES

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
# derived from the instruction tables
# ---------------------------------------------------------------------------


class _Effects:
    """One row's effects for one kind of decoded instruction (its memory
    form and the outcome of its static ifs), read off the resolved body:
    operands read are uses, operands written are defs, helper calls
    carry their roles and the operands they touch.  An operand read
    after the body wrote it is not a use; a def on only one side of a
    runtime if, or in a loop over a runtime range, may leave the old
    value in place, so it is also a use.  A loop over a static range
    (``lmw``'s registers) names every register it touches.  Operands are
    tracked by the text of the resources they name (``rm`` and ``rm32``
    stay apart, ``cf`` and ``flags`` are one), and stay symbolic until
    :meth:`code` names the registers of one instruction."""

    def __init__(self, op: Row, stmts: List[ast.stmt], mem: bool) -> None:
        self.lang = op.lang
        self.mem = mem
        self.uses: List[str] = []
        self.defs: List[str] = []
        #: resources a write may merge into, with the condition over ``i``
        self.partial: List[Tuple[str, str]] = []
        self.roles: set = set()
        self.target = False
        self.kind = op.kind
        #: the static loops around the statement being read
        self.loops: List[Tuple[str, str]] = []
        self.block(stmts, self.defs)

    def use(self, resources: str) -> None:
        if resources not in self.defs and resources not in self.uses:
            self.uses.append(resources)

    def static(self, node: ast.AST) -> str:
        """Effect-function source of a static or loop-index
        expression."""
        return rename(node, lambda name: self.lang.static_names(name)
                      or ast.Name(f"x_{name.id}", name.ctx))

    def block(self, stmts: List[ast.stmt], defs: List[str]) -> None:
        for s in stmts:
            if isinstance(s, ast.For) and self.lang.is_static(s.iter):
                self.loops.append((self.static(s.target),
                                   self.static(s.iter)))
                self.block(s.body, defs)
                self.loops.pop()
            elif isinstance(s, (ast.If, ast.For)):
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

    def resources(self, node: ast.AST) -> Optional[str]:
        """The resources an operand or register-file element names (in
        the static loops around it), or None; notes the roles of a
        memory operand and of supervisor state."""
        lang = self.lang
        if lang.is_file(node):
            index = self.static(cast(ast.Subscript, node).slice)
            text = f"({lang.file_resources}[{index}],)"
        elif self.in_memory(node):
            return lang.operands[lang.address].resources
        elif not isinstance(node, ast.Name):
            return None
        elif node.id in lang.operands:
            text = lang.operands[node.id].resources
        else:
            return None
        for var, iterable in reversed(self.loops):
            if re.search(rf"\b{var}\b", text):
                text = f"tuple(r for {var} in {iterable} for r in {text})"
        return text or None

    def reads(self, node: ast.AST, defs: List[str]) -> None:
        """Operands an expression reads, then its helpers' roles."""
        calls = []
        for sub in ast.walk(node):
            operand = self.operand(sub)
            if operand is not None:
                self.roles.update(operand.roles.split())
            resources = self.resources(sub)
            if resources is not None:
                self.use(resources)
            name = self.lang.helper(sub)
            if name is not None:
                calls.append((name, cast(ast.Call, sub)))
        for name, call in calls:
            helper = self.lang.helpers[name]
            for operand in helper.uses:
                self.use(self.lang.operands[operand].resources)
            defs += [self.lang.operands[operand].resources
                     for operand in helper.defs]
            roles = set(helper.roles.split())
            if name == "branch":
                # a computed target may fault on its fetch
                if ast.unparse(call.args[0]) == "target":
                    self.target = True
                elif "fetch_fault" in roles:
                    roles.add("may_fault")
            self.roles |= roles - {"fetch_fault"}

    def in_memory(self, node: ast.AST) -> bool:
        """True when *node* is a memory operand of a memory form."""
        return self.mem and isinstance(node, ast.Name) \
            and node.id in self.lang.memory

    def operand(self, node: ast.AST) -> Optional[Operand]:
        """The operand *node* names, a memory one in a memory form."""
        return self.lang.operand(node.id, self.mem) \
            if isinstance(node, ast.Name) else None

    def write(self, target: ast.expr, defs: List[str],
              merge: bool = False) -> None:
        """An assignment to *target*; *merge* for ``op=``, which reads
        it too."""
        operand = self.operand(target)
        if operand is not None:
            self.roles.update((operand.roles if merge
                               else operand.write_roles).split())
            if operand.partial:
                self.partial.append((operand.resources, operand.partial))
        resources = self.resources(target)
        if resources is None:
            return
        if merge or self.in_memory(target):
            self.use(resources)         # a store reads only its address
        if not self.in_memory(target) and resources not in defs:
            defs.append(resources)

    def code(self) -> CodeType:
        """The code of ``effects(i, addr)``, naming the registers of
        one instruction."""
        lines = ["def effects(i, addr):"]
        if self.target:
            lines += ["    cia = addr",
                      f"    nia = (addr + {self.lang.length}) & 4294967295"]
        lines.append(f"    u = {{{', '.join(f'*({r})' for r in self.uses)}}}"
                     if self.uses else "    u = set()")
        for resources, condition in self.partial:
            if resources in self.defs:
                lines.append(f"    if {condition}: u.update({resources})")
        defs = ", ".join(f"*({r})" for r in self.defs)
        default = KIND_ILLEGAL if "illegal" in self.roles else KIND_FALL
        kind = f"kind(i) or {default!r}" if self.kind else repr(default)
        target = self.lang.static["target"] if self.target else "None"
        flags = ", ".join(str(role in self.roles) for role in (
            "reads_mem", "writes_mem"))
        faults = ", ".join(str(role in self.roles) for role in (
            "may_fault", "system"))
        lines.append(f"    return InsnEffects(frozenset(u), "
                     f"frozenset(({defs}{',' if defs else ''})), {flags}, "
                     f"{kind}, {target}, {faults})")
        return compile("\n".join(lines), f"<{self.lang.tag} effects>",
                       "exec")


#: every row of both tables, by the step executor it carries
_ROWS: Dict[Callable[..., None], Row] = {**xisa.LANG.rows, **isa.LANG.rows}

#: effect function per (row, key), built on first use
_EFFECT_FNS: Dict[tuple, Callable[[object, int], InsnEffects]] = {}


def _effects(op: Row, i: Any, addr: int) -> InsnEffects:
    key = (op, op.key(i))
    effects = _EFFECT_FNS.get(key)
    if effects is None:
        ns = dict(op.lang.ns, InsnEffects=InsnEffects, kind=op.kind)
        exec(cached(f"<{op.lang.tag} effects>", (op.name,) + key[1],
                    lambda: _Effects(op, op.resolved(i), key[1][0]).code()),
             ns)
        effects = _EFFECT_FNS[key] = cast(
            Callable[[object, int], InsnEffects], ns["effects"])
    return effects(i, addr)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def insn_effects(insn: Union[Instr, PPCInstr], addr: int) -> InsnEffects:
    """Effect summary for a decoded instruction at ``addr``.

    Raises :class:`UnknownInstructionError` when the instruction's
    execute function has no table entry — that means the decoder
    learned a new instruction and this model must be extended.
    """
    op = _ROWS.get(insn.execute)
    if op is None:
        raise UnknownInstructionError(
            f"no effect model for {insn.mnemonic!r} "
            f"({getattr(insn.execute, '__name__', insn.execute)})")
    return _effects(op, insn, addr)


#: the liveness resource vocabulary of each architecture
RESOURCES: Dict[str, Tuple[str, ...]] = {"x86": X86_RESOURCES,
                                         "ppc": PPC_RESOURCES}


def resources_for(arch: str) -> Tuple[str, ...]:
    """The liveness resource vocabulary of an architecture."""
    if arch not in RESOURCES:
        raise ValueError(f"unknown arch {arch!r}")
    return RESOURCES[arch]
