"""x86 superblock code generator.

``generate`` turns a run of decoded :class:`Instr` objects (or a
region of such runs) into one compiled function through the shared
generator of :mod:`repro.compile.emit`, which lowers each row body of
the :mod:`repro.x86.isa` table.  This module names what is x86's:

* registers are addressed by literal index in the ``regs`` list (the
  shared generator holds each in a local), and EFLAGS is carried in
  the ``ef`` local (``cpu.eflags`` on exit); ``cur``/``nxt`` shadow
  ``current_eip``/``eip``;
* the block text of each operand: a GPR at its width (sub-word only
  as a ``movzx``/``movsx`` source), a condition code over ``ef``, the
  effective address of the ModRM memory operand;
* the helper lowerings beyond load and store: ``push``/``pop``, and
  the EFLAGS algebra (QEMU's lazy ``cc_op``): ``add``/``sub``/``logic``
  compute only their result and leave the flags pending over copies of
  their operands, built where :mod:`repro.compile.emit` settles them —
  written out on the straight path, one call of a prebuilt
  ``flags_<kind>`` function on a TLB miss or in the watchpoint branch.
  ``incdec`` keeps CF, so it settles first and computes its flags at
  once;
* which instances run inline: only 32-bit ones, and only when every
  memory access goes through a safe segment (ES/CS/SS/DS, whose base
  is 0).  Accesses are lowered by :mod:`repro.compile.access`; no
  ``translation_on`` test is needed: blocks are dispatched only with
  translation on, and it changes only inside system instructions,
  which end their block;
* the block-final ``jcc``/``jmp``/``call``/``ret``, written out here.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence

from repro.compile.access import load, store
from repro.compile.emit import (
    Gen, Hole, Member, Template, _fill, instr_key, unit,
)
from repro.x86 import isa
from repro.x86.insn import Instr
from repro.x86.registers import SEG_CS, SEG_DS, SEG_ES, SEG_SS

M = 0xFFFFFFFF
#: segments whose base is 0 in the flat model (FS/GS check a selector)
_SAFE_SEGS = frozenset({SEG_ES, SEG_CS, SEG_SS, SEG_DS})

#: executors whose cycle cost is unbounded (ecx-driven string loops) —
#: never included in a block
UNBOUNDED = frozenset(op.execute for op in isa.TABLE if op.unbounded)


# ---------------------------------------------------------------------------
# operand text


def _ea_expr(i) -> str:
    parts = []
    if i.base >= 0:
        parts.append(f"regs[{i.base}]")
    if i.index >= 0:
        parts.append(f"regs[{i.index}] * {i.scale}" if i.scale != 1
                     else f"regs[{i.index}]")
    disp = i.disp & M
    if not parts:
        return str(disp)
    if disp:
        parts.append(str(disp))
    return "(" + " + ".join(parts) + ") & 4294967295"


_COND_TEXT = tuple(re.sub(r"\bf\b", "ef", text) for text in isa.COND_EXPRS)


def _gpr_text(name: str) -> Hole:
    """Block-mode text of a GPR operand read (narrower than 32 bits
    only as a ``movzx``/``movsx`` source)."""
    number, width = isa.NUMBER[name], isa.WIDTH[name]

    def text(i, a, n) -> str:
        reg, w = number(i), width(i)
        if w == 4:
            return f"regs[{reg}]"
        if w == 2:
            return f"(regs[{reg}] & 65535)"
        if reg < 4:
            return f"(regs[{reg}] & 255)"
        return f"((regs[{reg - 4}] >> 8) & 255)"
    return text


# ---------------------------------------------------------------------------
# helper lowerings: push/pop and the EFLAGS algebra (width-4 only)
# _ARITH_FLAGS = CF|PF|AF|ZF|SF|OF = 2261; inc/dec clear ZF|SF|OF = 2240.


def _push(g: Gen, value: str) -> None:
    """push32; a value that reads esp is captured before the decrement."""
    if "regs[4]" in value:
        g.w(f"v_ = {value}")
        value = "v_"
    g.w("regs[4] = (regs[4] - 4) & 4294967295")
    g.w("a_ = regs[4]")
    store(g, 4, value)


_ZF_SF = "(64 if {r} == 0 else 0) | (128 if {r} & 2147483648 else 0)"


def _local(g: Gen, name: str, value: str) -> str:
    """*value* as a name that may be read several times."""
    if re.fullmatch(r"\w+", value):
        return value
    g.w(f"{name} = {value}")
    return name


def _operand(g: Gen, name: str, value: str) -> str:
    """*value* as an operand of a pending flag computation: a literal
    as it is, anything else copied into *name*, since the names it
    reads may change before the flags are built."""
    if value.isdigit():
        return value
    g.w(f"{name} = {value}")
    return name


def _build_flags(kind: str, a: str, b: str) -> List[str]:
    """The EFLAGS algebra of a pending ``add``/``sub``/``logic``."""
    if kind == "logic":
        return ["ef = (ef & -2262) | " + _ZF_SF.format(r=a)]
    if kind == "add":
        lines = [f"ft_ = {a} + {b}", "fr_ = ft_ & 4294967295"]
        carry = "ft_ > 4294967295"
        overflow = f"({a} ^ {b} ^ 4294967295) & ({a} ^ fr_) & 2147483648"
    else:
        lines = [f"fr_ = ({a} - {b}) & 4294967295"]
        carry = f"{a} < {b}"
        overflow = f"({a} ^ {b}) & ({a} ^ fr_) & 2147483648"
    return lines + ["ef = (ef & -2262) | " + _ZF_SF.format(r="fr_")
                    + f" | (1 if {carry} else 0)"
                    + f" | (2048 if {overflow} else 0)"]


def _flag_function(kind: str):
    """:func:`_build_flags` as ``fn(ef, a, b) -> ef``, for the paths
    that build the flags only sometimes."""
    body = "".join(f"    {line}\n" for line in _build_flags(kind, "a", "b"))
    ns: dict = {}
    exec(f"def flags(ef, a, b):\n{body}    return ef\n", ns)
    return ns["flags"]


#: the bound names of the flag functions, per kind
_FLAG_FUNCTIONS = {f"flags_{kind}": _flag_function(kind)
                   for kind in ("add", "sub", "logic")}


def _arith(kind: str, result: str):
    """The lowering of ``add``/``sub``: the operands kept, the flags
    left pending, the *result* over operands ``{a}`` and ``{b}``."""
    def lower(e, args: Sequence[Template], target) -> None:
        a = _operand(e.g, "fa_", e.fill(args[0]))
        b = _operand(e.g, "fb_", e.fill(args[1]))
        e.g.lazy = (kind, a, b)
        e.assign(target, result.format(a=a, b=b))
    return lower


def _logic(e, args: Sequence[Template], target) -> None:
    r = _operand(e.g, "fa_", e.fill(args[0]))
    e.g.lazy = ("logic", r, "")
    e.assign(target, r)


def _incdec(e, args: Sequence[Template], target) -> None:
    r = _local(e.g, "r_", e.fill(args[0]))
    e.g.w("ef = (ef & -2241) | " + _ZF_SF.format(r=r)
          + f" | (2048 if {e.fill(args[1])} else 0)")


def _push_step(e, args: Sequence[Template], target) -> None:
    e.ea_live = False
    _push(e.g, e.fill(args[0]))


def _pop(e, args: Sequence[Template], target) -> None:
    g = e.g
    e.ea_live = False
    g.w("a_ = regs[4]")
    load(g, 4)
    g.w("regs[4] = (regs[4] + 4) & 4294967295")
    e.assign(target, "v_")


# -- block-final branches ----------------------------------------------------


def _e_jcc(g, i, a, n, k) -> bool:
    g.settle()
    g.w(f"if {_COND_TEXT[i.op2]}:")
    g.w(f"    pc = {(n + i.imm) & M}")
    g.w("    cyc += 2")
    g.w("else:")
    g.w(f"    pc = {n}")
    g.pc_done = True
    return True


def _e_jmp_rel(g, i, a, n, k) -> bool:
    g.w(f"pc = {(n + i.imm) & M}")
    g.w("cyc += 2")
    g.pc_done = True
    return True


def _e_call_rel(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    _push(g, str(n))
    g.w(f"pc = {(n + i.imm) & M}")
    g.w("cyc += 2")
    g.pc_done = True
    return True


def _e_ret(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    g.w("a_ = regs[4]")
    load(g, 4)
    g.w("regs[4] = (regs[4] + 4) & 4294967295")
    g.w("pc = v_")
    g.w("cyc += 2")
    if i.imm:
        g.w(f"regs[4] = (regs[4] + {i.imm & M}) & 4294967295")
    g.pc_done = True
    return True


class _Gen(Gen):
    little = True
    flags = ("ef", "eflags")
    entry_pc = "cpu.eip"
    tag = "x86-block"
    lang = isa.LANG
    operands: Dict[str, Hole] = {
        **{name: _gpr_text(name) for name in isa.GPR_OPERANDS},
        "cond": lambda i, a, n: f"({_COND_TEXT[i.op2]})",
        "ea": lambda i, a, n: f"({_ea_expr(i)})",
    }
    fixed = {"flags": "ef", "cf": "(ef & 1)"}
    flag_operands = frozenset({"flags", "cf", "cond"})
    narrow = frozenset(name for name, (_, width) in isa.GPR_OPERANDS.items()
                       if width not in ("4", "i.width"))
    final = {"jcc": _e_jcc, "jmp_rel": _e_jmp_rel, "call_rel": _e_call_rel,
             "ret": _e_ret}
    helpers = {"add": _arith("add", "({a} + {b}) & 4294967295"),
               "sub": _arith("sub", "({a} - {b}) & 4294967295"),
               "logic": _logic, "incdec": _incdec,
               "push": _push_step, "pop": _pop}
    key = staticmethod(instr_key(Instr, isa.op_of))

    def __init__(self) -> None:
        super().__init__()
        self.ns.update(isa.PASS, **_FLAG_FUNCTIONS)

    def address(self, i) -> str:
        return _ea_expr(i)

    def build_flags(self, kind: str, a: str, b: str,
                    inline: bool) -> List[str]:
        if inline:
            return _build_flags(kind, a, b)
        return [f"ef = flags_{kind}(ef, {a}, {b or 0})"]

    def width(self, name: str, i) -> int:
        return isa.WIDTH[name](i)

    def admits(self, i, lowering, a: int, n: int) -> bool:
        """32-bit instances whose accesses all use a safe segment."""
        return i.width == 4 \
            and (not lowering.own or i.seg in _SAFE_SEGS) \
            and all(int(_fill(seg, i, a, n)) in _SAFE_SEGS
                    for seg in lowering.extra)


def generate(members: Sequence[Member]):
    """Compile one superblock, or a region of them, into (fn,
    [max_cycles of each member]); see :func:`repro.compile.emit.unit`."""
    return unit(_Gen(), members)
