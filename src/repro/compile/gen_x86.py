"""x86 superblock code generator.

``generate`` turns a run of decoded :class:`Instr` objects (or a
region of such runs, see :mod:`repro.compile.emit`) into the source of
one Python function and compiles it.  Instruction bodies come from the
:mod:`repro.x86.isa` table: for each decoded instruction the row's
body, with its static ifs resolved, is lowered once per (row, r/m form,
static outcome) into text templates whose holes the instruction fills
with its folded operands (register numbers, immediates, the effective
address).  Registers are addressed by literal index and EFLAGS is
carried in a local.  A body that faults on its own or touches
supervisor state, any operand narrower than 32 bits (except a
``movzx``/``movsx`` source) and any FS/GS memory operand become a
*generic* step instead: a call of the row's step executor through a
pre-bound global, bracketed by exact state synchronization.  Only the
block-final ``jcc``/``jmp``/``call``/``ret`` are written out here.

Equivalence rules (the generated code must be bit-identical to the
step core at every observation point — fault raise, watchpoint
callback, executor call, block exit):

* ``cyc``/``ins``/``ef`` shadow ``cpu.cycles``/``instret``/``eflags``;
  ``cur``/``nxt``/``ri`` track what ``current_eip``/``eip``/retired
  count would be mid-step.  The ``except`` trailer writes them back on
  any raise unless a generic call is in flight (``synced``).  A
  block-final branch sets the ``pc`` local, written to ``eip`` on exit.
* Static per-instruction cycle costs are batched in a compile-time
  accumulator and flushed before the next fault-capable body, so
  ``cyc`` is step-exact whenever it can be observed.  Dynamic costs
  (+2 per memory access, +2 per taken branch) are emitted at their
  exact step positions.
* Memory accesses through the safe segments (ES/CS/SS/DS, whose base
  is 0) are lowered by :mod:`repro.compile.access`: a soft-TLB page
  hit touches the page buffer directly, a miss runs ``cpu.load``/
  ``cpu.store``'s permission check, ``_memfault`` translation and
  access verbatim; then ``cycles += 2`` and the watchpoint hook with
  fully synced state.  No ``translation_on`` test is needed: blocks
  are dispatched only with translation on, and it changes only inside
  system instructions, which end their block.

Lowering is only attempted for instruction *instances*; any instance
that does not qualify silently degrades to a generic step, never to an
error.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.compile.access import load, store
from repro.compile.emit import Gen, Member, unit
from repro.isa.faults import AccessKind
from repro.x86 import decoder as xdec
from repro.x86 import isa
from repro.x86.insn import Instr
from repro.x86.registers import SEG_CS, SEG_DS, SEG_ES, SEG_SS

M = 0xFFFFFFFF
#: segments whose base is 0 in the flat model (FS/GS check a selector)
_SAFE_SEGS = frozenset({SEG_ES, SEG_CS, SEG_SS, SEG_DS})

#: cycle slack per instruction on top of the static cost, covering the
#: dynamic ``cycles += 2`` bumps (memory access, taken branch)
INLINE_SLACK = 8
#: slack for a generic executor call (int's +120 dispatch sequence is
#: the worst bounded case)
GENERIC_SLACK = 150

#: executors whose cycle cost is unbounded (ecx-driven string loops) —
#: never included in a block
UNBOUNDED = frozenset(op.execute for op in isa.TABLE if op.unbounded)


def insn_length(instr) -> int:
    return instr.length


def decode_raw(cpu, addr: int):
    """Decode from memory bytes without touching fault state."""
    return xdec.decode(cpu.mem.read(addr, xdec.MAX_INSN_LEN), addr)


def fetch(cpu, addr: int):
    """Discovery-time fetch mirroring ``step()``'s tier order; raises
    MemoryFault (not X86Fault) on a failed check so discovery can
    truncate without mutating cr2."""
    instr = cpu._icache.get(addr)
    if instr is None:
        instr = cpu._icache_warm.get(addr)
        if instr is None:
            instr = decode_raw(cpu, addr)
        cpu.aspace.check(addr, instr.length, AccessKind.FETCH)
    return instr


class _Gen(Gen):
    def __init__(self) -> None:
        super().__init__()
        self.ns.update(isa.PASS)


# ---------------------------------------------------------------------------
# emission helpers


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


def _push(g: Gen, value: str) -> None:
    """push32; a value that reads esp is captured before the decrement."""
    if "regs[4]" in value:
        g.w(f"v_ = {value}")
        value = "v_"
    g.w("regs[4] = (regs[4] - 4) & 4294967295")
    g.w("a_ = regs[4]")
    store(g, 4, value)


# -- EFLAGS algebra (width-4 only) ------------------------------------------
# _ARITH_FLAGS = CF|PF|AF|ZF|SF|OF = 2261; inc/dec clear ZF|SF|OF = 2240.

_ZF_SF = "(64 if {r} == 0 else 0) | (128 if {r} & 2147483648 else 0)"


def _local(g: Gen, name: str, value: str) -> str:
    """*value* as a name that may be read several times."""
    if re.fullmatch(r"\w+", value):
        return value
    g.w(f"{name} = {value}")
    return name


def _flags_add(g: Gen, a: str, b: str) -> None:
    g.w(f"t_ = {a} + {b}")
    g.w("r_ = t_ & 4294967295")
    g.w("ef = (ef & -2262) | " + _ZF_SF.format(r="r_"))
    g.w("if t_ > 4294967295:")
    g.w("    ef |= 1")
    g.w(f"if ({a} ^ {b} ^ 4294967295) & ({a} ^ r_) & 2147483648:")
    g.w("    ef |= 2048")


def _flags_sub(g: Gen, a: str, b: str) -> None:
    g.w(f"r_ = ({a} - {b}) & 4294967295")
    g.w("ef = (ef & -2262) | " + _ZF_SF.format(r="r_"))
    g.w(f"if {a} < {b}:")
    g.w("    ef |= 1")
    g.w(f"if ({a} ^ {b}) & ({a} ^ r_) & 2147483648:")
    g.w("    ef |= 2048")


# ---------------------------------------------------------------------------
# lowering from the instruction table

Hole = Callable[[Instr, int, int], str]
Template = Tuple[str, Tuple[Hole, ...]]


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


#: block-mode text of each register operand of a 32-bit instruction
_OPERAND_TEXT: Dict[str, Hole] = {
    **{name: _gpr_text(name) for name in isa.GPR_OPERANDS},
    "cond": lambda i, a, n: f"({_COND_TEXT[i.op2]})",
    "ea": lambda i, a, n: f"({_ea_expr(i)})",
}
_FIXED_TEXT = {"flags": "ef", "cf": "(ef & 1)"}
_STATIC_VALUE = {name: isa.static_fn(ast.Name(name)) for name in isa.STATIC}


#: the target of a store to the memory operand
_RM_TARGET = ("rm",)


class _Unlowerable(Exception):
    """The body needs the step executor (a generic call)."""


def _template(node: ast.AST, mem: bool) -> Template:
    """An expression or statement as block-mode text with ``{n}``
    holes, filled per decoded instruction (address ``a``, next address
    ``n``).  In a memory form an r/m operand reads the ``v_`` a
    preceding load left."""
    holes: List[Hole] = []

    def hole(fn: Hole) -> ast.expr:
        holes.append(fn)
        return isa.expr(f"__h{len(holes) - 1}__")

    def name(node: ast.Name) -> Optional[ast.expr]:
        if isinstance(node.ctx, ast.Store) and \
                isa.GPR_OPERANDS.get(node.id, ("", "4"))[1] not in \
                ("4", "i.width"):
            raise _Unlowerable(node.id)            # a sub-word write
        if mem and node.id in isa.MEMORY:
            if isinstance(node.ctx, ast.Store):
                raise _Unlowerable(node.id)        # a store in place
            return ast.Name("v_", node.ctx)
        if node.id in _OPERAND_TEXT:
            return hole(_OPERAND_TEXT[node.id])
        if node.id in _FIXED_TEXT:
            return isa.expr(_FIXED_TEXT[node.id])
        if node.id in isa.STATE:
            raise _Unlowerable(node.id)            # supervisor state
        if node.id in isa.STATIC:
            value = _STATIC_VALUE[node.id]
            return hole(lambda i, a, n: f"({value(i, n)!r})")
        if node.id in isa.CONSTS:
            return ast.Constant(isa.CONSTS[node.id])
        if node.id in isa.PASS:
            return None
        return ast.Name(f"x_{node.id}", node.ctx)

    src = isa.rename(node, name).replace("{", "{{").replace("}", "}}")
    return re.sub(r"__h(\d+)__", r"{\1}", src), tuple(holes)


def _fill(template: Template, i, a: int, n: int) -> str:
    text, holes = template
    return text.format(*[hole(i, a, n) for hole in holes])


def _plan(stmts: List[ast.stmt], mem: bool) -> list:
    """Lowering steps of a resolved body for one r/m form:
    ("code", template), ("cycles", n), ("rmload", operand) (the memory
    operand into ``v_``), ("assign", target, value) where the target
    is a template or :data:`_RM_TARGET` (a store to the memory
    operand), ("add"/"sub", a, b, target), ("logic", value, target),
    ("incdec", value, overflow), ("push", value), ("pop", target),
    ("load", address, width, target, segment) and ("store", address,
    value, width, segment), the segment an empty tuple when the
    instruction's own.  Raises :class:`_Unlowerable`."""
    steps: list = []

    def reads(node: ast.AST) -> None:
        found = [n for n in isa.names_in(node) if n in isa.MEMORY]
        if mem and found:
            if len(found) > 1:
                raise _Unlowerable(found)
            steps.append(("rmload", found[0]))

    def target_of(node: ast.expr):
        if not isinstance(node, ast.Name):
            raise _Unlowerable(ast.unparse(node))
        if mem and node.id in isa.MEMORY:
            return _RM_TARGET
        return _template(node, mem)

    for s in stmts:
        value = getattr(s, "value", None)
        call = isa.helper(value) if value is not None else None
        calls = {isa.helper(c) for c in ast.walk(s)} - {None}
        if isinstance(s, ast.Pass):
            continue
        if isinstance(s, ast.AugAssign) and ast.unparse(s.target) == "cycles":
            if not isinstance(s.value, ast.Constant):
                raise _Unlowerable(ast.unparse(s))
            steps.append(("cycles", s.value.value))
        elif calls and (call is None or len(calls) > 1):
            raise _Unlowerable(calls)
        elif call is not None:
            args = cast(ast.Call, value).args
            target = target_of(s.targets[0]) \
                if isinstance(s, ast.Assign) else None
            for arg in args:
                reads(arg)
            t = [_template(arg, mem) for arg in args]
            if call in ("add", "sub"):
                steps.append((call, t[0], t[1], target))
            elif call == "logic":
                steps.append(("logic", t[0], target))
            elif call == "incdec":
                steps.append(("incdec", t[0], t[1]))
            elif call == "push":
                steps.append(("push", t[0]))
            elif call == "pop":
                steps.append(("pop", target))
            elif call == "load":                # address, width[, seg]
                steps.append(("load", t[0], t[1], target, t[2:]))
            elif call == "store":             # address, value, width[, seg]
                steps.append(("store", t[0], t[1], t[2], t[3:]))
            else:
                raise _Unlowerable(call)
        elif isinstance(s, (ast.If, ast.For)):
            if mem and isa.mentions_memory(s):
                raise _Unlowerable("memory operand under a runtime if")
            steps.append(("code", _template(s, mem)))
        elif isinstance(s, ast.Assign):
            reads(s.value)
            steps.append(("assign", target_of(s.targets[0]),
                          _template(s.value, mem)))
        else:
            reads(s)
            steps.append(("code", _template(s, mem)))
    return steps


class _Lowering:
    """A plan and what it needs of an instruction: a zero-based segment
    of its own (its memory operand, or a load/store that names none),
    the segments its loads/stores name, and a sync point (any memory
    access)."""

    __slots__ = ("steps", "own_seg", "segs", "memory")

    def __init__(self, steps: list) -> None:
        self.steps = steps
        accesses = [step for step in steps if step[0] in ("load", "store")]
        self.own_seg = any(step[0] == "rmload" or _RM_TARGET in step
                           for step in steps) \
            or any(not step[-1] for step in accesses)
        self.segs = [step[-1][0] for step in accesses if step[-1]]
        self.memory = any(step[0] in ("rmload", "push", "pop")
                          for step in steps) or bool(accesses) \
            or self.own_seg


#: lowering per (row, key); None: generic
_PLANS: Dict[tuple, Optional[_Lowering]] = {}


def _lower(g: Gen, i, a: int, n: int, k: int) -> bool:
    if i.width != 4:
        return False
    op = isa.op_of(i)
    key = (op, op.key(i))
    if key not in _PLANS:
        try:
            _PLANS[key] = _Lowering(_plan(op.resolved(i), i.rm_reg < 0))
        except _Unlowerable:
            _PLANS[key] = None
    plan = _PLANS[key]
    if plan is None or (plan.own_seg and i.seg not in _SAFE_SEGS) \
            or any(int(_fill(seg, i, a, n)) not in _SAFE_SEGS
                   for seg in plan.segs):
        return False
    if plan.memory:
        g.entry(a, n, k)
    _Emit(g, i, a, n).run(plan.steps)
    return True


class _Emit:
    """Emits one decoded instruction's plan."""

    def __init__(self, g: Gen, i, a: int, n: int) -> None:
        self.g, self.i, self.a, self.n = g, i, a, n
        self.ea_live = False            # a_ holds the operand's address

    def fill(self, template: Template) -> str:
        text = _fill(template, self.i, self.a, self.n)
        return str(int(text[1:-1]) & M) \
            if re.fullmatch(r"\(-?\d+\)", text) else text

    def address(self) -> None:
        if not self.ea_live:
            self.g.w(f"a_ = {_ea_expr(self.i)}")
            self.ea_live = True

    def assign(self, target, value: str) -> None:
        if target is None:
            return
        if target is _RM_TARGET:
            self.address()
            store(self.g, 4, value)
        else:
            self.g.w(f"{self.fill(target)} = {value}")

    def run(self, plan: list) -> None:
        g = self.g
        for step in plan:
            kind = step[0]
            if kind == "code":
                for line in self.fill(step[1]).split("\n"):
                    g.w(line)
            elif kind == "cycles":
                g.pend += step[1]
                g.max_cycles += step[1]
            elif kind == "rmload":
                self.address()
                load(g, self.i.op2 if step[1] == "rms" else 4)
            elif kind == "assign":
                self.assign(step[1], self.fill(step[2]))
            elif kind in ("add", "sub"):
                a = _local(g, "va_", self.fill(step[1]))
                b = _local(g, "vb_", self.fill(step[2]))
                (_flags_add if kind == "add" else _flags_sub)(g, a, b)
                self.assign(step[3], "r_")
            elif kind == "logic":
                r = _local(g, "r_", self.fill(step[1]))
                g.w("ef = (ef & -2262) | " + _ZF_SF.format(r=r))
                self.assign(step[2], r)
            elif kind == "incdec":
                r = _local(g, "r_", self.fill(step[1]))
                g.w("ef = (ef & -2241) | " + _ZF_SF.format(r=r)
                    + f" | (2048 if {self.fill(step[2])} else 0)")
            elif kind == "push":
                self.ea_live = False
                _push(g, self.fill(step[1]))
            elif kind == "pop":
                self.ea_live = False
                g.w("a_ = regs[4]")
                load(g, 4)
                g.w("regs[4] = (regs[4] + 4) & 4294967295")
                self.assign(step[1], "v_")
            elif kind == "load":
                self.ea_live = False
                g.w(f"a_ = {self.fill(step[1])}")
                load(g, int(self.fill(step[2])))
                self.assign(step[3], "v_")
            else:                                       # store
                self.ea_live = False
                g.w(f"a_ = {self.fill(step[1])}")
                store(g, int(self.fill(step[3])), self.fill(step[2]))


# -- block-final branches ----------------------------------------------------


def _e_jcc(g, i, a, n, k) -> bool:
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


#: rows whose block code is written out here rather than derived: the
#: block-final branches, which set the ``pc`` local
_FINAL = {"jcc": _e_jcc, "jmp_rel": _e_jmp_rel, "call_rel": _e_call_rel,
          "ret": _e_ret}


def _emit_generic(g: Gen, i, a: int, n: int, k: int, final: bool) -> None:
    g.entry(a, n, k)
    fn = g.bind("f", i.execute)
    obj = g.bind("i", i)
    g.w("cpu.current_eip = cur")
    g.w("cpu.eip = nxt")
    g.w("cpu.cycles = cyc")
    g.w(f"cpu.instret = ins + {k}")
    g.w("cpu.eflags = ef")
    g.w("synced = True")
    g.w(f"{fn}(cpu, {obj})")
    if final:
        g.w(f"cpu.cycles += {i.cycles}")
        g.w(f"cpu.instret = ins + {k + 1}")
        g.w("return")
        g.returned = True
    else:
        g.w(f"cyc = cpu.cycles + {i.cycles}")
        g.w("ef = cpu.eflags")
        g.w("synced = False")
    g.max_cycles += i.cycles + GENERIC_SLACK


# ---------------------------------------------------------------------------


def _body(g: Gen, nodes: list, ends_hard: bool) -> None:
    """Emit one superblock's instructions.  ``ends_hard`` marks the last
    instruction as a terminator/system instruction (it controls eip
    itself or must run generically as the final step)."""
    total = len(nodes)
    for k, (a, instr) in enumerate(nodes):
        n = (a + instr.length) & M
        if ends_hard and k == total - 1:
            emitter = _FINAL.get(isa.op_of(instr).name)
            inline = emitter is not None and emitter(g, instr, a, n, k)
            final = True
        else:
            inline = _lower(g, instr, a, n, k)
            final = False
        if inline:
            g.pend += instr.cycles
            g.max_cycles += instr.cycles + INLINE_SLACK
        else:
            _emit_generic(g, instr, a, n, k, final=final)


def generate(members: Sequence[Member]):
    """Compile one superblock, or a region of them, into (fn,
    [max_cycles of each member]); see :func:`repro.compile.emit.unit`."""
    return unit(_Gen(), members, _body, insn_length, "x86-block")
