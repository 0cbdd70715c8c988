"""The block generator both ISAs share.

A generator (:mod:`repro.compile.gen_x86`, :mod:`repro.compile.gen_ppc`)
is a subclass of :class:`Gen` that names its architecture: its state
(the register file, the flags local, the pc attributes, the byte
order), its body language (:mod:`repro.isa.table`), the block-mode text
of its operands, its memory accesses, and the rows it writes out itself
(block-final branches, and any other).  :func:`unit` turns one or more
superblocks into one compiled function, ``fn(cpu, ilim=0, clim=0)``.

* **Lowering.**  Every other instruction's row body, with its static
  ifs resolved, is planned once per (row, key) (:func:`_plan`) into
  text templates whose holes the instruction fills with its folded
  operands (register numbers, immediates, addresses).  A body that
  calls a helper with no lowering (a fault, a branch, supervisor
  state), writes an operand narrower than the register file, or that
  the generator does not admit (:meth:`Gen.admits`) becomes a
  *generic* step instead: a call of the row's step executor through a
  pre-bound global, bracketed by exact state synchronization.
* **Cycles.**  Static per-instruction cycle costs are batched in a
  compile-time accumulator and flushed before the next fault-capable
  body, so ``cyc`` is step-exact whenever it can be observed; dynamic
  costs are emitted at their exact step positions.
* **A plain unit** is one superblock: its body, then the exit sync.
* **A region** is a cycle of superblocks (its *members*).  The function
  loops over them with a local dispatch on ``pc``: after each member it
  advances ``ins`` by the member's instruction count, and runs the next
  member only when that member's address is one of its static
  successors and the dispatch loop's own checks would let it run —
  ``ins + n <= ilim`` (budget and next pending action) and
  ``cyc + max_cycles <= clim`` (watchdog).  Otherwise it writes the
  state back and returns.  The entry member always runs: the dispatch
  loop checked it.  With the default limits exactly one member runs.

Inside a body ``cur``/``nxt``/``ri`` hold what ``current_pc``/``pc``/
the retired count would be mid-step; each member resets them on entry
(unless its first instruction's own sync point does), so a fault
leaves exactly the step core's partial-retirement state.  The flags
local shadows the CPU's flags; a block-final branch sets the ``pc``
local.  Lowering is only attempted for instruction *instances*; one
that does not qualify degrades to a generic step, never to an error.
"""

from __future__ import annotations

import ast
import re
from operator import attrgetter
from typing import (
    Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, cast,
)

from repro.compile import access
from repro.isa.codecache import cached
from repro.isa.faults import AccessKind, MemoryFault
from repro.isa.memory import WORD
from repro.isa.table import Language, expr, names_in, rename

M = 0xFFFFFFFF

#: cycle slack per instruction on top of the static cost, covering the
#: dynamic ``cycles += 2`` bumps (memory access, taken branch)
INLINE_SLACK = 8
#: slack for a generic executor call (x86 int's +120 dispatch sequence
#: is the worst bounded case)
GENERIC_SLACK = 150

#: one member: its (addr, instr) nodes, whether its last instruction is
#: a terminator/system instruction, and its static successors that are
#: members (empty for a plain unit)
Member = Tuple[List[Tuple[int, object]], bool, Tuple[int, ...]]


def instr_key(cls: type, row: Callable[[object], object]) -> Callable:
    """The cache key of a decoded *cls* instruction: the name of its
    row (from ``row(instr)``, a table row with a ``name``), then every
    other slot."""
    others = attrgetter(*[slot for slot in cls.__slots__
                          if slot != "execute"])
    return lambda instr: (row(instr).name,) + others(instr)


Hole = Callable[[object, int, int], str]
Template = Tuple[str, Tuple[Hole, ...]]
#: an explicit emitter: fn(g, instr, address, next address, index)
Emitter = Callable[["Gen", object, int, int, int], bool]


class Gen:
    """Line buffer, bound-name namespace and batched cycle counter, and
    what a generator names of its architecture (the class attributes
    and the hooks below)."""

    #: byte order, for repro.compile.access
    little: bool
    #: the flags' local and attribute
    flags: Tuple[str, str]
    #: the entry address, read from the CPU by a region's function
    entry_pc: str
    #: extra prologue lines
    prologue: Tuple[str, ...] = ()
    #: the tag of a unit's code name
    tag: str
    #: the body language of the ISA
    lang: Language
    #: block-mode text of each register operand, per decoded instruction
    operands: Dict[str, Hole]
    #: block-mode text of the operands held in locals
    fixed: Dict[str, str] = {}
    #: operands a block never writes (narrower than a register)
    narrow: FrozenSet[str] = frozenset()
    #: 4-bit fields of the flags local: name -> their shift, as fn(i)
    fields: Dict[str, Callable[[object], int]] = {}
    #: rows written out by the generator rather than derived: as a
    #: block's last instruction, and anywhere else
    final: Dict[str, Emitter] = {}
    explicit: Dict[str, Emitter] = {}
    #: lowerings of helpers other than load and store: fn(emit, argument
    #: templates, target)
    helpers: Dict[str, Callable] = {}

    @staticmethod
    def key(instr) -> tuple:
        """A decoded instruction's code-cache key (:func:`instr_key`)."""
        raise NotImplementedError

    def load(self, width: int) -> None:
        """A load of *width* bytes at ``a_`` into ``v_``."""
        access.load(self, width)

    def store(self, width: int, value: str) -> None:
        """A store of *value* (*width* bytes) at ``a_``."""
        access.store(self, width, value)

    def admits(self, i, lowering: "_Lowering", a: int, n: int) -> bool:
        """Whether *i* may run its planned lowering inline."""
        return True

    def address(self, i) -> str:
        """The address of *i*'s memory operands (ISAs that have them)."""
        raise NotImplementedError

    def width(self, name: str, i) -> int:
        """The width of *i*'s memory operand *name*."""
        raise NotImplementedError

    def __init__(self) -> None:
        self.lines: List[str] = []
        word = WORD[self.little]
        self.ns: Dict[str, object] = {
            "__builtins__": {},
            # the skeleton's except clause must resolve this even
            # though the namespace has no builtins
            "BaseException": BaseException,
            "MF": MemoryFault,
            "AKR": AccessKind.READ,
            "AKW": AccessKind.WRITE,
            "unpack_from": word.unpack_from,
            "pack_into": word.pack_into,
        }
        self.pend = 0               # batched static cycles
        self.max_cycles = 0
        self.pc_done = False        # a final branch already set pc
        self.returned = False       # generic-final emitted a return
        #: the generically-run instructions, in call order
        self.calls: List[object] = []
        self.sync = self.state("cur", "nxt", "ins + ri")

    def state(self, cur: str, nxt: str, instret: str) -> str:
        """The line writing the locals back to the CPU: the watchpoint
        hook's sync, the fault trailer and every exit."""
        flags, attr = self.flags
        cur_attr, pc_attr = self.lang.pcs
        return (f"cpu.cycles = cyc; cpu.instret = {instret}; "
                f"cpu.{attr} = {flags}; cpu.{cur_attr} = {cur}; "
                f"cpu.{pc_attr} = {nxt}")

    def w(self, line: str) -> None:
        self.lines.append(line)

    def call(self, instr) -> Tuple[str, str]:
        """The global names of a generically-run instruction's executor
        and decoded instruction; :func:`unit` binds them."""
        j = len(self.calls)
        self.calls.append(instr)
        return f"f{2 * j}", f"i{2 * j + 1}"

    def flush(self) -> None:
        if self.pend:
            self.w(f"cyc += {self.pend}")
            self.pend = 0

    def entry(self, a: int, n: int, k: int) -> None:
        """Sync point opening a fault-capable instruction body."""
        self.flush()
        self.w(f"cur = {a}; nxt = {n}; ri = {k}")


def unit(g: Gen, members: Sequence[Member]):
    """Compile *members* into one function; returns (fn, [max_cycles of
    each member]).  The code comes from the code cache, filed under
    every member's nodes (address and ``g.key``), end and successors,
    so a cached unit generates no text."""
    flat = [instr for nodes, _hard, _succs in members
            for _addr, instr in nodes]
    name = f"<{g.tag}@{members[0][0][0][0]:#x}>"
    code, max_cycles, calls = cached(
        name, tuple((tuple((addr,) + g.key(instr) for addr, instr in nodes),
                     hard, succs) for nodes, hard, succs in members),
        lambda: _generate(g, members, flat, name))
    for j, position in enumerate(calls):
        g.ns[f"f{2 * j}"] = flat[position].execute
        g.ns[f"i{2 * j + 1}"] = flat[position]
    exec(code, g.ns)
    return g.ns["_unit"], list(max_cycles)


def _generate(g: Gen, members: Sequence[Member], flat: list, name: str):
    """(code, max_cycles of each member, flat node position of each
    generically-run instruction in call order) of one unit."""
    emitted = []
    for nodes, ends_hard, _succs in members:
        g.lines, g.max_cycles = [], 0
        g.pc_done = g.returned = False
        _body(g, nodes, ends_hard)
        g.flush()
        emitted.append((g.lines, g.max_cycles, g.pc_done, g.returned))
    region = any(succs for _nodes, _hard, succs in members)
    sized = {nodes[0][0]: (len(nodes), out[1])
             for (nodes, _hard, _succs), out in zip(members, emitted)}
    flags, flags_attr = g.flags
    src = ["def _unit(cpu, ilim=0, clim=0):",
           f"    {g.lang.file} = cpu.{g.lang.file}",
           "    mem = cpu.mem",
           "    rtlb = mem.rtlb",
           "    wtlb = mem.wtlb",
           "    aspace = cpu.aspace",
           "    debug = cpu.debug",
           "    cyc = cpu.cycles",
           "    ins = cpu.instret",
           f"    {flags} = cpu.{flags_attr}"]
    src += ["    " + line for line in g.prologue]
    if region:
        src.append(f"    pc = {g.entry_pc}")
    src += ["    synced = False",
            "    try:"]
    if region:
        src.append("        while True:")
    for (nodes, _hard, succs), (lines, _mc, pc_done, returned) \
            in zip(members, emitted):
        start, first = nodes[0]
        last_a, last_i = nodes[-1]
        after = (last_a + last_i.length) & M
        n = len(nodes)
        reset = f"cur = {start}; nxt = {(start + first.length) & M}; ri = 0"
        out = lines if lines[:1] == [reset] else [reset] + lines
        if returned:
            pass
        elif not region:
            out.append(g.state(str(last_a), "pc" if pc_done else str(after),
                               f"ins + {n}"))
        else:
            if not pc_done:
                out.append(f"pc = {after}")
            out.append(f"ins += {n}")
            for succ in succs:
                succ_n, succ_cycles = sized[succ]
                out += [f"if pc == {succ}:",
                        f"    if ins + {succ_n} <= ilim"
                        f" and cyc + {succ_cycles} <= clim:",
                        "        continue"]
            out += [g.state(str(last_a), "pc", "ins"), "return"]
        if region:
            src.append(f"            if pc == {start}:")
            src += ["                " + line for line in out]
        else:
            src += ["        " + line for line in out]
    src += ["    except BaseException:",
            "        if not synced:",
            f"            {g.sync}",
            "        raise"]
    position = {id(instr): p for p, instr in enumerate(flat)}
    return (compile("\n".join(src), name, "exec"),
            tuple(out[1] for out in emitted),
            tuple(position[id(instr)] for instr in g.calls))


# ---------------------------------------------------------------------------
# lowering from the instruction table


class Unlowerable(Exception):
    """The body needs the step executor (a generic call)."""


#: the target of a store to a memory operand
MEMORY_TARGET = ("memory",)


def _template(g: Gen, node: ast.AST, mem: bool) -> Template:
    """A statement or expression as block-mode text with ``{n}`` holes,
    filled per decoded instruction (address ``a``, next address ``n``):
    register operands become their block text, static operands their
    folded values, temporaries ``x_`` locals; a field write updates the
    flags local.  In a memory form a memory operand reads the ``v_`` a
    preceding load left."""
    lang = g.lang
    holes: List[Hole] = []

    def hole(fn: Hole) -> ast.expr:
        holes.append(fn)
        return expr(f"__h{len(holes) - 1}__")

    def name(node: ast.Name) -> Optional[ast.expr]:
        if isinstance(node.ctx, ast.Store) and node.id in g.narrow:
            raise Unlowerable(node.id)              # a sub-word write
        if mem and node.id in lang.memory:
            if isinstance(node.ctx, ast.Store):
                raise Unlowerable(node.id)          # a store in place
            return ast.Name("v_", node.ctx)
        if node.id in g.operands:
            return hole(g.operands[node.id])
        if node.id in g.fixed:
            return expr(g.fixed[node.id])
        if node.id in lang.operands:
            raise Unlowerable(node.id)              # supervisor state
        if node.id in lang.static:
            value = lang.value[node.id]
            return hole(lambda i, a, n: f"({value(i, a, n)!r})")
        if node.id in lang.consts:
            return ast.Constant(lang.consts[node.id])
        if node.id in lang.passed or node.id == lang.file:
            return None
        return ast.Name(f"x_{node.id}", node.ctx)

    field = _field(g, node)
    if field is not None:
        shift = g.fields[field]
        value = rename(cast(ast.Assign, node).value, name)
        clear = ast.unparse(hole(lambda i, a, n: str(~(15 << shift(i)) & M)))
        at = ast.unparse(hole(lambda i, a, n: str(shift(i))))
        flags = g.flags[0]
        src = f"{flags} = {flags} & {clear} | ({value}) << {at}"
    else:
        src = rename(node, name)
    src = src.replace("{", "{{").replace("}", "}}")
    return re.sub(r"__h(\d+)__", r"{\1}", src), tuple(holes)


def _field(g: Gen, node: ast.AST) -> Optional[str]:
    """The flags field an assignment writes, or None."""
    if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) \
            and node.targets[0].id in g.fields:
        return node.targets[0].id
    return None


def _fill(template: Template, i, a: int, n: int) -> str:
    text, holes = template
    return text.format(*[hole(i, a, n) for hole in holes])


def _plan(g: Gen, stmts: List[ast.stmt], mem: bool) -> list:
    """Lowering steps of a resolved body for one memory form:
    ("code", template), ("cycles", n), ("rmload", operand) (a memory
    operand into ``v_``), ("assign", target, value) where the target is
    a template or :data:`MEMORY_TARGET`, and ("call", helper, argument
    templates, target or None).  Raises :class:`Unlowerable`."""
    lang = g.lang
    steps: list = []

    def reads(node: ast.AST) -> None:
        found = [n for n in names_in(node) if n in lang.memory]
        if mem and found:
            if len(found) > 1:
                raise Unlowerable(found)
            steps.append(("rmload", found[0]))

    def target_of(node: ast.expr):
        if not isinstance(node, ast.Name):
            raise Unlowerable(ast.unparse(node))
        if mem and node.id in lang.memory:
            return MEMORY_TARGET
        return _template(g, node, mem)

    for s in stmts:
        value = getattr(s, "value", None)
        call = lang.helper(value) if value is not None else None
        calls = {lang.helper(c) for c in ast.walk(s)} - {None}
        if isinstance(s, ast.Pass):
            continue
        if isinstance(s, ast.AugAssign) and ast.unparse(s.target) == "cycles":
            if not isinstance(s.value, ast.Constant):
                raise Unlowerable(ast.unparse(s))
            steps.append(("cycles", s.value.value))
        elif calls and (call is None or len(calls) > 1):
            raise Unlowerable(calls)
        elif call is not None:
            if call not in _CALLS and call not in g.helpers:
                raise Unlowerable(call)
            args = cast(ast.Call, value).args
            target = target_of(s.targets[0]) \
                if isinstance(s, ast.Assign) else None
            for arg in args:
                reads(arg)
            steps.append(("call", call,
                          tuple(_template(g, arg, mem) for arg in args),
                          target))
        elif isinstance(s, (ast.If, ast.For)):
            if mem and lang.mentions_memory(s):
                raise Unlowerable("memory operand under a runtime if")
            steps.append(("code", _template(g, s, mem)))
        elif isinstance(s, ast.Assign) and _field(g, s) is None:
            reads(s.value)
            steps.append(("assign", target_of(s.targets[0]),
                          _template(g, s.value, mem)))
        else:
            reads(s)
            steps.append(("code", _template(g, s, mem)))
    return steps


class _Lowering:
    """A plan and what it needs of an instruction: whether it accesses
    memory (a sync point), whether an access takes the instruction's
    own implicit operand (a memory operand, or a load/store that omits
    its optional one: x86's segment), and the templates of the optional
    operands its accesses name."""

    __slots__ = ("steps", "memory", "own", "extra")

    def __init__(self, lang: Language, steps: list) -> None:
        self.steps = steps
        self.own = any(step[0] == "rmload" or MEMORY_TARGET in step
                       for step in steps)
        self.extra: List[Template] = []
        self.memory = self.own
        for step in steps:
            if step[0] != "call":
                continue
            helper = lang.helpers[step[1]]
            if {"reads_mem", "writes_mem"} & set(helper.roles.split()):
                self.memory = True
            if helper.optional:
                given = len(step[2]) - _arity(helper.step) \
                    + len(helper.optional)
                self.own = self.own or given == 0
                self.extra += step[2][len(step[2]) - given:] if given else []


def _arity(step: str) -> int:
    return len(set(re.findall(r"\b_(\d)\b", step)))


#: lowering per (row, key); None: generic
_PLANS: Dict[tuple, Optional[_Lowering]] = {}


def _lower(g: Gen, i, a: int, n: int, k: int) -> bool:
    op = g.lang.rows[i.execute]
    key = (op, op.key(i))
    if key not in _PLANS:
        try:
            _PLANS[key] = _Lowering(g.lang, _plan(g, op.resolved(i),
                                                 key[1][0]))
        except Unlowerable:
            _PLANS[key] = None
    plan = _PLANS[key]
    if plan is None or not g.admits(i, plan, a, n):
        return False
    if plan.memory:
        g.entry(a, n, k)
    Emit(g, i, a, n).run(plan.steps)
    return True


class Emit:
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
            self.g.w(f"a_ = {self.g.address(self.i)}")
            self.ea_live = True

    def assign(self, target, value: str) -> None:
        if target is None:
            return
        if target is MEMORY_TARGET:
            self.address()
            self.g.store(4, value)
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
                g.load(g.width(step[1], self.i))
            elif kind == "assign":
                self.assign(step[1], self.fill(step[2]))
            else:
                lower = _CALLS.get(step[1]) or g.helpers[step[1]]
                lower(self, step[2], step[3])


def _load(e: Emit, args: Sequence[Template], target) -> None:
    e.ea_live = False
    e.g.w(f"a_ = {e.fill(args[0])}")
    e.g.load(int(e.fill(args[1])))
    e.assign(target, "v_")


def _store(e: Emit, args: Sequence[Template], target) -> None:
    e.ea_live = False
    e.g.w(f"a_ = {e.fill(args[0])}")
    e.g.store(int(e.fill(args[2])), e.fill(args[1]))


#: the helpers every generator lowers
_CALLS = {"load": _load, "store": _store}


def _emit_generic(g: Gen, i, a: int, n: int, k: int, final: bool) -> None:
    flags, flags_attr = g.flags
    cur_attr, pc_attr = g.lang.pcs
    g.entry(a, n, k)
    fn, obj = g.call(i)
    g.w(f"cpu.{cur_attr} = cur")
    g.w(f"cpu.{pc_attr} = nxt")
    g.w("cpu.cycles = cyc")
    g.w(f"cpu.instret = ins + {k}")
    g.w(f"cpu.{flags_attr} = {flags}")
    g.w("synced = True")
    g.w(f"{fn}(cpu, {obj})")
    if final:
        g.w(f"cpu.cycles += {i.cycles}")
        g.w(f"cpu.instret = ins + {k + 1}")
        g.w("return")
        g.returned = True
    else:
        g.w(f"cyc = cpu.cycles + {i.cycles}")
        g.w(f"{flags} = cpu.{flags_attr}")
        g.w("synced = False")
    g.max_cycles += i.cycles + GENERIC_SLACK


def _body(g: Gen, nodes: list, ends_hard: bool) -> None:
    """Emit one superblock's instructions.  ``ends_hard`` marks the last
    instruction as a terminator/system instruction (it controls the pc
    itself or must run generically as the final step)."""
    total = len(nodes)
    for k, (a, instr) in enumerate(nodes):
        n = (a + instr.length) & M
        name = g.lang.rows[instr.execute].name
        if ends_hard and k == total - 1:
            emitter = g.final.get(name)
            final = True
        else:
            emitter = g.explicit.get(name, _lower)
            final = False
        if emitter is not None and emitter(g, instr, a, n, k):
            g.pend += instr.cycles
            g.max_cycles += instr.cycles + INLINE_SLACK
        else:
            _emit_generic(g, instr, a, n, k, final=final)
