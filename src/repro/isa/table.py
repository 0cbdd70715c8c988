"""The body language both instruction tables are written in.

:mod:`repro.x86.isa` and :mod:`repro.ppc.isa` describe every
instruction as a row whose *body* is a few lines of Python-syntax
semantics over named operands.  Each table names its vocabulary in one
:class:`Language`; everything that reads a body is written once, here
and in the two other views:

* **operands** (:class:`Operand`) — register-like state: its step-mode
  read and write code, the liveness resources it names, the effect
  roles of touching it;
* **memory operands** — operands that are a load or a store in an
  instruction's memory form (x86's r/m; none on ppc), at the address
  the ``address`` operand names;
* **static operands** — fixed by the decoded instruction ``i``, as
  expressions over ``i``, its address ``cia`` and the next address
  ``nia``;
* **helpers** (:class:`Helper`) — calls such as ``load``, ``store``,
  ``branch`` and the faults, with their step code and effect roles;
* **constants**, inlined into every view; **passed** names, which
  every view's namespace provides as they are; and the register file,
  indexed as ``<file>[n]``.

Any other name is a local temporary (``x_<name>`` in generated code).

An ``if`` whose test reads only static operands is *static*: a row
resolves it per decoded instruction (:meth:`Row.resolved`), keyed by
the static operands its tests read (:attr:`Row.key`), for the block
lowering (:mod:`repro.compile.emit`) and the effect summaries
(:mod:`repro.static.effects`).  The step executor
(:func:`step_function`) keeps them as tests of ``i``.
"""

from __future__ import annotations

import ast
import copy
import functools
import re
import textwrap
from types import CodeType
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence,
    Tuple, cast,
)

from repro.isa.codecache import cached


class Operand(NamedTuple):
    """A register-like operand."""

    #: step-mode read code, over ``cpu`` and the decoded ``i``
    read: str
    #: step-mode write code, ``V`` standing for the value ("": read-only)
    write: str = ""
    #: the liveness resources it names, a tuple expression over ``i``
    #: ("": outside the liveness domain)
    resources: str = ""
    #: effect roles of reading it (or merging into it), and of writing
    #: it whole
    roles: str = ""
    write_roles: str = ""
    #: a condition over ``i`` under which a write leaves part of the old
    #: value in place, so that the write is a use too
    partial: str = ""


class Helper(NamedTuple):
    """A call of the body language."""

    #: step-mode code: ``_0``.. stand for the arguments, ``(*)`` for all
    #: of them, keywords included; an augmented assignment is a statement
    step: str
    #: effect roles: ``reads_mem``, ``writes_mem``, ``may_fault``,
    #: ``system``, ``illegal`` (an undefined encoding), and
    #: ``fetch_fault`` (a branch to a computed target may fault)
    roles: str = ""
    #: the operands it reads and writes besides its arguments
    uses: Tuple[str, ...] = ()
    defs: Tuple[str, ...] = ()
    #: step-mode text of trailing arguments a body may omit
    optional: Tuple[str, ...] = ()


def verbatim(text: str) -> ast.expr:
    """Step text as written: a node that unparses as *text* in
    parentheses."""
    return ast.Name(f"({text})", ast.Load())


def verbatim_statement(text: str) -> ast.stmt:
    return ast.Expr(ast.Name(text, ast.Load()))


def statement(text: str) -> ast.stmt:
    return ast.parse(text).body[0]


@functools.lru_cache(maxsize=None)
def expr(text: str) -> ast.expr:
    """The parse of *text*, shared: callers never mutate it."""
    return ast.parse(text, mode="eval").body


#: how step code is spelled: (expression node, statement node) of a text
VERBATIM = (verbatim, verbatim_statement)
PARSED = (expr, statement)


class Language:
    """One ISA's body vocabulary (see the module docstring).

    *tag* names its generated code; *ns* is the namespace of static
    expressions, step executors and effect functions; *pcs* are the CPU
    attributes holding the current and the next address; *form* is the
    (memory form, register form) test of a decoded instruction; *style*
    is :data:`VERBATIM` or :data:`PARSED`; *length* is an instruction's
    length as an expression over ``i``; *file_resources* names the
    resource of register ``<file>[n]`` as ``<file_resources>[n]``."""

    def __init__(self, tag: str, *, operands: Mapping[str, Operand],
                 static: Mapping[str, str], helpers: Mapping[str, Helper],
                 consts: Mapping[str, int], passed: Mapping[str, object],
                 ns: Mapping[str, object], file: str,
                 pcs: Tuple[str, str], length: str, style,
                 file_resources: str = "",
                 memory: Optional[Mapping[str, Operand]] = None,
                 address: str = "", address_step: str = "",
                 form: Tuple[str, str] = ("False", "True")) -> None:
        self.tag = tag
        self.operands = dict(operands)
        self.static = dict(static)
        self.helpers = dict(helpers)
        self.consts = dict(consts)
        self.passed = dict(passed)
        self.ns: Dict[str, object] = {**ns, **passed}
        self.file = file
        self.pcs = pcs
        self.length = length
        self.style = style
        self.file_resources = file_resources
        self.memory = dict(memory or {})
        #: the operand naming a memory operand's address, and the step
        #: line that computes it
        self.address = address
        self.address_step = address_step
        self.form = form
        #: the rows, by the step executor a decoded instruction carries
        self.rows: Dict[Callable[..., None], "Row"] = {}
        #: names that read or write memory in a memory form
        self.memory_names = frozenset(self.memory) | (
            {address} if address else frozenset())

    @functools.cached_property
    def value(self) -> Dict[str, Callable[..., object]]:
        """The value of each static operand, as ``fn(i, cia, nia)``."""
        return {name: self.static_fn(ast.Name(name)) for name in self.static}

    # -- reading a body -----------------------------------------------------

    def is_static(self, node: ast.AST) -> bool:
        """True when *node* reads only static operands and constants."""
        return all(n.id in self.static or n.id in self.consts
                   or n.id in self.passed
                   for n in ast.walk(node) if isinstance(n, ast.Name))

    def static_names(self, node: ast.Name) -> Optional[ast.expr]:
        """Constants inlined, static operands as their value
        expressions."""
        if node.id in self.consts:
            return ast.Constant(self.consts[node.id])
        if node.id in self.static:
            return expr(self.static[node.id])
        return None

    def static_fn(self, node: ast.AST) -> Callable[..., object]:
        """Compile a static expression into ``fn(i, cia, nia)``."""
        fn: Callable[..., object] = eval(
            f"lambda i, cia, nia: {rename(node, self.static_names)}",
            dict(self.ns))
        return fn

    def helper(self, node: ast.AST) -> Optional[str]:
        """The helper a call invokes, or None."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in self.helpers:
            return node.func.id
        return None

    def operand(self, name: str, mem: bool) -> Optional[Operand]:
        """The operand *name* names: a memory operand in a memory form
        (*mem*), else a register-like one (None: not an operand)."""
        if mem and name in self.memory:
            return self.memory[name]
        return self.operands.get(name)

    def mentions_memory(self, node: ast.AST) -> bool:
        """True when *node* reads or writes a memory operand or its
        address."""
        return not self.memory_names.isdisjoint(names_in(node))

    def static_ifs(self, stmts: Sequence[ast.stmt]) -> List[ast.If]:
        """Every static ``if`` of a body, in a fixed (depth-first)
        order."""
        out: List[ast.If] = []
        for s in stmts:
            if isinstance(s, ast.If) and self.is_static(s.test):
                out.append(s)
            for field in ("body", "orelse"):
                out += self.static_ifs(getattr(s, field, []))
        return out

    def is_file(self, node: ast.AST) -> bool:
        """True when *node* indexes the register file."""
        return isinstance(node, ast.Subscript) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == self.file


class Rename(ast.NodeTransformer):
    """Replace every name *fn* maps (to a node; None keeps the name)."""

    def __init__(self, fn: Callable[[ast.Name], Optional[ast.expr]]) -> None:
        self.fn = fn

    def visit_Name(self, node: ast.Name) -> ast.expr:
        new = self.fn(node)
        return node if new is None else new


def rename(node: ast.AST, fn: Callable[[ast.Name], Optional[ast.expr]]
           ) -> str:
    """Source of a copy of *node* with its names renamed by *fn*."""
    return ast.unparse(Rename(fn).visit(copy.deepcopy(node)))


def names_in(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def resolve(stmts: Sequence[ast.stmt], outcome: Dict[int, bool]
            ) -> List[ast.stmt]:
    """A body with its static ifs replaced by the branch *outcome*
    (keyed by ``id`` of the ``if`` node) selects; runtime ifs kept."""
    out: List[ast.stmt] = []
    for s in stmts:
        if isinstance(s, ast.If) and id(s) in outcome:
            out += resolve(s.body if outcome[id(s)] else s.orelse, outcome)
        elif isinstance(s, (ast.If, ast.For)):
            inner = copy.copy(s)
            inner.body = resolve(s.body, outcome)
            inner.orelse = resolve(s.orelse, outcome)
            out.append(inner)
        else:
            out.append(s)
    return out


# -- the rows ---------------------------------------------------------------


class Row:
    """What every table row shares: its body, the tests of its static
    ifs, the key of a decoded instruction's resolution, and its step
    executor."""

    #: block-terminator kind by decoded instruction (None: falls
    #: through), in :mod:`repro.static.effects` vocabulary
    kind: Optional[Callable[[Any], Optional[str]]] = None

    def __init__(self, lang: Language, name: str, body: str) -> None:
        self.lang = lang
        self.name = name
        self.ident = name.replace(".", "_dot").strip("()")
        self.source = body
        self.execute = step_function(self)
        lang.rows[self.execute] = self

    @functools.cached_property
    def tests(self) -> List[Callable[..., object]]:
        """The tests of the body's static ifs, as ``fn(i, cia, nia)``."""
        return [self.lang.static_fn(s.test)
                for s in self.lang.static_ifs(self.body)]

    @functools.cached_property
    def key(self) -> Callable[..., tuple]:
        """``fn(i)``: the memory form, then the static operands the
        tests read: instructions with equal keys run the same resolved
        body."""
        lang = self.lang
        fields = sorted({lang.static[n] for s in lang.static_ifs(self.body)
                         for n in names_in(s.test) if n in lang.static})
        assert not any(re.search(r"\b(cia|nia)\b", field)
                       for field in fields), self.name
        key: Callable[..., tuple] = eval(
            f"lambda i: ({', '.join((lang.form[0], *fields))},)",
            dict(lang.ns))
        return key

    @property
    def body(self) -> List[ast.stmt]:
        """A fresh parse of the body (views may rewrite it in place)."""
        return ast.parse(self.source).body

    def resolved(self, i) -> List[ast.stmt]:
        """The body with its static ifs resolved for *i*."""
        body = self.body
        return resolve(body, {id(s): bool(test(i, 0, 0)) for s, test in
                              zip(self.lang.static_ifs(body), self.tests)})


# -- the step view ----------------------------------------------------------


class Step(ast.NodeTransformer):
    """Body -> step-executor code over ``cpu`` and the decoded ``i``;
    *mem* says whether the instruction's memory operands are memory
    (None: the body has none).  The rewritten tree only ever goes back
    to text."""

    def __init__(self, lang: Language, mem: Optional[bool]) -> None:
        self.lang = lang
        self.mem = mem
        self.node, self.statement = lang.style
        cur, nxt = lang.pcs
        self.pcs = {"cia": f"cpu.{cur}", "nia": f"cpu.{nxt}"}

    def text(self, code: str) -> ast.expr:
        return ast.Name(code, ast.Load()) if code.isidentifier() \
            else self.node(code)

    def visit_Name(self, node: ast.Name) -> ast.expr:
        lang, name = self.lang, node.id
        operand = lang.operand(name, bool(self.mem))
        # the address operand exists only in a memory form
        if operand is not None and (self.mem or name != lang.address):
            return self.text(operand.read)
        if name in lang.static:
            return self.node(re.sub(r"\b(cia|nia)\b",
                                    lambda m: self.pcs[m[1]],
                                    lang.static[name]))
        if name in lang.consts:
            return ast.Constant(lang.consts[name])
        if name in lang.passed or name == lang.file:
            return node
        return ast.Name(f"x_{name}", node.ctx)

    def call(self, node: ast.Call) -> str:
        """Step code of a helper call."""
        helper = self.lang.helpers[cast(str, self.lang.helper(node))]
        args = [ast.unparse(self.visit(a)) for a in node.args]
        if "(*)" in helper.step:
            args += [f"{k.arg}={ast.unparse(self.visit(k.value))}"
                     for k in node.keywords]
            return helper.step.replace("*", ", ".join(args))
        arity = len(set(re.findall(r"\b_(\d)\b", helper.step)))
        args += helper.optional[len(args) - arity:] \
            if len(args) < arity else []
        return re.sub(r"\b_(\d)\b", lambda m: args[int(m[1])], helper.step)

    def visit_Call(self, node: ast.Call) -> ast.expr:
        if self.lang.helper(node) is None:
            self.generic_visit(node)
            return node
        return self.node(self.call(node))

    def visit_Expr(self, node: ast.Expr) -> ast.stmt:
        name = self.lang.helper(node.value)
        if name is not None and " += " in self.lang.helpers[name].step:
            return self.statement(self.call(cast(ast.Call, node.value)))
        self.generic_visit(node)
        return node

    def visit_Assign(self, node: ast.Assign) -> ast.stmt:
        target = node.targets[0]
        value = ast.unparse(self.visit(node.value))
        operand = self.lang.operand(target.id, bool(self.mem)) \
            if isinstance(target, ast.Name) else None
        if operand is not None and operand.write:
            return self.statement(re.sub(r"\bV\b", lambda m: value,
                                         operand.write))
        node.targets = [self.visit(target)]
        node.value = self.node(value)
        return node

    def visit_AugAssign(self, node: ast.AugAssign) -> ast.stmt:
        if isinstance(node.target, ast.Name) and node.target.id == "cycles":
            return self.statement(
                f"cpu.cycles += {ast.unparse(self.visit(node.value))}")
        self.generic_visit(node)
        return node


def _step_code(row: Row, mem: Optional[bool]) -> str:
    """Step code of a body for one memory form: tests of the memory
    form resolved, and in a memory form the address taken just before
    the first statement that touches a memory operand."""
    lang = row.lang
    stmts = row.body
    if mem is not None:
        form = {name for name, text in lang.static.items()
                if text == lang.form[0]}
        outcome = {id(s): eval(ast.unparse(s.test), dict.fromkeys(form, mem))
                   for s in lang.static_ifs(stmts)
                   if names_in(s.test) == form}
        stmts = resolve(stmts, outcome)
    lines: List[str] = []
    pending = bool(mem)
    step = Step(lang, mem)
    for s in stmts:
        if pending and lang.mentions_memory(s):
            lines.append(lang.address_step)
            pending = False
        lines.append(ast.unparse(step.visit(s)))
    return "\n".join(lines) or "pass"


def step_function(row: Row) -> Callable[..., None]:
    """``exec_<row>(cpu, i)``: a register and a memory variant when the
    body has memory operands."""
    lang = row.lang
    fname = f"exec_{row.ident}"
    name = f"<{lang.tag} {row.name}>"

    def build() -> CodeType:
        if any(lang.mentions_memory(s) for s in row.body):
            code = (f"if {lang.form[1]}:\n"
                    + textwrap.indent(_step_code(row, False), "    ")
                    + "\nelse:\n"
                    + textwrap.indent(_step_code(row, True), "    "))
        else:
            code = _step_code(row, None)
        src = (f"def {fname}(cpu, i):\n"
               + (f"    {lang.file} = cpu.{lang.file}\n"
                  if f"{lang.file}[" in code else "")
               + textwrap.indent(code, "    ") + "\n")
        return compile(src, name, "exec")

    ns = dict(lang.ns)
    exec(cached(name, row.name, build), ns)
    return cast(Callable[..., None], ns[fname])
