"""The half of code generation that both kcc backends share.

The paper compiles one kernel source for two machines and credits the
data and stack sensitivity gap to how each compilation lays out frames,
homes values and sizes data accesses.  Everything else should take one
shape on both ISAs, so it is lowered here once: statements, loops,
``break``/``continue``, short-circuit conditions and the 0/1 value of a
truth-valued expression.

A backend subclass states its frame (``_prologue``/``_epilogue``),
where locals, parameters and temporaries live, ``compile_assign``,
``_eval_value`` (every expression except the truth-valued ones), and
these primitive hooks:

* ``_alloc()`` / ``_free(loc)`` — take and release a value location;
* ``_jump(label)`` and ``_branch(cond, label)``, where *cond* is a
  condition name from the backend's ``CONDITIONS`` table;
* ``_compare(left, right)`` — evaluate both operands, compare them,
  and return the location still holding the left one;
* ``_branch_if_zero(loc, label)``;
* ``_set_const(loc, value)`` and ``_set_return(loc)``;
* ``_store_var(kind, index, loc)`` for a ``"local"`` or ``"param"``.

A *location* is where ``eval_expr`` leaves a value: always EAX on x86
(whose ``_free`` does nothing), a temp-pool register on PPC.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

from repro.isa.assembler import Reloc
from repro.kcc import ast
from repro.kernel.image import GlobalInfo, StructLayout


class CompileError(Exception):
    pass


@dataclass
class CompiledFunction:
    name: str
    code: bytes
    relocs: List[Reloc]          # left for the linker
    insn_offsets: List[int]


class FunctionCompiler:
    """Compiles one analyzed :class:`ast.FuncDef`; see the module doc
    for what a backend subclass supplies."""

    #: comparison operator -> (condition name taken when the comparison
    #: holds, condition name taken when it does not)
    CONDITIONS: Dict[str, Tuple[str, str]]
    #: register that carries a function's return value
    RETURN_REG: int

    def __init__(self, func: ast.FuncDef,
                 globals_info: Dict[str, GlobalInfo],
                 layouts: Dict[str, StructLayout], asm) -> None:
        self.func = func
        self.globals_info = globals_info
        self.layouts = layouts
        self.asm = asm
        self._label_counter = 0
        self._loop_stack: List[Tuple[str, str]] = []  # (continue, break)
        self._epilogue_label = self._new_label("epilogue")

    def _new_label(self, hint: str = "L") -> str:
        self._label_counter += 1
        return f".{self.func.name}.{hint}{self._label_counter}"

    def compile(self) -> CompiledFunction:
        self._prologue()
        self.compile_block(self.func.body)
        # falling off the end returns whatever the return register holds
        self.asm.label(self._epilogue_label)
        self._epilogue()
        code = self.asm.finish()
        return CompiledFunction(self.func.name, code, self.asm.relocs,
                                list(self.asm.insn_offsets))

    # -- statements ---------------------------------------------------------

    def compile_block(self, body: List[ast.Stmt]) -> None:
        for stmt in body:
            self.compile_stmt(stmt)

    def compile_stmt(self, stmt: ast.Stmt) -> None:
        asm = self.asm
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                loc = self.eval_expr(stmt.init)
                self._store_var("local", stmt.index, loc)
                self._free(loc)
        elif isinstance(stmt, ast.Assign):
            self.compile_assign(stmt)
        elif isinstance(stmt, ast.If):
            else_label = self._new_label("else")
            end_label = self._new_label("endif")
            self.compile_cond(stmt.cond, false_label=else_label)
            self.compile_block(stmt.then_body)
            if stmt.else_body:
                self._jump(end_label)
                asm.label(else_label)
                self.compile_block(stmt.else_body)
                asm.label(end_label)
            else:
                asm.label(else_label)
        elif isinstance(stmt, ast.While):
            head = self._new_label("while")
            end = self._new_label("endwhile")
            asm.label(head)
            self.compile_cond(stmt.cond, false_label=end)
            self._loop_stack.append((head, end))
            self.compile_block(stmt.body)
            self._loop_stack.pop()
            self._jump(head)
            asm.label(end)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                loc = self.eval_expr(stmt.value)
                self._set_return(loc)
                self._free(loc)
            else:
                self._set_const(self.RETURN_REG, 0)
            self._jump(self._epilogue_label)
        elif isinstance(stmt, ast.Break):
            self._jump(self._loop_stack[-1][1])
        elif isinstance(stmt, ast.Continue):
            self._jump(self._loop_stack[-1][0])
        elif isinstance(stmt, ast.ExprStmt):
            self._free(self.eval_expr(stmt.expr))
        else:  # pragma: no cover
            raise CompileError(f"unhandled stmt {type(stmt).__name__}")

    # -- conditions ---------------------------------------------------------

    def compile_cond(self, expr: ast.Expr, false_label: str) -> None:
        """Branch to *false_label* when *expr* is false (0)."""
        asm = self.asm
        if isinstance(expr, ast.Binary) and expr.op in self.CONDITIONS:
            self._free(self._compare(expr.left, expr.right))
            self._branch(self.CONDITIONS[expr.op][1], false_label)
        elif isinstance(expr, ast.Binary) and expr.op == "&&":
            self.compile_cond(expr.left, false_label)
            self.compile_cond(expr.right, false_label)
        elif isinstance(expr, ast.Binary) and expr.op == "||":
            true_label = self._new_label("or")
            fall = self._new_label("orfall")
            self.compile_cond(expr.left, fall)
            self._jump(true_label)
            asm.label(fall)
            self.compile_cond(expr.right, false_label)
            asm.label(true_label)
        elif isinstance(expr, ast.Unary) and expr.op == "!":
            true_label = self._new_label("nottrue")
            self.compile_cond(expr.operand, true_label)
            self._jump(false_label)
            asm.label(true_label)
        else:
            loc = self.eval_expr(expr)
            self._branch_if_zero(loc, false_label)
            self._free(loc)

    # -- expressions --------------------------------------------------------

    def eval_expr(self, expr: ast.Expr) -> int:
        """Evaluate *expr*; return the location that holds its value."""
        if isinstance(expr, ast.Unary) and expr.op == "!":
            loc = self.eval_expr(expr.operand)
            return self._truth_value(partial(self._branch_if_zero, loc),
                                     1, loc)
        if isinstance(expr, ast.Binary) and expr.op in self.CONDITIONS:
            loc = self._compare(expr.left, expr.right)
            return self._truth_value(
                partial(self._branch, self.CONDITIONS[expr.op][0]), 1, loc)
        if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
            return self._truth_value(partial(self.compile_cond, expr), 0)
        return self._eval_value(expr)

    def _truth_value(self, branch, taken_value: int,
                     dest: "int | None" = None) -> int:
        """Materialise 0/1: ``branch(label)`` jumps to *label* exactly
        when the value is *taken_value*.  With no *dest*, the location
        is allocated after the branch code has released its own."""
        taken = self._new_label("bool")
        end = self._new_label("boolend")
        branch(taken)
        if dest is None:
            dest = self._alloc()
        self._set_const(dest, 1 - taken_value)
        self._jump(end)
        self.asm.label(taken)
        self._set_const(dest, taken_value)
        self.asm.label(end)
        return dest
