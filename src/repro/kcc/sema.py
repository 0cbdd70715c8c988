"""Semantic analysis for the kernel DSL.

Binds names, infers expression types, validates calls and assignment
targets, and annotates the AST in place so both backends and the
reference interpreter can consume it without re-resolving anything.

Scoping is deliberately C89-flat: every ``var`` in a function body
(including nested blocks) lives for the whole function and must have a
unique name.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Set

from repro.kcc import ast
from repro.kcc.ast import Type, U32


class SemaError(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Intrinsic(NamedTuple):
    """A compiler intrinsic, stated once for sema, both backends and
    the reference interpreter."""

    arity: int
    width: int = 0           # bytes a memory intrinsic accesses


INTRINSICS: Dict[str, Intrinsic] = {
    "__load8": Intrinsic(1, 1),
    "__load16": Intrinsic(1, 2),
    "__load32": Intrinsic(1, 4),
    "__store8": Intrinsic(2, 1),
    "__store16": Intrinsic(2, 2),
    "__store32": Intrinsic(2, 4),
    "__bug": Intrinsic(0),
    "__panic": Intrinsic(1),
    "__icall0": Intrinsic(1),
    "__icall1": Intrinsic(2),
    "__icall2": Intrinsic(3),
    "__icall3": Intrinsic(4),
}


class _FunctionScope:
    def __init__(self, func: ast.FuncDef):
        self.func = func
        self.params: Dict[str, int] = {}
        self.locals: Dict[str, ast.VarDecl] = {}
        for index, param in enumerate(func.params):
            if param.name in self.params:
                raise SemaError(f"duplicate parameter {param.name}",
                                param.line)
            self.params[param.name] = index
            param.index = index


class Analyzer:
    def __init__(self, program: ast.Program):
        self.program = program
        self.structs: Dict[str, ast.StructDef] = {}
        self.globals: Dict[str, ast.GlobalDef] = {}
        self.functions: Dict[str, ast.FuncDef] = {}

    # -- entry point ------------------------------------------------------

    def run(self) -> ast.Program:
        for struct in self.program.structs:
            if struct.name in self.structs:
                raise SemaError(f"duplicate struct {struct.name}",
                                struct.line)
            self.structs[struct.name] = struct
            seen: Set[str] = set()
            for field in struct.fields:
                if field.name in seen:
                    raise SemaError(
                        f"duplicate field {struct.name}.{field.name}",
                        field.line)
                seen.add(field.name)
                if field.field_type.is_pointer and \
                        field.field_type.pointee not in \
                        ("u8", "u16", "u32") and \
                        field.field_type.pointee not in \
                        {s.name for s in self.program.structs}:
                    raise SemaError(
                        f"unknown struct *{field.field_type.pointee}",
                        field.line)
        for item in self.program.globals:
            if item.name in self.globals:
                raise SemaError(f"duplicate global {item.name}", item.line)
            if item.is_struct and item.struct not in self.structs:
                raise SemaError(f"unknown struct {item.struct}", item.line)
            self.globals[item.name] = item
        for func in self.program.functions:
            if func.name in self.functions:
                raise SemaError(f"duplicate function {func.name}",
                                func.line)
            if func.name in INTRINSICS:
                raise SemaError(
                    f"{func.name} collides with an intrinsic", func.line)
            self.functions[func.name] = func
        for func in self.program.functions:
            self._analyze_function(func)
        return self.program

    # -- functions -----------------------------------------------------------

    def _analyze_function(self, func: ast.FuncDef) -> None:
        scope = _FunctionScope(func)
        func.locals = []
        func.has_calls = False
        self._analyze_block(func.body, scope, in_loop=False)

    def _analyze_block(self, body: List[ast.Stmt], scope: _FunctionScope,
                       in_loop: bool) -> None:
        for stmt in body:
            self._analyze_stmt(stmt, scope, in_loop)

    def _analyze_stmt(self, stmt: ast.Stmt, scope: _FunctionScope,
                      in_loop: bool) -> None:
        if isinstance(stmt, ast.VarDecl):
            if stmt.name in scope.locals or stmt.name in scope.params:
                raise SemaError(f"duplicate variable {stmt.name}",
                                stmt.line)
            if stmt.var_type.is_pointer and \
                    stmt.var_type.pointee not in ("u8", "u16", "u32") and \
                    stmt.var_type.pointee not in self.structs:
                raise SemaError(f"unknown struct *{stmt.var_type.pointee}",
                                stmt.line)
            stmt.index = len(scope.func.locals)
            scope.func.locals.append(stmt)
            scope.locals[stmt.name] = stmt
            if stmt.init is not None:
                self._analyze_expr(stmt.init, scope)
        elif isinstance(stmt, ast.Assign):
            self._analyze_expr(stmt.target, scope)
            if isinstance(stmt.target, ast.Name):
                if stmt.target.kind not in ("local", "param", "global"):
                    raise SemaError(
                        f"cannot assign to {stmt.target.name}", stmt.line)
                if stmt.target.kind == "global" and \
                        self.globals[stmt.target.name].count > 1:
                    raise SemaError(
                        f"cannot assign whole array {stmt.target.name}",
                        stmt.line)
            elif isinstance(stmt.target, ast.Index):
                if stmt.target.struct_array:
                    raise SemaError("cannot assign to struct array element",
                                    stmt.line)
            self._analyze_expr(stmt.value, scope)
        elif isinstance(stmt, ast.If):
            self._analyze_expr(stmt.cond, scope)
            self._analyze_block(stmt.then_body, scope, in_loop)
            self._analyze_block(stmt.else_body, scope, in_loop)
        elif isinstance(stmt, ast.While):
            self._analyze_expr(stmt.cond, scope)
            self._analyze_block(stmt.body, scope, in_loop=True)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._analyze_expr(stmt.value, scope)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if not in_loop:
                raise SemaError("break/continue outside loop", stmt.line)
        elif isinstance(stmt, ast.ExprStmt):
            self._analyze_expr(stmt.expr, scope)
        else:  # pragma: no cover - parser produces no other nodes
            raise SemaError(f"unknown statement {type(stmt).__name__}",
                            stmt.line)

    # -- expressions -----------------------------------------------------------

    def _analyze_expr(self, expr: ast.Expr, scope: _FunctionScope) -> Type:
        if isinstance(expr, ast.Num):
            expr.type = U32
        elif isinstance(expr, ast.Name):
            expr.type = self._bind_name(expr, scope)
        elif isinstance(expr, ast.AddrOf):
            if expr.name in self.globals:
                expr.kind = "global"
                item = self.globals[expr.name]
                if item.is_struct:
                    expr.type = Type(4, pointee=item.struct)
                else:
                    expr.type = Type(4, pointee=str(item.var_type))
            elif expr.name in self.functions:
                expr.kind = "func"
                expr.type = U32
            else:
                raise SemaError(f"cannot take address of {expr.name}",
                                expr.line)
        elif isinstance(expr, ast.Unary):
            self._analyze_expr(expr.operand, scope)
            expr.type = U32
        elif isinstance(expr, ast.Binary):
            left = self._analyze_expr(expr.left, scope)
            right = self._analyze_expr(expr.right, scope)
            if expr.op in ("+", "-") and left.is_pointer:
                expr.type = left
            elif expr.op == "+" and right.is_pointer:
                expr.type = right
            else:
                expr.type = U32
        elif isinstance(expr, ast.Call):
            if expr.name in INTRINSICS:
                expr.intrinsic = True
                arity = INTRINSICS[expr.name].arity
                if len(expr.args) != arity:
                    raise SemaError(
                        f"{expr.name} expects {arity} args, "
                        f"got {len(expr.args)}", expr.line)
                expr.type = U32
            else:
                func = self.functions.get(expr.name)
                if func is None:
                    raise SemaError(f"unknown function {expr.name}",
                                    expr.line)
                if len(expr.args) != len(func.params):
                    raise SemaError(
                        f"{expr.name} expects {len(func.params)} args, "
                        f"got {len(expr.args)}", expr.line)
                expr.type = func.return_type
            scope.func.has_calls = True
            for arg in expr.args:
                self._analyze_expr(arg, scope)
        elif isinstance(expr, ast.FieldAccess):
            base = self._analyze_expr(expr.base, scope)
            if not base.is_pointer or base.pointee in ("u8", "u16", "u32"):
                raise SemaError(
                    f"field access on non-struct-pointer ({base})",
                    expr.line)
            struct = self.structs.get(base.pointee)
            if struct is None:
                raise SemaError(f"unknown struct {base.pointee}", expr.line)
            expr.struct = struct.name
            for field in struct.fields:
                if field.name == expr.field_name:
                    expr.type = field.field_type
                    break
            else:
                raise SemaError(
                    f"no field {expr.field_name} in {struct.name}",
                    expr.line)
        elif isinstance(expr, ast.Index):
            item = self.globals.get(expr.name)
            if item is None:
                raise SemaError(f"indexing unknown global {expr.name}",
                                expr.line)
            self._analyze_expr(expr.index, scope)
            if item.is_struct:
                expr.struct_array = True
                expr.elem = Type(4, pointee=item.struct)
                expr.type = expr.elem
            else:
                expr.struct_array = False
                expr.elem = item.var_type
                expr.type = item.var_type
        elif isinstance(expr, ast.SizeOf):
            if expr.struct not in self.structs:
                raise SemaError(f"sizeof unknown struct {expr.struct}",
                                expr.line)
            expr.type = U32
        else:  # pragma: no cover
            raise SemaError(f"unknown expression {type(expr).__name__}",
                            expr.line)
        return expr.type

    def _bind_name(self, expr: ast.Name, scope: _FunctionScope) -> Type:
        if expr.name in scope.locals:
            decl = scope.locals[expr.name]
            expr.kind = "local"
            expr.index = decl.index
            return decl.var_type
        if expr.name in scope.params:
            index = scope.params[expr.name]
            expr.kind = "param"
            expr.index = index
            return scope.func.params[index].var_type
        if expr.name in self.globals:
            item = self.globals[expr.name]
            if item.count > 1 or item.is_struct:
                raise SemaError(
                    f"{expr.name} is an array/struct; index it or take "
                    f"its address", expr.line)
            expr.kind = "global"
            return item.var_type
        if expr.name in self.program.consts:
            expr.kind = "const"
            expr.index = self.program.consts[expr.name]
            return U32
        raise SemaError(f"unknown name {expr.name}", expr.line)


def analyze(program: ast.Program) -> ast.Program:
    """Run semantic analysis, annotating *program* in place."""
    return Analyzer(program).run()
