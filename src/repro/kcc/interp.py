"""Reference interpreter for the kernel DSL.

Executes the analyzed AST directly against the *same memory image and
layout* as the compiled code for a given architecture, so compiled
execution on a simulated CPU can be differentially tested against it:
same arguments, same initial memory, then compare return values and the
final data-section bytes.

The interpreter reproduces each backend's observable memory semantics —
on the PPC layout, struct-field loads are masked in-register and stores
write the full raw word; on the x86 layout, fields are accessed with
their natural widths.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.memory import PhysicalMemory
from repro.kcc import ast
from repro.kcc.sema import INTRINSICS
from repro.kernel.image import KernelImage

MASK32 = 0xFFFFFFFF


class InterpError(Exception):
    pass


class InterpTrap(Exception):
    """A deliberate trap (__bug / __panic) reached during interpretation."""

    def __init__(self, kind: str, code: int = 0):
        self.kind = kind
        self.code = code
        super().__init__(f"{kind}({code})")


class _ReturnSignal(Exception):
    def __init__(self, value: int):
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class Interp:
    """Interpreter of an analyzed *program*, bound to the
    :class:`KernelImage` linked from it and to a memory."""

    def __init__(self, program: ast.Program, image: KernelImage,
                 memory: PhysicalMemory, max_steps: int = 2_000_000):
        self.program = program
        self.image = image
        self.mem = memory
        self.max_steps = max_steps
        self.steps = 0
        self._addr_to_func = {info.addr: name
                              for name, info in image.functions.items()}

    # -- memory helpers -----------------------------------------------------

    def _read(self, addr: int, width: int) -> int:
        little = self.image.little_endian
        if width == 4:
            return self.mem.read_u32(addr, little)
        if width == 2:
            return self.mem.read_u16(addr, little)
        return self.mem.read_u8(addr)

    def _write(self, addr: int, value: int, width: int) -> None:
        little = self.image.little_endian
        if width == 4:
            self.mem.write_u32(addr, value, little)
        elif width == 2:
            self.mem.write_u16(addr, value, little)
        else:
            self.mem.write_u8(addr, value)

    # -- public API -----------------------------------------------------------

    def call(self, name: str, args: Optional[List[int]] = None) -> int:
        """Run function *name* to completion and return its result."""
        func = self.program.function_by_name(name)
        args = list(args or [])
        if len(args) != len(func.params):
            raise InterpError(
                f"{name} expects {len(func.params)} args, got {len(args)}")
        frame: Dict[str, int] = {}
        for index, value in enumerate(args):
            frame[f"p{index}"] = value & MASK32
        for index in range(len(func.locals)):
            frame[f"l{index}"] = 0
        try:
            self._exec_block(func.body, frame)
        except _ReturnSignal as signal:
            return signal.value
        return 0

    # -- statements ----------------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpError("interpreter step budget exceeded")

    def _exec_block(self, body: List[ast.Stmt],
                    frame: Dict[str, int]) -> None:
        for stmt in body:
            self._exec_stmt(stmt, frame)

    def _exec_stmt(self, stmt: ast.Stmt, frame: Dict[str, int]) -> None:
        self._tick()
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                frame[f"l{stmt.index}"] = self._eval(stmt.init, frame)
        elif isinstance(stmt, ast.Assign):
            self._assign(stmt, frame)
        elif isinstance(stmt, ast.If):
            if self._eval(stmt.cond, frame):
                self._exec_block(stmt.then_body, frame)
            else:
                self._exec_block(stmt.else_body, frame)
        elif isinstance(stmt, ast.While):
            while self._eval(stmt.cond, frame):
                self._tick()
                try:
                    self._exec_block(stmt.body, frame)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(stmt, ast.Return):
            value = self._eval(stmt.value, frame) \
                if stmt.value is not None else 0
            raise _ReturnSignal(value)
        elif isinstance(stmt, ast.Break):
            raise _BreakSignal()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, frame)
        else:  # pragma: no cover
            raise InterpError(f"unhandled stmt {type(stmt).__name__}")

    def _assign(self, stmt: ast.Assign, frame: Dict[str, int]) -> None:
        target = stmt.target
        if isinstance(target, ast.Name):
            value = self._eval(stmt.value, frame)
            if target.kind == "local":
                frame[f"l{target.index}"] = value
            elif target.kind == "param":
                frame[f"p{target.index}"] = value
            else:
                info = self.image.globals[target.name]
                self._write(info.addr, value, info.access_width)
        elif isinstance(target, ast.FieldAccess):
            field = self.image.field(target.struct, target.field_name)
            base = self._eval(target.base, frame)
            value = self._eval(stmt.value, frame)
            self._write((base + field.offset) & MASK32, value,
                        field.access_width)
        elif isinstance(target, ast.Index):
            info = self.image.globals[target.name]
            index = self._eval(target.index, frame)
            value = self._eval(stmt.value, frame)
            addr = (info.addr + index * info.elem_size) & MASK32
            self._write(addr, value, info.access_width)
        else:  # pragma: no cover
            raise InterpError("invalid assignment target")

    # -- expressions -----------------------------------------------------------------

    def _eval(self, expr: ast.Expr, frame: Dict[str, int]) -> int:
        self._tick()
        if isinstance(expr, ast.Num):
            return expr.value & MASK32
        if isinstance(expr, ast.Name):
            if expr.kind == "local":
                return frame[f"l{expr.index}"]
            if expr.kind == "param":
                return frame[f"p{expr.index}"]
            if expr.kind == "const":
                return expr.index & MASK32
            info = self.image.globals[expr.name]
            value = self._read(info.addr, info.access_width)
            if info.load_mask:
                value &= info.load_mask
            return value
        if isinstance(expr, ast.AddrOf):
            if expr.kind == "global":
                return self.image.globals[expr.name].addr
            return self.image.functions[expr.name].addr
        if isinstance(expr, ast.SizeOf):
            return self.image.sizeof(expr.struct)
        if isinstance(expr, ast.Unary):
            value = self._eval(expr.operand, frame)
            if expr.op == "-":
                return (-value) & MASK32
            if expr.op == "~":
                return (~value) & MASK32
            return 0 if value else 1
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, frame)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, frame)
        if isinstance(expr, ast.FieldAccess):
            field = self.image.field(expr.struct, expr.field_name)
            base = self._eval(expr.base, frame)
            value = self._read((base + field.offset) & MASK32,
                               field.access_width)
            if field.load_mask:
                value &= field.load_mask
            return value
        if isinstance(expr, ast.Index):
            info = self.image.globals[expr.name]
            index = self._eval(expr.index, frame)
            if expr.struct_array:
                return (info.addr + index * info.elem_size) & MASK32
            return self._read(
                (info.addr + index * info.elem_size) & MASK32,
                info.access_width)
        raise InterpError(
            f"unhandled expr {type(expr).__name__}")  # pragma: no cover

    def _eval_binary(self, expr: ast.Binary, frame: Dict[str, int]) -> int:
        op = expr.op
        if op == "&&":
            return 1 if (self._eval(expr.left, frame)
                         and self._eval(expr.right, frame)) else 0
        if op == "||":
            return 1 if (self._eval(expr.left, frame)
                         or self._eval(expr.right, frame)) else 0
        a = self._eval(expr.left, frame)
        b = self._eval(expr.right, frame)
        if op == "+":
            return (a + b) & MASK32
        if op == "-":
            return (a - b) & MASK32
        if op == "*":
            return (a * b) & MASK32
        if op == "/":
            if b == 0:
                raise InterpTrap("divide-by-zero")
            return a // b
        if op == "%":
            if b == 0:
                raise InterpTrap("divide-by-zero")
            return a % b
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "<<":
            # shift-count semantics differ: x86 masks the count to 5
            # bits; PPC's slw produces 0 for counts 32-63
            if self.image.arch == "x86":
                return (a << (b & 31)) & MASK32
            return (a << (b & 31)) & MASK32 if (b & 0x3F) < 32 else 0
        if op == ">>":
            if self.image.arch == "x86":
                return a >> (b & 31)
            return (a >> (b & 31)) if (b & 0x3F) < 32 else 0
        if op == "==":
            return 1 if a == b else 0
        if op == "!=":
            return 1 if a != b else 0
        if op == "<":
            return 1 if a < b else 0
        if op == "<=":
            return 1 if a <= b else 0
        if op == ">":
            return 1 if a > b else 0
        if op == ">=":
            return 1 if a >= b else 0
        raise InterpError(f"unhandled operator {op}")  # pragma: no cover

    def _eval_call(self, expr: ast.Call, frame: Dict[str, int]) -> int:
        if not expr.intrinsic:
            args = [self._eval(arg, frame) for arg in expr.args]
            return self.call(expr.name, args)
        name = expr.name
        if name.startswith("__load"):
            width = INTRINSICS[name].width
            return self._read(self._eval(expr.args[0], frame), width)
        if name.startswith("__store"):
            width = INTRINSICS[name].width
            addr = self._eval(expr.args[0], frame)
            value = self._eval(expr.args[1], frame)
            self._write(addr, value, width)
            return addr
        if name == "__bug":
            raise InterpTrap("bug")
        if name == "__panic":
            code = self._eval(expr.args[0], frame)
            info = self.image.globals.get("panic_code")
            if info is not None:
                self._write(info.addr, code, 4)
            raise InterpTrap("panic", code)
        if name.startswith("__icall"):
            target = self._eval(expr.args[0], frame)
            fname = self._addr_to_func.get(target)
            if fname is None:
                raise InterpError(
                    f"indirect call to non-function address {target:#x}")
            args = [self._eval(arg, frame) for arg in expr.args[1:]]
            return self.call(fname, args)
        raise InterpError(f"unknown intrinsic {name}")  # pragma: no cover
