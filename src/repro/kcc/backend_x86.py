"""x86 code generator for the kernel DSL.

Code shape mirrors GCC 3.2 on IA-32 at the optimization level the
paper's kernel was built with:

* cdecl frames: ``push %ebp; mov %esp,%ebp; push %edi/%esi/%ebx;
  sub $N,%esp`` and the matching ``lea -0xc(%ebp),%esp; pop %ebx; pop
  %esi; pop %edi; pop %ebp; ret`` epilogue (exactly the paper's
  Figure 7 byte pattern);
* only three callee-saved registers are available to home locals — all
  other locals live in ``-N(%ebp)`` stack slots, and expression
  evaluation pushes intermediates, so the kernel stack carries dense,
  fully-meaningful 8/16/32-bit traffic (the paper's P4 stack
  sensitivity);
* struct fields are accessed at packed offsets with their natural
  width (``mov %al``, ``mov %ax``, ``mov %eax``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.kcc import ast
from repro.kernel.image import GlobalInfo, StructLayout
from repro.x86.assembler import Mem, Reloc, X86Assembler

EAX, ECX, EDX, EBX, ESP, EBP, ESI, EDI = range(8)

#: callee-saved registers used to home the first locals (allocation
#: order matches GCC's preference: ebx, esi, edi)
_REG_HOMES = (EBX, ESI, EDI)


class CompileError(Exception):
    pass


@dataclass
class CompiledFunction:
    name: str
    code: bytes
    relocs: List[Reloc]
    insn_offsets: List[int]


class X86FunctionCompiler:
    """Compiles one analyzed :class:`ast.FuncDef` to IA-32 code."""

    def __init__(self, func: ast.FuncDef,
                 globals_info: Dict[str, GlobalInfo],
                 layouts: Dict[str, StructLayout]):
        self.func = func
        self.globals_info = globals_info
        self.layouts = layouts
        self.asm = X86Assembler()
        self._label_counter = 0
        self._loop_stack: List[tuple] = []   # (continue_label, break_label)
        self._epilogue_label = self._new_label("epilogue")

        # locals: first three in callee-saved registers, rest on stack
        self.reg_locals: Dict[int, int] = {}       # local index -> reg
        self.slot_locals: Dict[int, int] = {}      # local index -> ebp disp
        for index, _decl in enumerate(func.locals):
            if index < len(_REG_HOMES):
                self.reg_locals[index] = _REG_HOMES[index]
            else:
                slot = index - len(_REG_HOMES)
                self.slot_locals[index] = -16 - 4 * slot
        self.stack_slot_count = max(0, len(func.locals) - len(_REG_HOMES))

    # -- small helpers --------------------------------------------------------

    def _new_label(self, hint: str = "L") -> str:
        self._label_counter += 1
        return f".{self.func.name}.{hint}{self._label_counter}"

    def _param_mem(self, index: int) -> Mem:
        return Mem(base=EBP, disp=8 + 4 * index)

    def _local_is_reg(self, index: int) -> bool:
        return index in self.reg_locals

    # -- entry point ------------------------------------------------------------

    def compile(self) -> CompiledFunction:
        asm = self.asm
        asm.push_r(EBP)
        asm.mov_rm_r(EBP, ESP)                # mov %esp,%ebp
        asm.push_r(EDI)
        asm.push_r(ESI)
        asm.push_r(EBX)
        if self.stack_slot_count:
            asm.alu_rm_imm("sub", ESP, 4 * self.stack_slot_count)
        self.compile_block(self.func.body)
        # fall-through return (value undefined, eax as-is)
        asm.label(self._epilogue_label)
        asm.lea(ESP, Mem(base=EBP, disp=-12))
        asm.pop_r(EBX)
        asm.pop_r(ESI)
        asm.pop_r(EDI)
        asm.pop_r(EBP)
        asm.ret()
        code = asm.finish()
        return CompiledFunction(self.func.name, code, asm.relocs,
                                list(asm.insn_offsets))

    # -- statements -----------------------------------------------------------------

    def compile_block(self, body: List[ast.Stmt]) -> None:
        for stmt in body:
            self.compile_stmt(stmt)

    def compile_stmt(self, stmt: ast.Stmt) -> None:
        asm = self.asm
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                self.eval_expr(stmt.init)
                self._store_local(stmt.index)
        elif isinstance(stmt, ast.Assign):
            self.compile_assign(stmt)
        elif isinstance(stmt, ast.If):
            else_label = self._new_label("else")
            end_label = self._new_label("endif")
            self.compile_cond(stmt.cond, false_label=else_label)
            self.compile_block(stmt.then_body)
            if stmt.else_body:
                asm.jmp_label(end_label)
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
            asm.jmp_label(head)
            asm.label(end)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval_expr(stmt.value)
            else:
                asm.mov_r_imm(EAX, 0)
            asm.jmp_label(self._epilogue_label)
        elif isinstance(stmt, ast.Break):
            asm.jmp_label(self._loop_stack[-1][1])
        elif isinstance(stmt, ast.Continue):
            asm.jmp_label(self._loop_stack[-1][0])
        elif isinstance(stmt, ast.ExprStmt):
            self.eval_expr(stmt.expr)
        else:  # pragma: no cover
            raise CompileError(f"unhandled stmt {type(stmt).__name__}")

    def _store_local(self, index: int) -> None:
        """Store EAX into a local's home."""
        if self._local_is_reg(index):
            self.asm.mov_rm_r(self.reg_locals[index], EAX)
        else:
            self.asm.mov_rm_r(Mem(base=EBP,
                                  disp=self.slot_locals[index]), EAX)

    def compile_assign(self, stmt: ast.Assign) -> None:
        asm = self.asm
        target = stmt.target
        if isinstance(target, ast.Name):
            self.eval_expr(stmt.value)
            if target.kind == "local":
                self._store_local(target.index)
            elif target.kind == "param":
                asm.mov_rm_r(self._param_mem(target.index), EAX)
            else:   # global scalar
                info = self.globals_info[target.name]
                asm.mov_rm_r(Mem(disp=info.addr), EAX,
                             width=info.access_width)
        elif isinstance(target, ast.FieldAccess):
            field = self.layouts[target.struct].field(target.field_name)
            self.eval_expr(target.base)
            asm.push_r(EAX)
            self.eval_expr(stmt.value)
            asm.pop_r(ECX)
            asm.mov_rm_r(Mem(base=ECX, disp=field.offset), EAX,
                         width=field.access_width)
        elif isinstance(target, ast.Index):
            info = self.globals_info[target.name]
            self.eval_expr(target.index)
            asm.push_r(EAX)
            self.eval_expr(stmt.value)
            asm.pop_r(ECX)
            if info.elem_size in (1, 2, 4):
                asm.mov_rm_r(Mem(index=ECX, scale=info.elem_size,
                                 disp=info.addr), EAX,
                             width=info.access_width)
            else:
                asm.imul_r_rm_imm(ECX, ECX, info.elem_size)
                asm.mov_rm_r(Mem(index=ECX, scale=1, disp=info.addr),
                             EAX, width=info.access_width)
        else:  # pragma: no cover
            raise CompileError("invalid assignment target")

    # -- conditions -------------------------------------------------------------------

    _NEGATED = {"==": "ne", "!=": "e", "<": "ae", "<=": "a",
                ">": "be", ">=": "b"}

    def compile_cond(self, expr: ast.Expr, false_label: str) -> None:
        """Branch to *false_label* when *expr* is false (0)."""
        asm = self.asm
        if isinstance(expr, ast.Binary) and expr.op in self._NEGATED:
            self.eval_expr(expr.left)
            asm.push_r(EAX)
            self.eval_expr(expr.right)
            asm.mov_rm_r(ECX, EAX)
            asm.pop_r(EAX)
            asm.alu_r_rm("cmp", EAX, ECX)
            asm.jcc_label(self._NEGATED[expr.op], false_label)
            return
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            self.compile_cond(expr.left, false_label)
            self.compile_cond(expr.right, false_label)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            true_label = self._new_label("or")
            self.compile_truthy(expr.left, true_label)
            self.compile_cond(expr.right, false_label)
            asm.label(true_label)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            true_label = self._new_label("nottrue")
            self.compile_cond(expr.operand, true_label)
            asm.jmp_label(false_label)
            asm.label(true_label)
            return
        self.eval_expr(expr)
        asm.test_rm_r(EAX, EAX)
        asm.jcc_label("e", false_label)

    def compile_truthy(self, expr: ast.Expr, true_label: str) -> None:
        """Branch to *true_label* when *expr* is true (non-zero)."""
        fall = self._new_label("truthyfall")
        self.compile_cond(expr, false_label=fall)
        self.asm.jmp_label(true_label)
        self.asm.label(fall)

    # -- expressions -----------------------------------------------------------------

    def eval_expr(self, expr: ast.Expr) -> None:
        """Evaluate *expr*; result in EAX (clobbers ECX/EDX, may push)."""
        asm = self.asm
        if isinstance(expr, ast.Num):
            asm.mov_r_imm(EAX, expr.value)
        elif isinstance(expr, ast.Name):
            self._eval_name(expr)
        elif isinstance(expr, ast.AddrOf):
            if expr.kind == "global":
                asm.mov_r_imm(EAX, self.globals_info[expr.name].addr)
            else:
                asm.mov_r_imm_sym(EAX, expr.name)
        elif isinstance(expr, ast.SizeOf):
            asm.mov_r_imm(EAX, self.layouts[expr.struct].size)
        elif isinstance(expr, ast.Unary):
            self.eval_expr(expr.operand)
            if expr.op == "-":
                asm.neg_rm(EAX)
            elif expr.op == "~":
                asm.not_rm(EAX)
            else:   # !
                zero = self._new_label("notz")
                end = self._new_label("notend")
                asm.test_rm_r(EAX, EAX)
                asm.jcc_label("e", zero)
                asm.mov_r_imm(EAX, 0)
                asm.jmp_label(end)
                asm.label(zero)
                asm.mov_r_imm(EAX, 1)
                asm.label(end)
        elif isinstance(expr, ast.Binary):
            self._eval_binary(expr)
        elif isinstance(expr, ast.Call):
            self._eval_call(expr)
        elif isinstance(expr, ast.FieldAccess):
            field = self.layouts[expr.struct].field(expr.field_name)
            self.eval_expr(expr.base)
            src = Mem(base=EAX, disp=field.offset)
            if field.access_width == 4:
                asm.mov_r_rm(EAX, src)
            else:
                asm.movzx(EAX, src, field.access_width)
        elif isinstance(expr, ast.Index):
            self._eval_index(expr)
        else:  # pragma: no cover
            raise CompileError(f"unhandled expr {type(expr).__name__}")

    def _eval_name(self, expr: ast.Name) -> None:
        asm = self.asm
        if expr.kind == "local":
            if self._local_is_reg(expr.index):
                asm.mov_rm_r(EAX, self.reg_locals[expr.index])
            else:
                asm.mov_r_rm(EAX, Mem(base=EBP,
                                      disp=self.slot_locals[expr.index]))
        elif expr.kind == "param":
            asm.mov_r_rm(EAX, self._param_mem(expr.index))
        elif expr.kind == "global":
            info = self.globals_info[expr.name]
            src = Mem(disp=info.addr)
            if info.access_width == 4:
                asm.mov_r_rm(EAX, src)
            else:
                asm.movzx(EAX, src, info.access_width)
        elif expr.kind == "const":
            asm.mov_r_imm(EAX, expr.index)
        else:  # pragma: no cover
            raise CompileError(f"unbound name {expr.name}")

    def _eval_index(self, expr: ast.Index) -> None:
        asm = self.asm
        info = self.globals_info[expr.name]
        self.eval_expr(expr.index)
        if expr.struct_array:
            if info.elem_size in (1, 2, 4, 8):
                asm.lea(EAX, Mem(index=EAX, scale=info.elem_size,
                                 disp=info.addr))
            else:
                asm.imul_r_rm_imm(EAX, EAX, info.elem_size)
                asm.alu_rm_imm("add", EAX, info.addr)
            return
        if info.elem_size in (1, 2, 4):
            src = Mem(index=EAX, scale=info.elem_size, disp=info.addr)
        else:  # pragma: no cover - scalar arrays always 1/2/4
            raise CompileError("bad element size")
        if info.access_width == 4:
            asm.mov_r_rm(EAX, src)
        else:
            asm.movzx(EAX, src, info.access_width)

    def _eval_binary(self, expr: ast.Binary) -> None:
        asm = self.asm
        op = expr.op
        if op in ("&&", "||"):
            end = self._new_label("sc_end")
            if op == "&&":
                false_label = self._new_label("sc_false")
                self.compile_cond(expr, false_label)
                asm.mov_r_imm(EAX, 1)
                asm.jmp_label(end)
                asm.label(false_label)
                asm.mov_r_imm(EAX, 0)
            else:
                false_label = self._new_label("sc_false")
                self.compile_cond(expr, false_label)
                asm.mov_r_imm(EAX, 1)
                asm.jmp_label(end)
                asm.label(false_label)
                asm.mov_r_imm(EAX, 0)
            asm.label(end)
            return
        self.eval_expr(expr.left)
        asm.push_r(EAX)
        self.eval_expr(expr.right)
        asm.mov_rm_r(ECX, EAX)               # right -> ecx
        asm.pop_r(EAX)                       # left  -> eax
        if op == "+":
            asm.alu_r_rm("add", EAX, ECX)
        elif op == "-":
            asm.alu_r_rm("sub", EAX, ECX)
        elif op == "&":
            asm.alu_r_rm("and", EAX, ECX)
        elif op == "|":
            asm.alu_r_rm("or", EAX, ECX)
        elif op == "^":
            asm.alu_r_rm("xor", EAX, ECX)
        elif op == "*":
            asm.imul_r_rm(EAX, ECX)
        elif op == "/":
            asm.alu_r_rm("xor", EDX, EDX)
            asm.div_rm(ECX)
        elif op == "%":
            asm.alu_r_rm("xor", EDX, EDX)
            asm.div_rm(ECX)
            asm.mov_rm_r(EAX, EDX)
        elif op == "<<":
            asm.shift_rm_cl("shl", EAX)
        elif op == ">>":
            asm.shift_rm_cl("shr", EAX)
        elif op in self._NEGATED:
            true_label = self._new_label("cmp1")
            end = self._new_label("cmpend")
            asm.alu_r_rm("cmp", EAX, ECX)
            cond = {"==": "e", "!=": "ne", "<": "b", "<=": "be",
                    ">": "a", ">=": "ae"}[op]
            asm.jcc_label(cond, true_label)
            asm.mov_r_imm(EAX, 0)
            asm.jmp_label(end)
            asm.label(true_label)
            asm.mov_r_imm(EAX, 1)
            asm.label(end)
        else:  # pragma: no cover
            raise CompileError(f"unhandled operator {op}")

    def _eval_call(self, expr: ast.Call) -> None:
        asm = self.asm
        if expr.intrinsic:
            self._eval_intrinsic(expr)
            return
        for arg in reversed(expr.args):
            self.eval_expr(arg)
            asm.push_r(EAX)
        asm.call_sym(expr.name)
        if expr.args:
            asm.alu_rm_imm("add", ESP, 4 * len(expr.args))

    def _eval_intrinsic(self, expr: ast.Call) -> None:
        asm = self.asm
        name = expr.name
        if name in ("__load8", "__load16", "__load32"):
            width = {"__load8": 1, "__load16": 2, "__load32": 4}[name]
            self.eval_expr(expr.args[0])
            if width == 4:
                asm.mov_r_rm(EAX, Mem(base=EAX))
            else:
                asm.movzx(EAX, Mem(base=EAX), width)
        elif name in ("__store8", "__store16", "__store32"):
            width = {"__store8": 1, "__store16": 2, "__store32": 4}[name]
            self.eval_expr(expr.args[0])
            asm.push_r(EAX)
            self.eval_expr(expr.args[1])
            asm.pop_r(ECX)
            asm.mov_rm_r(Mem(base=ECX), EAX, width=width)
        elif name == "__bug":
            asm.ud2a()
        elif name == "__panic":
            info = self.globals_info.get("panic_code")
            if info is None:
                raise CompileError(
                    "__panic requires a 'global panic_code: u32;'")
            self.eval_expr(expr.args[0])
            asm.mov_rm_r(Mem(disp=info.addr), EAX)
            asm.ud2a()
        elif name.startswith("__icall"):
            for arg in reversed(expr.args[1:]):
                self.eval_expr(arg)
                asm.push_r(EAX)
            self.eval_expr(expr.args[0])
            asm.call_rm(EAX)
            extra = len(expr.args) - 1
            if extra:
                asm.alu_rm_imm("add", ESP, 4 * extra)
        else:  # pragma: no cover
            raise CompileError(f"unknown intrinsic {name}")


def compile_function(func: ast.FuncDef,
                     globals_info: Dict[str, GlobalInfo],
                     layouts: Dict[str, StructLayout]) -> CompiledFunction:
    return X86FunctionCompiler(func, globals_info, layouts).compile()
