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

from typing import Dict

from repro.kcc import ast
from repro.kcc.codegen import CompileError, FunctionCompiler
from repro.kcc.sema import INTRINSICS
from repro.kernel.image import GlobalInfo, StructLayout
from repro.x86.assembler import Mem, X86Assembler

EAX, ECX, EDX, EBX, ESP, EBP, ESI, EDI = range(8)

#: callee-saved registers used to home the first locals (allocation
#: order matches GCC's preference: ebx, esi, edi)
_REG_HOMES = (EBX, ESI, EDI)

#: two-operand ALU operators (``op %ecx,%eax``)
_ALU = {"+": "add", "-": "sub", "&": "and", "|": "or", "^": "xor"}


class X86FunctionCompiler(FunctionCompiler):
    """Compiles one analyzed :class:`ast.FuncDef` to IA-32 code.

    Every value is computed in EAX; intermediates are pushed."""

    CONDITIONS = {"==": ("e", "ne"), "!=": ("ne", "e"), "<": ("b", "ae"),
                  "<=": ("be", "a"), ">": ("a", "be"), ">=": ("ae", "b")}
    RETURN_REG = EAX

    def __init__(self, func: ast.FuncDef,
                 globals_info: Dict[str, GlobalInfo],
                 layouts: Dict[str, StructLayout]):
        super().__init__(func, globals_info, layouts, X86Assembler())
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

    def _param_mem(self, index: int) -> Mem:
        return Mem(base=EBP, disp=8 + 4 * index)

    # -- frame ------------------------------------------------------------------

    def _prologue(self) -> None:
        asm = self.asm
        asm.push_r(EBP)
        asm.mov_rm_r(EBP, ESP)                # mov %esp,%ebp
        asm.push_r(EDI)
        asm.push_r(ESI)
        asm.push_r(EBX)
        if self.stack_slot_count:
            asm.alu_rm_imm("sub", ESP, 4 * self.stack_slot_count)

    def _epilogue(self) -> None:
        asm = self.asm
        asm.lea(ESP, Mem(base=EBP, disp=-12))
        asm.pop_r(EBX)
        asm.pop_r(ESI)
        asm.pop_r(EDI)
        asm.pop_r(EBP)
        asm.ret()

    # -- primitive hooks --------------------------------------------------------

    def _alloc(self) -> int:
        return EAX

    def _free(self, loc: int) -> None:
        pass

    def _jump(self, label: str) -> None:
        self.asm.jmp_label(label)

    def _branch(self, cond: str, label: str) -> None:
        self.asm.jcc_label(cond, label)

    def _branch_if_zero(self, loc: int, label: str) -> None:
        self.asm.test_rm_r(loc, loc)
        self.asm.jcc_label("e", label)

    def _set_const(self, loc: int, value: int) -> None:
        self.asm.mov_r_imm(loc, value)

    def _set_return(self, loc: int) -> None:
        pass                                  # already in EAX

    def _store_var(self, kind: str, index: int, loc: int) -> None:
        if kind == "param":
            home = self._param_mem(index)
        elif index in self.reg_locals:
            home = self.reg_locals[index]
        else:
            home = Mem(base=EBP, disp=self.slot_locals[index])
        self.asm.mov_rm_r(home, loc)

    def _compare(self, left: ast.Expr, right: ast.Expr) -> int:
        self._eval_operands(left, right)
        self.asm.alu_r_rm("cmp", EAX, ECX)
        return EAX

    def _eval_operands(self, left: ast.Expr, right: ast.Expr) -> None:
        """Left operand into EAX, right into ECX (through the stack)."""
        asm = self.asm
        self.eval_expr(left)
        asm.push_r(EAX)
        self.eval_expr(right)
        asm.mov_rm_r(ECX, EAX)
        asm.pop_r(EAX)

    def _load(self, src: Mem, width: int) -> None:
        """Load a *width*-byte value into EAX, zero-extended."""
        if width == 4:
            self.asm.mov_r_rm(EAX, src)
        else:
            self.asm.movzx(EAX, src, width)

    # -- assignment -------------------------------------------------------------

    def compile_assign(self, stmt: ast.Assign) -> None:
        asm = self.asm
        target = stmt.target
        if isinstance(target, ast.Name):
            self.eval_expr(stmt.value)
            if target.kind in ("local", "param"):
                self._store_var(target.kind, target.index, EAX)
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

    # -- expressions ------------------------------------------------------------

    def _eval_value(self, expr: ast.Expr) -> int:
        """Evaluate *expr* into EAX (clobbers ECX/EDX, may push)."""
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
            else:   # ~
                asm.not_rm(EAX)
        elif isinstance(expr, ast.Binary):
            self._eval_binary(expr)
        elif isinstance(expr, ast.Call):
            self._eval_call(expr)
        elif isinstance(expr, ast.FieldAccess):
            field = self.layouts[expr.struct].field(expr.field_name)
            self.eval_expr(expr.base)
            self._load(Mem(base=EAX, disp=field.offset), field.access_width)
        elif isinstance(expr, ast.Index):
            self._eval_index(expr)
        else:  # pragma: no cover
            raise CompileError(f"unhandled expr {type(expr).__name__}")
        return EAX

    def _eval_name(self, expr: ast.Name) -> None:
        asm = self.asm
        if expr.kind == "local":
            if expr.index in self.reg_locals:
                asm.mov_rm_r(EAX, self.reg_locals[expr.index])
            else:
                asm.mov_r_rm(EAX, Mem(base=EBP,
                                      disp=self.slot_locals[expr.index]))
        elif expr.kind == "param":
            asm.mov_r_rm(EAX, self._param_mem(expr.index))
        elif expr.kind == "global":
            info = self.globals_info[expr.name]
            self._load(Mem(disp=info.addr), info.access_width)
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
        if info.elem_size not in (1, 2, 4):  # pragma: no cover
            raise CompileError("bad element size")
        self._load(Mem(index=EAX, scale=info.elem_size, disp=info.addr),
                   info.access_width)

    def _eval_binary(self, expr: ast.Binary) -> None:
        asm = self.asm
        op = expr.op
        self._eval_operands(expr.left, expr.right)
        if op in _ALU:
            asm.alu_r_rm(_ALU[op], EAX, ECX)
        elif op == "*":
            asm.imul_r_rm(EAX, ECX)
        elif op in ("/", "%"):
            asm.alu_r_rm("xor", EDX, EDX)
            asm.div_rm(ECX)
            if op == "%":
                asm.mov_rm_r(EAX, EDX)
        elif op == "<<":
            asm.shift_rm_cl("shl", EAX)
        elif op == ">>":
            asm.shift_rm_cl("shr", EAX)
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
        if name.startswith("__load"):
            width = INTRINSICS[name].width
            self.eval_expr(expr.args[0])
            self._load(Mem(base=EAX), width)
        elif name.startswith("__store"):
            width = INTRINSICS[name].width
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
