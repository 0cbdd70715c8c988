"""PowerPC code generator for the kernel DSL.

Code shape mirrors GCC 3.2 on PPC32 SysV:

* frames: ``stwu r1,-N(r1)`` (back chain written by the update form),
  ``mflr r0; stw r0,N+4(r1)``, callee-saved register save area;
* locals are homed in callee-saved registers r31 downward (18
  available) — values live in registers across calls, so corrupted
  state can sit unconsumed for many cycles (the paper's long G4
  code-error latencies).  The first local lands in r31, matching the
  paper's Figure 9 where r31 carries kjournald's struct pointer;
* every struct field and scalar global is a full 32-bit word accessed
  with ``lwz``/``stw``; sub-word fields are masked *in the register*
  after the load (``rlwinm``), which is exactly the mechanism that
  masks flips of their unused bits (the paper's G4 data/stack
  insensitivity);
* expression temporaries use the volatile registers r3-r12; around
  calls, live temporaries spill to dedicated frame slots.
"""

from __future__ import annotations

from typing import Dict, List

from repro.kcc import ast
from repro.kcc.codegen import CompileError, FunctionCompiler
from repro.kcc.sema import INTRINSICS
from repro.kernel.image import GlobalInfo, StructLayout
from repro.ppc.assembler import PPCAssembler

#: callee-saved registers for locals, allocated r31 downward
_CALLEE_SAVED = tuple(range(31, 13, -1))      # r31 .. r14
#: volatile registers used as the expression temp pool
_TEMP_POOL = tuple(range(3, 13))              # r3 .. r12

#: load and store mnemonics by access width (``x`` suffix: indexed)
_LOAD = {4: "lwz", 2: "lhz", 1: "lbz"}
_STORE = {4: "stw", 2: "sth", 1: "stb"}


def _ha(addr: int) -> int:
    """High-adjusted 16 bits (compensates the signed low half)."""
    return ((addr + 0x8000) >> 16) & 0xFFFF


def _lo_signed(addr: int) -> int:
    """Low 16 bits as the signed displacement paired with _ha()."""
    low = addr & 0xFFFF
    return low - 0x10000 if low & 0x8000 else low


class PPCFunctionCompiler(FunctionCompiler):
    """Compiles one analyzed :class:`ast.FuncDef` to PPC32 code."""

    CONDITIONS = {"==": ("beq", "bne"), "!=": ("bne", "beq"),
                  "<": ("blt", "bge"), "<=": ("ble", "bgt"),
                  ">": ("bgt", "ble"), ">=": ("bge", "blt")}
    RETURN_REG = 3

    def __init__(self, func: ast.FuncDef,
                 globals_info: Dict[str, GlobalInfo],
                 layouts: Dict[str, StructLayout]):
        super().__init__(func, globals_info, layouts, PPCAssembler())
        if len(func.params) > 8:
            raise CompileError(f"{func.name}: more than 8 parameters")

        # Homes: params first (they arrive in r3..; copied to homes),
        # then locals, all in callee-saved registers; overflow to frame.
        self.homes: Dict[str, int] = {}          # "p0"/"l3" -> reg
        self.frame_homes: Dict[str, int] = {}    # -> frame offset
        names = [f"p{index}" for index in range(len(func.params))] + \
                [f"l{index}" for index in range(len(func.locals))]
        overflow = 0
        for position, key in enumerate(names):
            if position < len(_CALLEE_SAVED):
                self.homes[key] = _CALLEE_SAVED[position]
            else:
                self.frame_homes[key] = overflow
                overflow += 1
        self.saved_regs = sorted(
            set(self.homes.values()), reverse=True)   # r31 first

        # Frame layout (from r1 upward):
        #   0: back chain
        #   4: padding
        #   8: callee-saved save area (len(saved_regs) words)
        #   ...: frame-home slots (overflow locals)
        #   ...: temp spill slots (8 words)
        save_area = 8
        self._save_area_base = save_area
        # block layout ascending by register number (stmw order)
        ascending = sorted(self.saved_regs)
        self._save_offsets = {
            reg: save_area + 4 * index
            for index, reg in enumerate(ascending)}
        frame_home_base = save_area + 4 * len(self.saved_regs)
        self._frame_home_base = frame_home_base
        # spill area: a stack of slots (calls nest, so per-register
        # slots would collide across nesting levels)
        self._spill_base = frame_home_base + 4 * overflow
        self._spill_slots = 8
        self._spill_depth = 0
        raw = self._spill_base + 4 * self._spill_slots
        self.frame_size = (raw + 15) & ~15

        self._in_use: List[int] = []              # allocated temp regs

    def _home_of(self, kind: str, index: int) -> "int | None":
        key = f"{'p' if kind == 'param' else 'l'}{index}"
        return self.homes.get(key)

    def _frame_home_offset(self, kind: str, index: int) -> int:
        key = f"{'p' if kind == 'param' else 'l'}{index}"
        return self._frame_home_base + 4 * self.frame_homes[key]

    # -- frame ----------------------------------------------------------------

    def _prologue(self) -> None:
        asm = self.asm
        asm.stwu(1, -self.frame_size, 1)
        asm.mflr(0)
        asm.stw(0, self.frame_size + 4, 1)
        # callee-saved save area: stmw for three or more registers
        # (GCC's heuristic); stmw/lmw require word alignment, which is
        # where Table 4's Alignment crashes come from when the stack
        # pointer is corrupted to an odd value
        if len(self.saved_regs) >= 3:
            asm.stmw(min(self.saved_regs), self._save_area_base, 1)
        else:
            for reg in self.saved_regs:
                asm.stw(reg, self._save_offsets[reg], 1)
        # copy incoming args (r3..) into their homes
        for index in range(len(self.func.params)):
            self._store_var("param", index, 3 + index)

    def _epilogue(self) -> None:
        asm = self.asm
        asm.lwz(0, self.frame_size + 4, 1)
        asm.mtlr(0)
        if len(self.saved_regs) >= 3:
            asm.lmw(min(self.saved_regs), self._save_area_base, 1)
        else:
            for reg in self.saved_regs:
                asm.lwz(reg, self._save_offsets[reg], 1)
        # restore the stack pointer from the back chain (GCC's
        # variable-frame epilogue): a corrupted back-chain word on the
        # stack propagates into r1 here — the paper's Stack Overflow
        # mechanism on the G4
        asm.lwz(1, 0, 1)
        asm.blr()

    # -- primitive hooks ------------------------------------------------------

    def _alloc(self) -> int:
        for reg in _TEMP_POOL:
            if reg not in self._in_use:
                self._in_use.append(reg)
                return reg
        raise CompileError(f"{self.func.name}: expression too deep")

    def _free(self, reg: int) -> None:
        self._in_use.remove(reg)

    def _jump(self, label: str) -> None:
        self.asm.b_label(label)

    def _branch(self, cond: str, label: str) -> None:
        getattr(self.asm, cond)(label)

    def _branch_if_zero(self, reg: int, label: str) -> None:
        self.asm.cmplwi(reg, 0)
        self.asm.beq(label)

    def _set_const(self, reg: int, value: int) -> None:
        self.asm.li(reg, value)

    def _set_return(self, reg: int) -> None:
        if reg != 3:
            self.asm.mr(3, reg)

    def _store_var(self, kind: str, index: int, reg: int) -> None:
        home = self._home_of(kind, index)
        if home is not None:
            self.asm.mr(home, reg)
        else:
            self.asm.stw(reg, self._frame_home_offset(kind, index), 1)

    def _compare(self, left: ast.Expr, right: ast.Expr) -> int:
        left_reg = self.eval_expr(left)
        right_reg = self.eval_expr(right)
        self.asm.cmplw(left_reg, right_reg)
        self._free(right_reg)
        return left_reg

    # -- assignment -----------------------------------------------------------

    def compile_assign(self, stmt: ast.Assign) -> None:
        asm = self.asm
        target = stmt.target
        if isinstance(target, ast.Name):
            reg = self.eval_expr(stmt.value)
            if target.kind in ("local", "param"):
                self._store_var(target.kind, target.index, reg)
            else:
                # scalar globals: word slot unless a dense array
                info = self.globals_info[target.name]
                addr_reg = self._alloc()
                asm.lis(addr_reg, _ha(info.addr))
                getattr(asm, _STORE[info.access_width])(
                    reg, _lo_signed(info.addr), addr_reg)
                self._free(addr_reg)
            self._free(reg)
        elif isinstance(target, ast.FieldAccess):
            field = self.layouts[target.struct].field(target.field_name)
            base = self.eval_expr(target.base)
            value = self.eval_expr(stmt.value)
            # word store, raw value: masking happens at load
            asm.stw(value, field.offset, base)
            self._free(value)
            self._free(base)
        elif isinstance(target, ast.Index):
            info = self.globals_info[target.name]
            offset = self._scale_index(self.eval_expr(target.index), info)
            base = self._alloc()
            asm.load_imm32(base, info.addr)
            value = self.eval_expr(stmt.value)
            getattr(asm, _STORE[info.access_width] + "x")(
                value, base, offset)
            self._free(value)
            self._free(base)
            self._free(offset)
        else:  # pragma: no cover
            raise CompileError("invalid assignment target")

    def _scale_index(self, index_reg: int, info: GlobalInfo) -> int:
        """Return a temp register holding index*elem_size (frees input)."""
        asm = self.asm
        if info.elem_size == 1:
            return index_reg
        out = self._alloc()
        if info.elem_size == 2:
            asm.rlwinm(out, index_reg, 1, 0, 30)
        elif info.elem_size == 4:
            asm.rlwinm(out, index_reg, 2, 0, 29)
        else:
            asm.mulli(out, index_reg, info.elem_size)
        self._free(index_reg)
        return out

    # -- expressions ----------------------------------------------------------

    def _eval_value(self, expr: ast.Expr) -> int:
        """Evaluate *expr* into a freshly allocated temp register."""
        asm = self.asm
        if isinstance(expr, ast.Num):
            reg = self._alloc()
            asm.load_imm32(reg, expr.value)
            return reg
        if isinstance(expr, ast.Name):
            return self._eval_name(expr)
        if isinstance(expr, ast.AddrOf):
            reg = self._alloc()
            if expr.kind == "global":
                asm.load_imm32(reg, self.globals_info[expr.name].addr)
            else:
                asm.load_addr_sym(reg, expr.name)
            return reg
        if isinstance(expr, ast.SizeOf):
            reg = self._alloc()
            asm.load_imm32(reg, self.layouts[expr.struct].size)
            return reg
        if isinstance(expr, ast.Unary):
            reg = self.eval_expr(expr.operand)
            if expr.op == "-":
                asm.neg(reg, reg)
            else:   # ~
                asm.nor(reg, reg, reg)
            return reg
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.FieldAccess):
            field = self.layouts[expr.struct].field(expr.field_name)
            base = self.eval_expr(expr.base)
            asm.lwz(base, field.offset, base)
            if field.load_mask:
                # in-register masking: unused high bits never observed
                bits = field.semantic_bits
                asm.rlwinm(base, base, 0, 32 - bits, 31)
            return base
        if isinstance(expr, ast.Index):
            return self._eval_index(expr)
        raise CompileError(f"unhandled expr "
                           f"{type(expr).__name__}")  # pragma: no cover

    def _eval_name(self, expr: ast.Name) -> int:
        asm = self.asm
        reg = self._alloc()
        if expr.kind in ("local", "param"):
            home = self._home_of(expr.kind, expr.index)
            if home is not None:
                asm.mr(reg, home)
            else:
                asm.lwz(reg, self._frame_home_offset(expr.kind,
                                                     expr.index), 1)
        elif expr.kind == "global":
            info = self.globals_info[expr.name]
            asm.lis(reg, _ha(info.addr))
            getattr(asm, _LOAD[info.access_width])(
                reg, _lo_signed(info.addr), reg)
            if info.access_width == 4 and info.load_mask:
                bits = info.semantic_bits
                asm.rlwinm(reg, reg, 0, 32 - bits, 31)
        elif expr.kind == "const":
            asm.load_imm32(reg, expr.index)
        else:  # pragma: no cover
            raise CompileError(f"unbound name {expr.name}")
        return reg

    def _eval_index(self, expr: ast.Index) -> int:
        asm = self.asm
        info = self.globals_info[expr.name]
        offset = self._scale_index(self.eval_expr(expr.index), info)
        base = self._alloc()
        asm.load_imm32(base, info.addr)
        if expr.struct_array:
            asm.add(base, base, offset)
        else:
            getattr(asm, _LOAD[info.access_width] + "x")(base, base, offset)
        self._free(offset)
        return base

    def _eval_binary(self, expr: ast.Binary) -> int:
        asm = self.asm
        op = expr.op
        left = self.eval_expr(expr.left)
        right = self.eval_expr(expr.right)
        if op == "+":
            asm.add(left, left, right)
        elif op == "-":
            asm.subf(left, right, left)
        elif op == "*":
            asm.mullw(left, left, right)
        elif op == "/":
            asm.divwu(left, left, right)
        elif op == "%":
            # a % b = a - (a/b)*b
            quotient = self._alloc()
            asm.divwu(quotient, left, right)
            asm.mullw(quotient, quotient, right)
            asm.subf(left, quotient, left)
            self._free(quotient)
        elif op == "&":
            asm.and_(left, left, right)
        elif op == "|":
            asm.or_(left, left, right)
        elif op == "^":
            asm.xor(left, left, right)
        elif op == "<<":
            asm.slw(left, left, right)
        elif op == ">>":
            asm.srw(left, left, right)
        else:  # pragma: no cover
            raise CompileError(f"unhandled operator {op}")
        self._free(right)
        return left

    def _eval_call(self, expr: ast.Call) -> int:
        if expr.intrinsic:
            return self._eval_intrinsic(expr)
        return self._call(expr.name, expr.args, indirect=None)

    def _call(self, name: str, args: List[ast.Expr],
              indirect: "ast.Expr | None") -> int:
        asm = self.asm
        if len(args) > 8:
            raise CompileError(f"call to {name}: more than 8 arguments")
        # spill live temps to fresh stack slots (LIFO across nesting)
        live = list(self._in_use)
        spilled: List[tuple] = []
        for reg in live:
            if self._spill_depth >= self._spill_slots:
                raise CompileError(
                    f"{self.func.name}: spill area exhausted")
            offset = self._spill_base + 4 * self._spill_depth
            self._spill_depth += 1
            asm.stw(reg, offset, 1)
            spilled.append((reg, offset))
        self._in_use = []
        # evaluate args; they allocate r3, r4, ... in order
        for position, arg in enumerate(args):
            reg = self.eval_expr(arg)
            if reg != 3 + position:          # defensive; see _call notes
                asm.mr(3 + position, reg)
                self._free(reg)
                self._in_use.append(3 + position)
        if indirect is not None:
            target = self.eval_expr(indirect)
            asm.mtctr(target)
            self._free(target)
            asm.bctrl()
        else:
            asm.bl_sym(name)
        # result handling: re-reserve the spilled regs, then pick a
        # destination, move the result, and restore the spills
        self._in_use = list(live)
        dest = self._alloc()
        if dest != 3:
            asm.mr(dest, 3)
        for reg, offset in reversed(spilled):
            asm.lwz(reg, offset, 1)
        self._spill_depth -= len(spilled)
        return dest

    def _eval_intrinsic(self, expr: ast.Call) -> int:
        asm = self.asm
        name = expr.name
        if name.startswith("__load"):
            width = INTRINSICS[name].width
            reg = self.eval_expr(expr.args[0])
            getattr(asm, _LOAD[width])(reg, 0, reg)
            return reg
        if name.startswith("__store"):
            width = INTRINSICS[name].width
            addr = self.eval_expr(expr.args[0])
            value = self.eval_expr(expr.args[1])
            getattr(asm, _STORE[width])(value, 0, addr)
            self._free(value)
            return addr          # reuse as (meaningless) result
        if name == "__bug":
            asm.trap()
            return self._alloc()
        if name == "__panic":
            info = self.globals_info.get("panic_code")
            if info is None:
                raise CompileError(
                    "__panic requires a 'global panic_code: u32;'")
            value = self.eval_expr(expr.args[0])
            addr = self._alloc()
            asm.lis(addr, _ha(info.addr))
            asm.stw(value, _lo_signed(info.addr), addr)
            self._free(addr)
            asm.trap()
            return value
        if name.startswith("__icall"):
            return self._call(name, expr.args[1:], indirect=expr.args[0])
        raise CompileError(f"unknown intrinsic {name}")  # pragma: no cover

