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

from dataclasses import dataclass
from typing import Dict, List

from repro.kcc import ast
from repro.kernel.image import GlobalInfo, StructLayout
from repro.ppc.assembler import PPCAssembler, Reloc

#: callee-saved registers for locals, allocated r31 downward
_CALLEE_SAVED = tuple(range(31, 13, -1))      # r31 .. r14
#: volatile registers used as the expression temp pool
_TEMP_POOL = tuple(range(3, 13))              # r3 .. r12


class CompileError(Exception):
    pass


@dataclass
class CompiledFunction:
    name: str
    code: bytes
    relocs: List[Reloc]
    insn_offsets: List[int]


def _ha(addr: int) -> int:
    """High-adjusted 16 bits (compensates the signed low half)."""
    return ((addr + 0x8000) >> 16) & 0xFFFF


def _lo(addr: int) -> int:
    return addr & 0xFFFF


class PPCFunctionCompiler:
    """Compiles one analyzed :class:`ast.FuncDef` to PPC32 code."""

    def __init__(self, func: ast.FuncDef,
                 globals_info: Dict[str, GlobalInfo],
                 layouts: Dict[str, StructLayout]):
        self.func = func
        self.globals_info = globals_info
        self.layouts = layouts
        self.asm = PPCAssembler()
        self._label_counter = 0
        self._loop_stack: List[tuple] = []
        self._epilogue_label = self._new_label("epilogue")

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
        #   ...: temp spill slots (10 words, one per pool register)
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

    # -- helpers -----------------------------------------------------------

    def _new_label(self, hint: str = "L") -> str:
        self._label_counter += 1
        return f".{self.func.name}.{hint}{self._label_counter}"

    def _alloc(self) -> int:
        for reg in _TEMP_POOL:
            if reg not in self._in_use:
                self._in_use.append(reg)
                return reg
        raise CompileError(f"{self.func.name}: expression too deep")

    def _free(self, reg: int) -> None:
        self._in_use.remove(reg)

    def _home_of(self, kind: str, index: int) -> "int | None":
        key = f"{'p' if kind == 'param' else 'l'}{index}"
        return self.homes.get(key)

    def _frame_home_offset(self, kind: str, index: int) -> int:
        key = f"{'p' if kind == 'param' else 'l'}{index}"
        return self._frame_home_base + 4 * self.frame_homes[key]

    # -- entry point ----------------------------------------------------------

    def compile(self) -> CompiledFunction:
        asm = self.asm
        insn_marks: List[int] = []

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
            home = self._home_of("param", index)
            if home is not None:
                asm.mr(home, 3 + index)
            else:
                asm.stw(3 + index,
                        self._frame_home_offset("param", index), 1)

        self.compile_block(self.func.body)

        asm.label(self._epilogue_label)
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

        code = asm.finish()
        insn_marks = [index * 4 for index in range(len(asm.words))]
        return CompiledFunction(self.func.name, code, asm.relocs,
                                insn_marks)

    # -- statements ---------------------------------------------------------------

    def compile_block(self, body: List[ast.Stmt]) -> None:
        for stmt in body:
            self.compile_stmt(stmt)

    def compile_stmt(self, stmt: ast.Stmt) -> None:
        asm = self.asm
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                reg = self.eval_expr(stmt.init)
                self._store_var("local", stmt.index, reg)
                self._free(reg)
        elif isinstance(stmt, ast.Assign):
            self.compile_assign(stmt)
        elif isinstance(stmt, ast.If):
            else_label = self._new_label("else")
            end_label = self._new_label("endif")
            self.compile_cond(stmt.cond, false_label=else_label)
            self.compile_block(stmt.then_body)
            if stmt.else_body:
                asm.b_label(end_label)
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
            asm.b_label(head)
            asm.label(end)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                reg = self.eval_expr(stmt.value)
                if reg != 3:
                    asm.mr(3, reg)
                self._free(reg)
            else:
                asm.li(3, 0)
            asm.b_label(self._epilogue_label)
        elif isinstance(stmt, ast.Break):
            asm.b_label(self._loop_stack[-1][1])
        elif isinstance(stmt, ast.Continue):
            asm.b_label(self._loop_stack[-1][0])
        elif isinstance(stmt, ast.ExprStmt):
            reg = self.eval_expr(stmt.expr)
            self._free(reg)
        else:  # pragma: no cover
            raise CompileError(f"unhandled stmt {type(stmt).__name__}")

    def _store_var(self, kind: str, index: int, reg: int) -> None:
        home = self._home_of(kind, index)
        if home is not None:
            self.asm.mr(home, reg)
        else:
            self.asm.stw(reg, self._frame_home_offset(kind, index), 1)

    def compile_assign(self, stmt: ast.Assign) -> None:
        asm = self.asm
        target = stmt.target
        if isinstance(target, ast.Name):
            reg = self.eval_expr(stmt.value)
            if target.kind in ("local", "param"):
                self._store_var(target.kind, target.index, reg)
            else:
                info = self.globals_info[target.name]
                addr_reg = self._alloc()
                asm.lis(addr_reg, _ha(info.addr))
                self._store_word_like(reg, _lo_signed(info.addr),
                                      addr_reg, info.access_width)
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
            index = self.eval_expr(target.index)
            offset = self._scale_index(index, info)
            base = self._alloc()
            self._load_imm32(base, info.addr)
            value = self.eval_expr(stmt.value)
            if info.access_width == 4:
                asm.stwx(value, base, offset)
            elif info.access_width == 2:
                asm.sthx(value, base, offset)
            else:
                asm.stbx(value, base, offset)
            self._free(value)
            self._free(base)
            self._free(offset)
        else:  # pragma: no cover
            raise CompileError("invalid assignment target")

    def _store_word_like(self, value_reg: int, offset: int, base_reg: int,
                         width: int) -> None:
        # scalar globals: word slot on PPC (width 4) unless dense array
        if width == 4:
            self.asm.stw(value_reg, offset, base_reg)
        elif width == 2:
            self.asm.sth(value_reg, offset, base_reg)
        else:
            self.asm.stb(value_reg, offset, base_reg)

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

    # -- conditions ---------------------------------------------------------------

    def compile_cond(self, expr: ast.Expr, false_label: str) -> None:
        """Branch to *false_label* when *expr* is false."""
        asm = self.asm
        if isinstance(expr, ast.Binary) and expr.op in _CMP_FALSE_BRANCH:
            left = self.eval_expr(expr.left)
            right = self.eval_expr(expr.right)
            asm.cmplw(left, right)
            self._free(right)
            self._free(left)
            _CMP_FALSE_BRANCH[expr.op](asm, false_label)
            return
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            self.compile_cond(expr.left, false_label)
            self.compile_cond(expr.right, false_label)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            true_label = self._new_label("or")
            fall = self._new_label("orfall")
            self.compile_cond(expr.left, fall)
            asm.b_label(true_label)
            asm.label(fall)
            self.compile_cond(expr.right, false_label)
            asm.label(true_label)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            true_label = self._new_label("nottrue")
            self.compile_cond(expr.operand, true_label)
            asm.b_label(false_label)
            asm.label(true_label)
            return
        reg = self.eval_expr(expr)
        asm.cmplwi(reg, 0)
        self._free(reg)
        asm.beq(false_label)

    # -- expressions ------------------------------------------------------------------

    def eval_expr(self, expr: ast.Expr) -> int:
        """Evaluate *expr* into a freshly allocated temp register."""
        asm = self.asm
        if isinstance(expr, ast.Num):
            reg = self._alloc()
            self._load_imm32(reg, expr.value)
            return reg
        if isinstance(expr, ast.Name):
            return self._eval_name(expr)
        if isinstance(expr, ast.AddrOf):
            reg = self._alloc()
            if expr.kind == "global":
                self._load_imm32(reg, self.globals_info[expr.name].addr)
            else:
                asm.relocs.append(Reloc(asm.size, expr.name, "hi16"))
                asm.lis(reg, 0)
                asm.relocs.append(Reloc(asm.size, expr.name, "lo16"))
                asm.ori(reg, reg, 0)
            return reg
        if isinstance(expr, ast.SizeOf):
            reg = self._alloc()
            self._load_imm32(reg, self.layouts[expr.struct].size)
            return reg
        if isinstance(expr, ast.Unary):
            reg = self.eval_expr(expr.operand)
            if expr.op == "-":
                asm.neg(reg, reg)
            elif expr.op == "~":
                asm.nor(reg, reg, reg)
            else:   # !
                # reg = (reg == 0) ? 1 : 0
                zero = self._new_label("notz")
                end = self._new_label("notend")
                asm.cmplwi(reg, 0)
                asm.beq(zero)
                asm.li(reg, 0)
                asm.b_label(end)
                asm.label(zero)
                asm.li(reg, 1)
                asm.label(end)
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

    def _load_imm32(self, reg: int, value: int) -> None:
        value &= 0xFFFFFFFF
        high = (value >> 16) & 0xFFFF
        low = value & 0xFFFF
        if high:
            self.asm.lis(reg, high)
            if low:
                self.asm.ori(reg, reg, low)
        else:
            if low & 0x8000:
                self.asm.li(reg, 0)
                self.asm.ori(reg, reg, low)
            else:
                self.asm.li(reg, low)

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
            if info.access_width == 4:
                asm.lwz(reg, _lo_signed(info.addr), reg)
                if info.load_mask:
                    bits = info.semantic_bits
                    asm.rlwinm(reg, reg, 0, 32 - bits, 31)
            elif info.access_width == 2:
                asm.lhz(reg, _lo_signed(info.addr), reg)
            else:
                asm.lbz(reg, _lo_signed(info.addr), reg)
        elif expr.kind == "const":
            self._load_imm32(reg, expr.index)
        else:  # pragma: no cover
            raise CompileError(f"unbound name {expr.name}")
        return reg

    def _eval_index(self, expr: ast.Index) -> int:
        asm = self.asm
        info = self.globals_info[expr.name]
        index = self.eval_expr(expr.index)
        if expr.struct_array:
            offset = self._scale_index(index, info)
            base = self._alloc()
            self._load_imm32(base, info.addr)
            asm.add(base, base, offset)
            self._free(offset)
            return base
        offset = self._scale_index(index, info)
        base = self._alloc()
        self._load_imm32(base, info.addr)
        if info.access_width == 4:
            asm.lwzx(base, base, offset)
        elif info.access_width == 2:
            asm.lhzx(base, base, offset)
        else:
            asm.lbzx(base, base, offset)
        self._free(offset)
        return base

    def _eval_binary(self, expr: ast.Binary) -> int:
        asm = self.asm
        op = expr.op
        if op in ("&&", "||"):
            reg = self._alloc()
            false_label = self._new_label("sc_false")
            end = self._new_label("sc_end")
            self._free(reg)          # keep pool clean for compile_cond
            self.compile_cond(expr, false_label)
            reg2 = self._alloc()
            asm.li(reg2, 1)
            asm.b_label(end)
            asm.label(false_label)
            asm.li(reg2, 0)
            asm.label(end)
            return reg2
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
            asm.xor_(left, left, right)
        elif op == "<<":
            asm.slw(left, left, right)
        elif op == ">>":
            asm.srw(left, left, right)
        elif op in _CMP_FALSE_BRANCH:
            true_label = self._new_label("cmp1")
            end = self._new_label("cmpend")
            asm.cmplw(left, right)
            _CMP_TRUE_BRANCH[op](asm, true_label)
            asm.li(left, 0)
            asm.b_label(end)
            asm.label(true_label)
            asm.li(left, 1)
            asm.label(end)
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
        if name in ("__load8", "__load16", "__load32"):
            width = {"__load8": 1, "__load16": 2, "__load32": 4}[name]
            reg = self.eval_expr(expr.args[0])
            if width == 4:
                asm.lwz(reg, 0, reg)
            elif width == 2:
                asm.lhz(reg, 0, reg)
            else:
                asm.lbz(reg, 0, reg)
            return reg
        if name in ("__store8", "__store16", "__store32"):
            width = {"__store8": 1, "__store16": 2, "__store32": 4}[name]
            addr = self.eval_expr(expr.args[0])
            value = self.eval_expr(expr.args[1])
            if width == 4:
                asm.stw(value, 0, addr)
            elif width == 2:
                asm.sth(value, 0, addr)
            else:
                asm.stb(value, 0, addr)
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


def _lo_signed(addr: int) -> int:
    """Low 16 bits as the signed displacement paired with _ha()."""
    low = addr & 0xFFFF
    return low - 0x10000 if low & 0x8000 else low


def _false_branch(cond: str):
    def emit(asm: PPCAssembler, label: str) -> None:
        getattr(asm, cond)(label)
    return emit


# branch taken when the comparison is FALSE (inverted condition)
_CMP_FALSE_BRANCH = {
    "==": _false_branch("bne"),
    "!=": _false_branch("beq"),
    "<": _false_branch("bge"),
    "<=": _false_branch("bgt"),
    ">": _false_branch("ble"),
    ">=": _false_branch("blt"),
}

# branch taken when the comparison is TRUE
_CMP_TRUE_BRANCH = {
    "==": _false_branch("beq"),
    "!=": _false_branch("bne"),
    "<": _false_branch("blt"),
    "<=": _false_branch("ble"),
    ">": _false_branch("bgt"),
    ">=": _false_branch("bge"),
}


def compile_function(func: ast.FuncDef,
                     globals_info: Dict[str, GlobalInfo],
                     layouts: Dict[str, StructLayout]) -> CompiledFunction:
    return PPCFunctionCompiler(func, globals_info, layouts).compile()
