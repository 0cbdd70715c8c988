"""x86 superblock code generator.

``generate`` turns a run of decoded :class:`Instr` objects (or a
region of such runs, see :mod:`repro.compile.emit`) into the source of
one Python function and compiles it.  Hot
instructions (moves, ALU, stack ops, branches) are *inlined*: their
semantics are re-emitted with operands folded to constants, registers
addressed by literal index, and EFLAGS carried in a local.  Everything
else calls the original executor through a pre-bound global (a
*generic* step), bracketed by exact state synchronization.

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
  system instructions, which end their block.  FS/GS operands and
  sub-word ALU widths fall back to the generic executor.

Inlining is only attempted for instruction *instances* that qualify;
any ineligible instance silently degrades to a generic step, never to
an error.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.compile.access import load, store
from repro.compile.emit import Gen, Member, unit
from repro.isa.faults import AccessKind
from repro.x86 import decoder as xdec
from repro.x86.registers import SEG_CS, SEG_DS, SEG_ES, SEG_SS

M = 0xFFFFFFFF
MSB = 0x80000000
_SAFE_SEGS = frozenset({SEG_ES, SEG_CS, SEG_SS, SEG_DS})

#: cycle slack per instruction on top of the static cost, covering the
#: dynamic ``cycles += 2`` bumps (memory access, taken branch)
INLINE_SLACK = 8
#: slack for a generic executor call (int's +120 dispatch sequence is
#: the worst bounded case)
GENERIC_SLACK = 150

#: executors whose cycle cost is unbounded (ecx-driven string loops) —
#: never included in a block
UNBOUNDED = frozenset({xdec.exec_movs, xdec.exec_stos})


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


# ---------------------------------------------------------------------------
# emission helpers (the machinery is repro.compile.emit.Gen)


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
    """push32 with the value expression pre-captured by the caller."""
    g.w("regs[4] = (regs[4] - 4) & 4294967295")
    g.w("a_ = regs[4]")
    store(g, 4, value)


# -- EFLAGS algebra (width-4 only) ------------------------------------------
# _ARITH_FLAGS = CF|PF|AF|ZF|SF|OF = 2261; inc/dec clear ZF|SF|OF = 2240.


def _flags_add(g: Gen) -> None:
    g.w("t_ = va_ + vb_")
    g.w("r_ = t_ & 4294967295")
    g.w("ef = (ef & -2262) | (64 if r_ == 0 else 0)"
        " | (128 if r_ & 2147483648 else 0)")
    g.w("if t_ > 4294967295:")
    g.w("    ef |= 1")
    g.w("if (va_ ^ vb_ ^ 4294967295) & (va_ ^ r_) & 2147483648:")
    g.w("    ef |= 2048")


def _flags_sub(g: Gen) -> None:
    g.w("r_ = (va_ - vb_) & 4294967295")
    g.w("ef = (ef & -2262) | (64 if r_ == 0 else 0)"
        " | (128 if r_ & 2147483648 else 0)")
    g.w("if va_ < vb_:")
    g.w("    ef |= 1")
    g.w("if (va_ ^ vb_) & (va_ ^ r_) & 2147483648:")
    g.w("    ef |= 2048")


def _flags_logic(g: Gen) -> None:
    g.w("ef = (ef & -2262) | (64 if r_ == 0 else 0)"
        " | (128 if r_ & 2147483648 else 0)")


def _alu_body(g: Gen, op: int) -> bool:
    """Emit the op on locals va_/vb_ into r_; True if r_ writes back."""
    if op == 0:                                     # add
        _flags_add(g)
        return True
    if op == 2:                                     # adc
        g.w("vb_ = (vb_ + (ef & 1)) & 4294967295")
        _flags_add(g)
        return True
    if op == 5:                                     # sub
        _flags_sub(g)
        return True
    if op == 3:                                     # sbb
        g.w("vb_ = (vb_ + (ef & 1)) & 4294967295")
        _flags_sub(g)
        return True
    if op == 7:                                     # cmp
        _flags_sub(g)
        return False
    if op == 4:
        g.w("r_ = va_ & vb_")
    elif op == 1:
        g.w("r_ = va_ | vb_")
    else:                                           # op == 6, xor
        g.w("r_ = va_ ^ vb_")
    _flags_logic(g)
    return True


# ---------------------------------------------------------------------------
# per-executor emitters.  Signature: (g, i, A, N, K) -> bool; A is the
# instruction address, N the fall-through address, K the count of
# instructions retired before this one.  Returning False (before
# emitting anything!) falls back to a generic step.


def _mem_ok(i) -> bool:
    return i.seg in _SAFE_SEGS


def _e_alu_rm_r(g, i, a, n, k) -> bool:
    if i.width != 4:
        return False
    if i.rm_reg >= 0:
        g.w(f"va_ = regs[{i.rm_reg}]")
        g.w(f"vb_ = regs[{i.reg}]")
        if _alu_body(g, i.op2):
            g.w(f"regs[{i.rm_reg}] = r_")
        return True
    if not _mem_ok(i):
        return False
    g.entry(a, n, k)
    g.w(f"a_ = {_ea_expr(i)}")
    load(g, 4)
    g.w("va_ = v_")
    g.w(f"vb_ = regs[{i.reg}]")
    if _alu_body(g, i.op2):
        store(g, 4, "r_")
    return True


def _e_alu_r_rm(g, i, a, n, k) -> bool:
    if i.width != 4:
        return False
    if i.rm_reg >= 0:
        g.w(f"vb_ = regs[{i.rm_reg}]")
    else:
        if not _mem_ok(i):
            return False
        g.entry(a, n, k)
        g.w(f"a_ = {_ea_expr(i)}")
        load(g, 4)
        g.w("vb_ = v_")
    g.w(f"va_ = regs[{i.reg}]")
    if _alu_body(g, i.op2):
        g.w(f"regs[{i.reg}] = r_")
    return True


def _e_alu_a_imm(g, i, a, n, k) -> bool:
    if i.width != 4:
        return False
    g.w("va_ = regs[0]")
    g.w(f"vb_ = {i.imm & M}")
    if _alu_body(g, i.op2):
        g.w("regs[0] = r_")
    return True


def _e_grp1_rm_imm(g, i, a, n, k) -> bool:
    if i.width != 4:
        return False
    if i.rm_reg >= 0:
        g.w(f"va_ = regs[{i.rm_reg}]")
        g.w(f"vb_ = {i.imm & M}")
        if _alu_body(g, i.op2):
            g.w(f"regs[{i.rm_reg}] = r_")
        return True
    if not _mem_ok(i):
        return False
    g.entry(a, n, k)
    g.w(f"a_ = {_ea_expr(i)}")
    load(g, 4)
    g.w("va_ = v_")
    g.w(f"vb_ = {i.imm & M}")
    if _alu_body(g, i.op2):
        store(g, 4, "r_")
    return True


def _e_test_rm_r(g, i, a, n, k) -> bool:
    if i.width != 4:
        return False
    if i.rm_reg >= 0:
        g.w(f"r_ = regs[{i.rm_reg}] & regs[{i.reg}]")
    else:
        if not _mem_ok(i):
            return False
        g.entry(a, n, k)
        g.w(f"a_ = {_ea_expr(i)}")
        load(g, 4)
        g.w(f"r_ = v_ & regs[{i.reg}]")
    _flags_logic(g)
    return True


def _e_test_a_imm(g, i, a, n, k) -> bool:
    if i.width != 4:
        return False
    g.w(f"r_ = regs[0] & {i.imm & M}")
    _flags_logic(g)
    return True


def _e_mov_rm_r(g, i, a, n, k) -> bool:
    if i.width != 4:
        return False
    if i.rm_reg >= 0:
        g.w(f"regs[{i.rm_reg}] = regs[{i.reg}]")
        return True
    if not _mem_ok(i):
        return False
    g.entry(a, n, k)
    g.w(f"a_ = {_ea_expr(i)}")
    store(g, 4, f"regs[{i.reg}]")
    return True


def _e_mov_r_rm(g, i, a, n, k) -> bool:
    if i.width != 4:
        return False
    if i.rm_reg >= 0:
        g.w(f"regs[{i.reg}] = regs[{i.rm_reg}]")
        return True
    if not _mem_ok(i):
        return False
    g.entry(a, n, k)
    g.w(f"a_ = {_ea_expr(i)}")
    load(g, 4)
    g.w(f"regs[{i.reg}] = v_")
    return True


def _e_mov_r_imm(g, i, a, n, k) -> bool:
    if i.width != 4:
        return False
    g.w(f"regs[{i.reg}] = {i.imm & M}")
    return True


def _e_mov_rm_imm(g, i, a, n, k) -> bool:
    if i.width != 4:
        return False
    if i.rm_reg >= 0:
        g.w(f"regs[{i.rm_reg}] = {i.imm & M}")
        return True
    if not _mem_ok(i):
        return False
    g.entry(a, n, k)
    g.w(f"a_ = {_ea_expr(i)}")
    store(g, 4, str(i.imm & M))
    return True


def _partial_read(i, sw: int) -> str:
    if sw == 2:
        return f"regs[{i.rm_reg}] & 65535"
    if i.rm_reg < 4:
        return f"regs[{i.rm_reg}] & 255"
    return f"(regs[{i.rm_reg - 4}] >> 8) & 255"


def _e_movzx(g, i, a, n, k) -> bool:
    sw = i.op2
    if sw not in (1, 2):
        return False
    if i.rm_reg >= 0:
        g.w(f"regs[{i.reg}] = {_partial_read(i, sw)}")
        return True
    if not _mem_ok(i):
        return False
    g.entry(a, n, k)
    g.w(f"a_ = {_ea_expr(i)}")
    load(g, sw)
    g.w(f"regs[{i.reg}] = v_")
    return True


def _e_movsx(g, i, a, n, k) -> bool:
    sw = i.op2
    if sw not in (1, 2):
        return False
    if i.rm_reg >= 0:
        g.w(f"v_ = {_partial_read(i, sw)}")
    else:
        if not _mem_ok(i):
            return False
        g.entry(a, n, k)
        g.w(f"a_ = {_ea_expr(i)}")
        load(g, sw)
    if sw == 1:
        g.w(f"regs[{i.reg}] = (v_ | 4294967040) if v_ & 128 else v_")
    else:
        g.w(f"regs[{i.reg}] = (v_ | 4294901760) if v_ & 32768 else v_")
    return True


def _e_lea(g, i, a, n, k) -> bool:
    if i.rm_reg >= 0:
        return False                    # faults #UD — keep generic
    g.w(f"regs[{i.reg}] = {_ea_expr(i)}")
    return True


def _e_xchg_eax_r(g, i, a, n, k) -> bool:
    g.w("v_ = regs[0]")
    g.w(f"regs[0] = regs[{i.reg}]")
    g.w(f"regs[{i.reg}] = v_")
    return True


def _e_cdq(g, i, a, n, k) -> bool:
    g.w("regs[2] = 4294967295 if regs[0] & 2147483648 else 0")
    return True


def _e_cwde(g, i, a, n, k) -> bool:
    g.w("v_ = regs[0] & 65535")
    g.w("regs[0] = (v_ | 4294901760) if v_ & 32768 else v_")
    return True


def _e_nop(g, i, a, n, k) -> bool:
    return True


def _e_clc(g, i, a, n, k) -> bool:
    g.w("ef &= -2")
    return True


def _e_push_r(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    g.w(f"v_ = regs[{i.reg}]")
    _push(g, "v_")
    return True


def _e_push_imm(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    _push(g, str(i.imm & M))
    return True


def _e_pushfd(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    _push(g, "ef")
    return True


def _e_pop_r(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    g.w("a_ = regs[4]")
    load(g, 4)
    g.w("regs[4] = (regs[4] + 4) & 4294967295")
    g.w(f"regs[{i.reg}] = v_")
    return True


def _e_leave(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    g.w("regs[4] = regs[5]")
    g.w("a_ = regs[4]")
    load(g, 4)
    g.w("regs[4] = (regs[4] + 4) & 4294967295")
    g.w("regs[5] = v_")
    return True


def _e_inc_r(g, i, a, n, k) -> bool:
    g.w(f"r_ = (regs[{i.reg}] + 1) & 4294967295")
    g.w(f"regs[{i.reg}] = r_")
    g.w("ef = (ef & -2241) | (64 if r_ == 0 else 0)"
        " | (128 if r_ & 2147483648 else 0)"
        " | (2048 if r_ == 2147483648 else 0)")
    return True


def _e_dec_r(g, i, a, n, k) -> bool:
    g.w(f"r_ = (regs[{i.reg}] - 1) & 4294967295")
    g.w(f"regs[{i.reg}] = r_")
    g.w("ef = (ef & -2241) | (64 if r_ == 0 else 0)"
        " | (128 if r_ & 2147483648 else 0)"
        " | (2048 if r_ == 2147483647 else 0)")
    return True


# -- block-final branches ----------------------------------------------------

_COND_EXPRS = [
    "ef & 2048",                                           # o
    "not ef & 2048",                                       # no
    "ef & 1",                                              # b
    "not ef & 1",                                          # ae
    "ef & 64",                                             # e
    "not ef & 64",                                         # ne
    "ef & 65",                                             # be
    "not ef & 65",                                         # a
    "ef & 128",                                            # s
    "not ef & 128",                                        # ns
    "ef & 4",                                              # p
    "not ef & 4",                                          # np
    "((ef >> 7) ^ (ef >> 11)) & 1",                        # l
    "not ((ef >> 7) ^ (ef >> 11)) & 1",                    # ge
    "ef & 64 or ((ef >> 7) ^ (ef >> 11)) & 1",             # le
    "not (ef & 64 or ((ef >> 7) ^ (ef >> 11)) & 1)",       # g
]


def _e_jcc(g, i, a, n, k) -> bool:
    target = (n + i.imm) & M
    g.w(f"if {_COND_EXPRS[i.op2]}:")
    g.w(f"    pc = {target}")
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


_INLINE: Dict[Callable, Callable] = {
    xdec.exec_alu_rm_r: _e_alu_rm_r,
    xdec.exec_alu_r_rm: _e_alu_r_rm,
    xdec.exec_alu_a_imm: _e_alu_a_imm,
    xdec.exec_grp1_rm_imm: _e_grp1_rm_imm,
    xdec.exec_test_rm_r: _e_test_rm_r,
    xdec.exec_test_a_imm: _e_test_a_imm,
    xdec.exec_mov_rm_r: _e_mov_rm_r,
    xdec.exec_mov_r_rm: _e_mov_r_rm,
    xdec.exec_mov_r_imm: _e_mov_r_imm,
    xdec.exec_mov_rm_imm: _e_mov_rm_imm,
    xdec.exec_movzx: _e_movzx,
    xdec.exec_movsx: _e_movsx,
    xdec.exec_lea: _e_lea,
    xdec.exec_xchg_eax_r: _e_xchg_eax_r,
    xdec.exec_cdq: _e_cdq,
    xdec.exec_cwde: _e_cwde,
    xdec.exec_nop: _e_nop,
    xdec.exec_clc: _e_clc,
    xdec.exec_push_r: _e_push_r,
    xdec.exec_push_imm: _e_push_imm,
    xdec.exec_pushfd: _e_pushfd,
    xdec.exec_pop_r: _e_pop_r,
    xdec.exec_leave: _e_leave,
    xdec.exec_inc_r: _e_inc_r,
    xdec.exec_dec_r: _e_dec_r,
}

_INLINE_FINAL: Dict[Callable, Callable] = {
    xdec.exec_jcc: _e_jcc,
    xdec.exec_jmp_rel: _e_jmp_rel,
    xdec.exec_call_rel: _e_call_rel,
    xdec.exec_ret: _e_ret,
}


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
        final = ends_hard and k == total - 1
        emitter = (_INLINE_FINAL if final else _INLINE).get(instr.execute)
        if emitter is not None and emitter(g, instr, a, n, k):
            g.pend += instr.cycles
            g.max_cycles += instr.cycles + INLINE_SLACK
        else:
            _emit_generic(g, instr, a, n, k, final=final)


def generate(members: Sequence[Member]):
    """Compile one superblock, or a region of them, into (fn,
    [max_cycles of each member]); see :func:`repro.compile.emit.unit`."""
    return unit(Gen(), members, _body, insn_length, "x86-block")
