"""Differential equivalence: compiled-block core vs single-step core.

The block compiler (``repro.compile``) promises bit-identical execution:
every architectural fact the step core exposes — registers, flags/CR,
memory contents, instret, cycles, fault identity — must match at every
block boundary and at every exception entry.  This harness enforces the
promise two ways:

* a **lockstep driver** over bare CPUs: the block core executes one
  compiled block, the step core single-steps the same number of
  retired instructions, and the full state (including a memory digest)
  is compared at the boundary — and again after a fault, where the
  block's partial-retirement bookkeeping must equal the step core's;
* **hypothesis-generated instruction streams** fed through the lockstep
  driver for both architectures, so operand patterns nobody thought to
  hand-write (unaligned effective addresses, flag-chaining sequences,
  stack over/underflow, branches splitting blocks) get covered;
* **full kernel workloads** run to several checkpoints under both
  exec modes with all state compared at each checkpoint.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import repro.static.cfg as cfg_mod
from repro.compile import BlockCache, leaders_for, lookup_block
from repro.isa.memory import Region
from repro.kernel.build import build_kernel
from repro.machine.machine import Machine, MachineConfig
from repro.ppc.assembler import PPCAssembler
from repro.ppc.cpu import PPCCPU
from repro.ppc.exceptions import PPCFault
from repro.workload.driver import UnixBenchDriver
from repro.x86.assembler import Mem, X86Assembler
from repro.x86.cpu import X86CPU
from repro.x86.exceptions import X86Fault

TEXT = 0xC0100000
DATA = 0xC0300000
STACK = 0xC0500000

_FAULTS = (X86Fault, PPCFault)


# ---------------------------------------------------------------------------
# state snapshots


def _mem_digest(mem) -> str:
    h = hashlib.sha256()
    for index in sorted(mem._pages):
        h.update(index.to_bytes(4, "little"))
        h.update(mem._pages[index])
    return h.hexdigest()


def _snapshot(arch: str, cpu):
    if arch == "x86":
        return (tuple(cpu.regs), cpu.eflags, cpu.eip, cpu.current_eip,
                cpu.instret, cpu.cycles, cpu.cr0, cpu.cr2,
                cpu.user_mode, cpu.halted, _mem_digest(cpu.mem))
    return (tuple(cpu.gpr), cpu.cr, cpu.xer, cpu.lr, cpu.ctr,
            cpu.pc, cpu.current_pc, cpu.instret, cpu.cycles, cpu.msr,
            tuple(sorted(cpu.spr.items())), _mem_digest(cpu.mem))


def _fault_key(exc):
    if exc is None:
        return None
    if isinstance(exc, X86Fault):
        return ("x86", exc.vector, exc.address, exc.error_code)
    return ("ppc", exc.vector, exc.address, exc.dsisr, exc.program_reason)


# ---------------------------------------------------------------------------
# lockstep driver


def _ppc_halt(asm: PPCAssembler) -> None:
    """PowerPC has no hlt; a self-branch keeps the PC parked (the
    lockstep driver bounds total retirement) instead of letting
    execution run off the end of the emitted words."""
    spin = asm.new_label("spin")
    asm.label(spin)
    asm.b_label(spin)


def _make_cpu(arch: str):
    if arch == "x86":
        cpu = X86CPU()
        cpu.regs[4] = STACK + 0x2000 - 16          # ESP
        cpu.eip = TEXT
    else:
        cpu = PPCCPU()
        cpu.gpr[1] = STACK + 0x2000 - 64
        cpu.pc = TEXT
    cpu.aspace.map_region(Region(TEXT, 0x1000, "rx", "text"))
    cpu.aspace.map_region(Region(DATA, 0x1000, "rwx", "data"))
    cpu.aspace.map_region(Region(STACK, 0x2000, "rw", "stack"))
    return cpu


def run_lockstep(arch: str, code: bytes, max_insns: int):
    """Execute *code* on a block-dispatching CPU and a single-stepping
    twin, asserting bit-identical state at every block boundary and at
    fault entry.  Returns (boundaries, compiled_blocks, fault_key)."""
    step_cpu = _make_cpu(arch)
    block_cpu = _make_cpu(arch)
    for cpu in (step_cpu, block_cpu):
        cpu.mem.write(TEXT, code)
    return _lockstep(arch, block_cpu, step_cpu, BlockCache(), max_insns)


def _lockstep(arch: str, block_cpu, step_cpu, cache, max_insns: int):
    """The lockstep loop of :func:`run_lockstep` over an existing CPU
    pair, until the block CPU has retired *max_insns* in total."""
    block_cpu._block_cache = cache
    boundaries = 0
    compiled = 0
    while block_cpu.instret < max_insns and not block_cpu.halted:
        addr = (block_cpu.eip if arch == "x86"
                else block_cpu.pc & 0xFFFFFFFC)
        blk = cache.hot.get(addr)
        if blk is None:
            blk = lookup_block(block_cpu, cache, addr, arch, None)
        base = block_cpu.instret
        blk_exc = None
        if blk is not None and blk.fn is not None:
            compiled += 1
            try:
                blk.fn(block_cpu)
            except _FAULTS as exc:
                blk_exc = exc
        else:
            # marker / uncompilable head: fall back to stepping, which
            # is exactly what the machine dispatch loop does
            try:
                block_cpu.step()
            except _FAULTS as exc:
                blk_exc = exc
        retired = block_cpu.instret - base
        # the step twin retires the same count without faulting ...
        for _ in range(retired):
            step_cpu.step()
        step_exc = None
        if blk_exc is not None:
            # ... and its next step must raise the identical fault
            try:
                step_cpu.step()
            except _FAULTS as exc:
                step_exc = exc
            assert step_exc is not None, \
                "block core faulted where step core did not"
        boundaries += 1
        assert _fault_key(blk_exc) == _fault_key(step_exc)
        assert _snapshot(arch, block_cpu) == _snapshot(arch, step_cpu)
        if blk_exc is not None:
            return boundaries, compiled, _fault_key(blk_exc)
        if retired == 0:
            break                       # e.g. halted without retiring
    assert _snapshot(arch, block_cpu) == _snapshot(arch, step_cpu)
    return boundaries, compiled, None


# ---------------------------------------------------------------------------
# directed streams: straight lines, mid-block faults, multiple-ops


class TestDirectedX86:
    def test_straight_line_single_boundary(self):
        asm = X86Assembler()
        asm.mov_r_imm(0, 0x12345678)
        asm.mov_r_imm(1, 3)
        asm.alu_r_rm("add", 0, 1)
        asm.mov_rm_r(Mem(disp=DATA + 0x40), 0)
        asm.mov_r_rm(2, Mem(disp=DATA + 0x40))
        asm.hlt()
        boundaries, compiled, fault = run_lockstep(
            "x86", asm.finish(), 16)
        assert compiled >= 1
        assert fault is None

    def test_mid_block_store_fault(self):
        """A store to an unmapped address in the middle of a compiled
        block: partial retirement and fault identity must match."""
        asm = X86Assembler()
        asm.mov_r_imm(0, 0xAA)
        asm.mov_rm_r(Mem(disp=DATA), 0)
        asm.mov_rm_r(Mem(disp=0x100), 0)       # unmapped -> #PF
        asm.mov_r_imm(1, 0xBB)                 # never retires
        _boundaries, compiled, fault = run_lockstep(
            "x86", asm.finish(), 16)
        assert compiled >= 1
        assert fault is not None and fault[0] == "x86"

    def test_store_to_text_protection_fault(self):
        asm = X86Assembler()
        asm.mov_r_imm(0, 0xCC)
        asm.mov_rm_r(Mem(disp=TEXT), 0)        # text is rx -> fault
        _b, _c, fault = run_lockstep("x86", asm.finish(), 8)
        assert fault is not None

    def test_branches_split_blocks(self):
        asm = X86Assembler()
        asm.mov_r_imm(0, 5)
        loop = asm.new_label("loop")
        asm.label(loop)
        asm.dec_r(0)
        asm.alu_rm_imm("cmp", 0, 0)
        asm.jcc_label("ne", loop)
        asm.hlt()
        boundaries, compiled, fault = run_lockstep(
            "x86", asm.finish(), 64)
        assert boundaries >= 5                  # one per loop iteration
        assert fault is None


class TestDirectedPPC:
    def test_straight_line_single_boundary(self):
        asm = PPCAssembler()
        asm.load_imm32(9, DATA)
        asm.li(3, 1234)
        asm.stw(3, 0x40, 9)
        asm.lwz(4, 0x40, 9)
        asm.add(5, 3, 4)
        _ppc_halt(asm)
        boundaries, compiled, fault = run_lockstep(
            "ppc", asm.finish(), 7)
        assert compiled >= 1
        assert fault is None

    def test_mid_block_store_fault(self):
        asm = PPCAssembler()
        asm.load_imm32(9, 0x100)               # unmapped base
        asm.li(3, 7)
        asm.stw(3, 0, 9)                       # DSI mid-block
        asm.li(4, 8)                           # never retires
        _b, compiled, fault = run_lockstep("ppc", asm.finish(), 8)
        assert compiled >= 1
        assert fault is not None and fault[0] == "ppc"

    def test_lmw_stmw_roundtrip(self):
        """The inlined load/store-multiple emitters against the step
        core's loop implementation."""
        asm = PPCAssembler()
        asm.load_imm32(9, DATA + 0x100)
        for reg in range(26, 32):
            asm.li(reg, reg * 3)
        asm.stmw(26, 0, 9)
        for reg in range(26, 32):
            asm.li(reg, 0)
        asm.lmw(26, 0, 9)
        _ppc_halt(asm)
        boundaries, compiled, fault = run_lockstep(
            "ppc", asm.finish(), 18)
        assert compiled >= 1
        assert fault is None

    def test_lmw_alignment_fault(self):
        asm = PPCAssembler()
        asm.load_imm32(9, DATA + 2)            # misaligned EA
        asm.lmw(28, 0, 9)
        _b, _c, fault = run_lockstep("ppc", asm.finish(), 8)
        assert fault is not None and fault[0] == "ppc"

    def test_stmw_crossing_into_unmapped(self):
        """Store-multiple starting in the data region but running past
        its end: the fault fires partway through the register sweep and
        the partially-updated memory must match the step core's."""
        asm = PPCAssembler()
        asm.load_imm32(9, DATA + 0x1000 - 8)   # room for 2 of 4 words
        asm.stmw(28, 0, 9)
        _b, _c, fault = run_lockstep("ppc", asm.finish(), 8)
        assert fault is not None and fault[0] == "ppc"

    def test_branch_loop(self):
        asm = PPCAssembler()
        asm.li(3, 6)
        loop = asm.new_label("loop")
        asm.label(loop)
        asm.addi(3, 3, -1)
        asm.cmpwi(3, 0)
        asm.bne(loop)
        _ppc_halt(asm)
        boundaries, _compiled, fault = run_lockstep(
            "ppc", asm.finish(), 22)
        assert boundaries >= 6
        assert fault is None


# ---------------------------------------------------------------------------
# soft-TLB edges: a block's page-cached access must fault, COW and see
# layout changes exactly where the step core does


EDGE = 0xC0700000                  # region [EDGE, EDGE + 0x800): half a page


def _x86_snippet(*ops) -> bytes:
    """ops: ("ld"|"st", address) pairs; eax is stored, loads go to ebx."""
    asm = X86Assembler()
    asm.mov_r_imm(0, 0x5A5A0000)
    for op, addr in ops:
        asm.alu_r_rm("add", 0, 0)
        if op == "st":
            asm.mov_rm_r(Mem(disp=addr), 0)
        else:
            asm.mov_r_rm(3, Mem(disp=addr))
    asm.hlt()
    return asm.finish()


def _ppc_snippet(*ops) -> bytes:
    """The same over r3 (stored) and r4 (loaded), one base per access."""
    asm = PPCAssembler()
    asm.load_imm32(3, 0x5A5A0000)
    for op, addr in ops:
        asm.add(3, 3, 3)
        asm.load_imm32(9, addr)
        (asm.stw if op == "st" else asm.lwz)(3 if op == "st" else 4, 0, 9)
    _ppc_halt(asm)
    return asm.finish()


def _pair(arch: str, *snippets):
    """Block and step CPUs with snippet k at TEXT + 0x100 * k and a
    region ending mid-page at EDGE + 0x800."""
    snippet = _x86_snippet if arch == "x86" else _ppc_snippet
    cpus = _make_cpu(arch), _make_cpu(arch)
    for cpu in cpus:
        cpu.aspace.map_region(Region(EDGE, 0x800, "rw", "edge"))
        for k, ops in enumerate(snippets):
            cpu.mem.write(TEXT + 0x100 * k, snippet(*ops))
    return cpus


def _run(arch: str, pair, cache, entry: int, insns: int = 40):
    """Run the snippet at *entry* on both CPUs in lockstep."""
    for cpu in pair:
        if arch == "x86":
            cpu.eip, cpu.halted = TEXT + 0x100 * entry, False
        else:
            cpu.pc = TEXT + 0x100 * entry
    return _lockstep(arch, *pair, cache, pair[0].instret + insns)[2]


def _fork(arch: str, cpu):
    """A bare CPU over a copy-on-write fork of *cpu*'s memory."""
    child = (X86CPU if arch == "x86" else PPCCPU)(memory=cpu.mem.fork())
    child.aspace.clone_layout(cpu.aspace)
    if arch == "x86":
        child.regs[4] = cpu.regs[4]
    else:
        child.gpr[1] = cpu.gpr[1]
    return child


def _fault_addr(arch: str, cpu) -> int:
    return cpu.cr2 if arch == "x86" else cpu.spr[19]       # DAR


@pytest.mark.parametrize("arch", ["x86", "ppc"])
class TestSoftTLBEdges:
    @pytest.mark.parametrize("op", ["ld", "st"])
    def test_region_ending_mid_page(self, arch, op):
        """The last word of a half-page region works, twice; one word
        past it faults even though the page was just accessed."""
        last = EDGE + 0x7FC
        pair = _pair(arch, [("st", last), ("ld", last), ("st", last),
                            ("ld", last), (op, last + 4)])
        fault = _run(arch, pair, BlockCache(), 0)
        assert fault is not None and fault[2] == last + 4
        assert _fault_addr(arch, pair[0]) == last + 4

    def test_store_to_cow_shared_page_after_fork(self, arch):
        """A store after a fork lands on a private copy: the parent's
        store (its write entry predates the fork) leaves the child's
        view alone, and the child's store the parent's."""
        word = DATA + 0x40
        pair = _pair(arch, [("st", word), ("ld", word)],
                     [("ld", word)], [("ld", word), ("st", word)])
        parent_cache = BlockCache()
        assert _run(arch, pair, parent_cache, 0) is None
        child = tuple(_fork(arch, cpu) for cpu in pair)
        child_cache = BlockCache()
        assert _run(arch, pair, parent_cache, 2) is None
        assert _run(arch, child, child_cache, 1) is None
        assert _run(arch, child, child_cache, 2) is None
        loaded = child[0].regs[3] if arch == "x86" else child[0].gpr[4]
        assert loaded == 0xB4B40000            # the pre-fork store
        assert _run(arch, pair, parent_cache, 1) is None

    def test_cached_stack_page_unmapped_between_runs(self, arch):
        slot = STACK + 0x1F00
        pair = _pair(arch, [("st", slot), ("ld", slot)])
        cache = BlockCache()
        assert _run(arch, pair, cache, 0) is None
        for cpu in pair:
            cpu.aspace.unmap_region("stack")
        fault = _run(arch, pair, cache, 0)
        assert fault is not None and _fault_addr(arch, pair[0]) == slot

    def test_store_into_text_after_load(self, arch):
        pair = _pair(arch, [("ld", TEXT), ("st", TEXT + 8)])
        fault = _run(arch, pair, BlockCache(), 0)
        assert fault is not None and fault[2] == TEXT + 8


# ---------------------------------------------------------------------------
# hypothesis-generated streams


@st.composite
def x86_programs(draw):
    asm = X86Assembler()
    count = draw(st.integers(min_value=4, max_value=24))
    for _ in range(count):
        kind = draw(st.sampled_from(
            ["imm", "alu", "load", "store", "push", "pop", "shift",
             "incdec", "neg", "imul", "test", "movzx", "branch"]))
        r = draw(st.integers(0, 3))
        r2 = draw(st.integers(0, 3))
        off = draw(st.integers(0, 0x3F0))
        if kind == "imm":
            asm.mov_r_imm(r, draw(st.integers(0, 0xFFFFFFFF)))
        elif kind == "alu":
            op = draw(st.sampled_from(
                ["add", "sub", "and", "or", "xor", "cmp", "adc", "sbb"]))
            asm.alu_r_rm(op, r, r2)
        elif kind == "load":
            asm.mov_r_rm(r, Mem(disp=DATA + off),
                         width=draw(st.sampled_from([1, 2, 4])))
        elif kind == "store":
            asm.mov_rm_r(Mem(disp=DATA + off), r,
                         width=draw(st.sampled_from([1, 2, 4])))
        elif kind == "push":
            asm.push_r(r)
        elif kind == "pop":
            asm.pop_r(r)
        elif kind == "shift":
            asm.shift_rm_imm(draw(st.sampled_from(["shl", "shr", "sar"])),
                             r, draw(st.integers(0, 31)))
        elif kind == "incdec":
            (asm.inc_r if draw(st.booleans()) else asm.dec_r)(r)
        elif kind == "neg":
            (asm.neg_rm if draw(st.booleans()) else asm.not_rm)(r)
        elif kind == "imul":
            asm.imul_r_rm(r, r2)
        elif kind == "test":
            asm.test_rm_r(r, r2)
        elif kind == "movzx":
            asm.movzx(r, Mem(disp=DATA + off),
                      draw(st.sampled_from([1, 2])))
        elif kind == "branch":
            skip = asm.new_label()
            asm.alu_r_rm("cmp", r, r2)
            asm.jcc_label(draw(st.sampled_from(["e", "ne", "l", "g"])),
                          skip)
            asm.mov_r_imm(r2, draw(st.integers(0, 0xFFFF)))
            asm.label(skip)
    asm.hlt()
    return asm.finish(), len(asm.insn_offsets)


@st.composite
def ppc_programs(draw):
    asm = PPCAssembler()
    asm.load_imm32(9, DATA)                    # shared memory base
    count = draw(st.integers(min_value=4, max_value=24))
    for _ in range(count):
        kind = draw(st.sampled_from(
            ["imm", "arith", "logic", "shift", "rlwinm", "load",
             "store", "multiple", "cmp", "branch"]))
        r = draw(st.integers(2, 8))
        ra = draw(st.integers(2, 8))
        rb = draw(st.integers(2, 8))
        off = draw(st.integers(0, 0x3F0))
        if kind == "imm":
            asm.load_imm32(r, draw(st.integers(0, 0xFFFFFFFF)))
        elif kind == "arith":
            op = draw(st.sampled_from(
                [asm.add, asm.subf, asm.mullw, asm.divw, asm.divwu]))
            op(r, ra, rb)
        elif kind == "logic":
            op = draw(st.sampled_from(
                [asm.and_, asm.or_, asm.xor_, asm.nor]))
            op(r, ra, rb)
        elif kind == "shift":
            asm.srawi(r, ra, draw(st.integers(0, 31)))
        elif kind == "rlwinm":
            asm.rlwinm(r, ra, draw(st.integers(0, 31)),
                       draw(st.integers(0, 31)), draw(st.integers(0, 31)))
        elif kind == "load":
            op = draw(st.sampled_from([asm.lwz, asm.lbz, asm.lhz]))
            op(r, off, 9)
        elif kind == "store":
            op = draw(st.sampled_from([asm.stw, asm.stb, asm.sth]))
            op(r, off, 9)
        elif kind == "multiple":
            rt = draw(st.integers(26, 31))
            word_off = draw(st.integers(0, 0x100)) * 4
            if draw(st.booleans()):
                asm.stmw(rt, word_off, 9)
            else:
                asm.lmw(rt, word_off, 9)
        elif kind == "cmp":
            asm.cmpwi(r, draw(st.integers(-0x8000, 0x7FFF)))
        elif kind == "branch":
            skip = asm.new_label()
            asm.cmpw(ra, rb)
            (asm.beq if draw(st.booleans()) else asm.bne)(skip)
            asm.li(r, draw(st.integers(-0x8000, 0x7FFF)))
            asm.label(skip)
    _ppc_halt(asm)
    return asm.finish(), len(asm.words)


class TestHypothesisStreams:
    """Random instruction streams must retire identically on both
    cores — including any fault they happen to trip (stack underflow,
    running off the end of the emitted code, ...)."""

    @settings(max_examples=40, deadline=None)
    @given(program=x86_programs())
    def test_x86_streams(self, program):
        code, insns = program
        run_lockstep("x86", code, insns + 8)

    @settings(max_examples=40, deadline=None)
    @given(program=ppc_programs())
    def test_ppc_streams(self, program):
        code, insns = program
        run_lockstep("ppc", code, insns + 8)


# ---------------------------------------------------------------------------
# full kernel workloads


class TestKernelWorkload:
    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_workload_checkpoints_bit_identical(self, arch):
        """Boot + scheduler + syscalls + watchdog under both exec
        modes, compared at four checkpoints (after setup and after 8,
        16 and 24 user operations)."""
        checkpoints = {}
        for mode in ("step", "block"):
            machine = Machine(arch, config=MachineConfig(exec_mode=mode))
            machine.boot()
            driver = UnixBenchDriver(machine, seed=11)
            driver.setup()
            snaps = [_snapshot(arch, machine.cpu)]
            for target in (8, 16, 24):
                driver.run(target)
                snaps.append(_snapshot(arch, machine.cpu))
            if mode == "block":
                cache = machine.cpu._block_cache
                assert cache is not None and cache.hot, \
                    "block machine never compiled anything"
            checkpoints[mode] = snaps
        assert checkpoints["step"] == checkpoints["block"]

    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_forked_machine_inherits_equivalence(self, arch):
        """A fork taken after warmup must also match: the inherited
        warm block tier re-validates before running."""
        finals = {}
        for mode in ("step", "block"):
            base = Machine(arch, config=MachineConfig(exec_mode=mode))
            base.boot()
            warm = UnixBenchDriver(base, seed=3)
            warm.setup()
            warm.run(6)
            clone = base.fork()
            driver = UnixBenchDriver(clone, seed=5)
            driver.setup()
            driver.run(10)
            finals[mode] = _snapshot(arch, clone.cpu)
        assert finals["step"] == finals["block"]


class TestLeaders:
    def test_no_image_means_no_leaders(self):
        """Raw-memory harnesses pass no image: blocks end only at
        terminators and the size cap."""
        assert leaders_for("x86", None) == frozenset()
        assert leaders_for("ppc", None) == frozenset()

    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_real_image_leaders_cached_on_image(self, arch):
        image = dataclasses.replace(build_kernel(arch))
        leaders = leaders_for(arch, image)
        assert image.functions[next(iter(image.functions))].addr \
            in leaders
        assert leaders_for(arch, image) is leaders

    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_cfg_failure_on_real_image_raises(self, arch, monkeypatch):
        """A real kernel whose CFG cannot be built must not fall back
        silently to decode-until-branch blocks."""
        def broken(*args, **kwargs):
            raise RuntimeError("cfg build failed")
        monkeypatch.setattr(cfg_mod, "build_cfg", broken)
        image = dataclasses.replace(build_kernel(arch))
        with pytest.raises(RuntimeError, match="cfg build failed"):
            leaders_for(arch, image)
