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
* **counted loops compiled as regions**, driven one member per call
  and with the limits the dispatch loop passes, stopped by each limit,
  a fault and a watchpoint inside the loop;
* **full kernel workloads** run to several checkpoints under both
  exec modes with all state compared at each checkpoint, and the clean
  window run under both with an instruction breakpoint armed (blocks
  that cannot fetch its address keep running).
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import repro.static.cfg as cfg_mod
from repro.compile import BlockCache, leaders_for, lookup_block
from repro.compile.blocks import _prepare
from repro.injection.campaign import (
    Campaign, CampaignConfig, CampaignContext,
)
from repro.injection.injector import InjectionRun, RunSpec
from repro.injection.outcomes import CampaignKind, Outcome
from repro.injection.targets import CodeTarget
from repro.isa.memory import Region
from repro.kernel.build import build_kernel
from repro.machine.machine import Machine, MachineConfig
from repro.ppc.assembler import PPCAssembler
from repro.ppc.cpu import PPCCPU
from repro.ppc.exceptions import PPCFault
from repro.workload.driver import UnixBenchDriver
from repro.workload.programs import clone_programs
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


def run_lockstep(arch: str, code: bytes, max_insns: int,
                 deadline=None):
    """Execute *code* on a block-dispatching CPU and a single-stepping
    twin, asserting bit-identical state at every block boundary and at
    fault entry.  Returns (boundaries, compiled_blocks, fault_key)."""
    step_cpu = _make_cpu(arch)
    block_cpu = _make_cpu(arch)
    for cpu in (step_cpu, block_cpu):
        cpu.mem.write(TEXT, code)
    return _lockstep(arch, block_cpu, step_cpu, BlockCache(), max_insns,
                     deadline)


def _lockstep(arch: str, block_cpu, step_cpu, cache, max_insns: int,
              deadline=None):
    """The lockstep loop of :func:`run_lockstep` over an existing CPU
    pair, until the block CPU has retired *max_insns* in total.

    Without a *deadline* every block runs alone (``blk.fn(cpu)``).
    With one (a cycle count), blocks run as ``Machine.call_kernel``
    runs them: only when the block fits in the instruction budget
    (*max_insns*) and the deadline, else the CPU single-steps; and with
    those as the limits, ``blk.fn(cpu, max_insns, deadline)``, so a
    region runs on through its members while they fit too."""
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
        if blk is not None and blk.fn is not None and (
                deadline is None or (
                    base + blk.n <= max_insns
                    and block_cpu.cycles + blk.max_cycles <= deadline)):
            compiled += 1
            try:
                if deadline is None:
                    blk.fn(block_cpu)
                else:
                    blk.fn(block_cpu, max_insns, deadline)
            except _FAULTS as exc:
                blk_exc = exc
        else:
            # marker, uncompilable head, or a block the limits refuse:
            # fall back to stepping, as the machine dispatch loop does
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
# regions: a cycle of superblocks compiled into one looping function


def _counted_loop(arch: str, count: int, base: int):
    """A loop of *count* iterations over consecutive words from *base*
    (pointer in esi / r9): member A loads, bumps and stores the
    word, advances the pointer and leaves on the last iteration;
    member B counts down (ecx / ctr) and branches back.  Returns
    (code, insns before A, A's offset, A's length, B's offset,
    B's length)."""
    if arch == "x86":
        asm = X86Assembler()
        asm.mov_r_imm(1, count)
        asm.mov_r_imm(6, base)
        asm.label("a")
        asm.mov_r_rm(0, Mem(base=6))
        asm.inc_r(0)
        asm.mov_rm_r(Mem(base=6), 0)
        asm.alu_rm_imm("add", 6, 4)
        asm.alu_rm_imm("cmp", 1, 1)
        asm.jcc_label("e", "done")
        asm.label("b")
        asm.dec_r(1)
        asm.jmp_label("a")
        asm.label("done")
        asm.hlt()
        index = asm.insn_offsets.index
        a, b = index(asm.labels["a"]), index(asm.labels["b"])
        return (asm.finish(), a, asm.labels["a"], b - a,
                asm.labels["b"], 2)
    asm = PPCAssembler()
    asm.load_imm32(9, base)
    asm.li(3, count)
    asm.mtctr(3)
    asm.label("a")
    asm.lwz(4, 0, 9)
    asm.addi(4, 4, 1)
    asm.stw(4, 0, 9)
    asm.addi(9, 9, 4)
    asm.cmpwi(4, -1)                       # never equal
    asm.beq("done")
    asm.label("b")
    asm.bc_label(16, 0, "a")               # bdnz
    asm.label("done")
    _ppc_halt(asm)
    index = asm.insn_offsets.index
    a, b = index(asm.labels["a"]), index(asm.labels["b"])
    return asm.finish(), a, asm.labels["a"], b - a, asm.labels["b"], 1


class _Loop:
    """Block and step CPUs loaded with :func:`_counted_loop`."""

    def __init__(self, arch: str, base: int = DATA) -> None:
        self.arch = arch
        (self.code, self.pro, a, self.a_n, b,
         self.b_n) = _counted_loop(arch, 12, base)
        self.a, self.b = TEXT + a, TEXT + b
        self.it = self.a_n + self.b_n          # insns per iteration
        self.cpus = _make_cpu(arch), _make_cpu(arch)
        for cpu in self.cpus:
            cpu.mem.write(TEXT, self.code)
        self.cache = BlockCache()

    def run(self, max_insns: int, limited: bool, deadline: int = 10 ** 9):
        """Lockstep to *max_insns*; with *limited*, dispatch-style."""
        return _lockstep(self.arch, *self.cpus, self.cache, max_insns,
                         deadline if limited else None)

    def members(self):
        """A's and B's compiled blocks, cached or waiting."""
        blocks = {**self.cache.waiting, **self.cache.snapshot()}
        return blocks[self.a], blocks[self.b]


@pytest.mark.parametrize("limited", [False, True],
                         ids=["one-member", "limits"])
@pytest.mark.parametrize("arch", ["x86", "ppc"])
class TestRegionLockstep:
    """Counted loops whose two superblocks form a region, in lockstep
    with the step core: one member per call, and with the limits the
    dispatch loop passes, where one call runs many iterations and must
    stop, fault and report exactly where stepping would."""

    def test_loop_runs_as_one_region(self, arch, limited):
        loop = _Loop(arch)
        boundaries, compiled, fault = loop.run(loop.pro + 12 * loop.it,
                                               limited)
        assert fault is None
        head, back = loop.members()
        assert head.fn is back.fn
        assert head.region == back.region
        assert {a for a, _length in head.region} == \
            {a for a, _length in head.spans + back.spans}
        if limited:
            assert compiled < 12                # iterations chained
        else:
            assert compiled >= 2 * 11           # one member per call

    def test_limit_mid_iteration(self, arch, limited):
        loop = _Loop(arch)
        stop = loop.pro + 5 * loop.it + 3       # inside A
        assert loop.run(stop, limited)[2] is None
        if limited:                             # else blocks overshoot
            assert loop.cpus[0].instret == stop

    def test_limit_on_iteration_boundary(self, arch, limited):
        loop = _Loop(arch)
        stop = loop.pro + 7 * loop.it
        _b, compiled, fault = loop.run(stop, limited)
        assert fault is None
        block_cpu = loop.cpus[0]
        assert block_cpu.instret == stop
        assert (block_cpu.eip if arch == "x86" else block_cpu.pc) == loop.a
        if limited:
            assert compiled <= 2

    def test_watchdog_headroom_exhausted_mid_loop(self, arch, limited):
        """A cycle deadline reached after a few iterations: the region
        stops at the last member that fits it, and the rest steps."""
        loop = _Loop(arch)
        probe = _make_cpu(arch)
        probe.mem.write(TEXT, loop.code)
        while probe.instret < loop.pro + 3 * loop.it + 2:
            probe.step()
        stop = loop.pro + 10 * loop.it
        boundaries, compiled, fault = loop.run(stop, limited,
                                               deadline=probe.cycles)
        assert fault is None
        if limited:
            assert loop.cpus[0].instret == stop
            assert boundaries - compiled > loop.it     # stepped after

    def test_fault_in_iteration_k(self, arch, limited):
        """The pointer runs off the end of the data region in iteration
        4: the load faults with the step core's partial retirement."""
        loop = _Loop(arch, base=DATA + 0x1000 - 12)
        _b, compiled, fault = loop.run(loop.pro + 12 * loop.it, limited)
        assert fault is not None and fault[2] == DATA + 0x1000
        assert loop.cpus[0].instret == loop.pro + 3 * loop.it
        if limited:
            assert compiled <= 2

    def test_watchpoint_hit_in_loop_body(self, arch, limited):
        """A watchpoint on the word iteration 6 bumps fires on its load
        and its store, with the same observed state on both cores."""
        loop = _Loop(arch)
        logs = ([], [])
        for cpu, log in zip(loop.cpus, logs):
            cpu.debug.set_watchpoint(DATA + 4 * 6)

            def hit(event, cpu=cpu, log=log):
                log.append((event.kind, event.cycles, cpu.instret,
                            cpu.cycles, _snapshot(arch, cpu)))
            cpu.debug.on_watchpoint = hit
        assert loop.run(loop.pro + 12 * loop.it, limited)[2] is None
        assert len(logs[0]) == 2 and logs[0] == logs[1]

    def test_entry_at_non_head_member(self, arch, limited):
        """Entered at B (counter and pointer already set up), the
        region's function starts at its second member."""
        loop = _Loop(arch)
        for cpu in loop.cpus:
            if arch == "x86":
                cpu.regs[1], cpu.regs[6], cpu.eip = 9, DATA, loop.b
            else:
                cpu.ctr, cpu.gpr[9], cpu.pc = 9, DATA, loop.b
        _b, compiled, fault = loop.run(loop.cpus[0].instret
                                       + 8 * loop.it, limited)
        assert fault is None
        head, back = loop.members()
        assert back.fn is head.fn
        assert loop.cache.snapshot()[loop.b] is back
        if limited:
            assert compiled < 8


# ---------------------------------------------------------------------------
# registers in locals, flags where they are read: the points where an
# x86 block must write its register locals back or build pending flags


def _x86_pair(code: bytes):
    """Block and step x86 CPUs loaded with *code*."""
    cpus = _make_cpu("x86"), _make_cpu("x86")
    for cpu in cpus:
        cpu.mem.write(TEXT, code)
    return cpus


class TestLazyState:
    """x86 blocks hold GPRs in locals and leave the flags of
    ``add``/``sub``/``logic`` pending; each test observes one point
    where they must be synced or built, in lockstep with the step
    core."""

    def test_add_then_faulting_load(self):
        """A load after an add misses the TLB and faults: the fault
        sees the add's flags built and its result written back."""
        asm = X86Assembler()
        asm.mov_r_imm(0, 0xFFFFFFFF)
        asm.mov_r_imm(1, 1)
        asm.alu_r_rm("add", 0, 1)              # eax = 0, CF|ZF pending
        asm.mov_r_rm(2, Mem(disp=0x100))       # unmapped -> #PF
        asm.hlt()
        cpus = _x86_pair(asm.finish())
        _b, compiled, fault = _lockstep("x86", *cpus, BlockCache(), 8)
        assert compiled == 1 and fault is not None
        assert cpus[0].regs[0] == 0 and cpus[0].eflags & 0x41 == 0x41

    @pytest.mark.parametrize("limited", [False, True],
                             ids=["one-member", "limits"])
    def test_watchpoint_callback_mid_region(self, limited):
        """A watchpoint on the store right after an add, in the first
        member of a two-member loop: the callback sees the add's flags
        and the registers, and rewrites the addend, which the rest of
        the loop must use."""
        asm = X86Assembler()
        asm.mov_r_imm(1, 12)                   # ecx counts down
        asm.mov_r_imm(6, DATA)                 # esi walks the words
        asm.mov_r_imm(7, 0x80000000)           # edi: the addend
        asm.label("a")
        asm.mov_r_rm(0, Mem(base=6))
        asm.alu_r_rm("add", 0, 7)              # flags pending at ...
        asm.mov_rm_r(Mem(base=6), 0)           # ... this store's hook
        asm.alu_rm_imm("add", 6, 4)
        asm.alu_rm_imm("cmp", 1, 1)
        asm.jcc_label("e", "done")
        asm.label("b")
        asm.dec_r(1)
        asm.jmp_label("a")
        asm.label("done")
        asm.hlt()
        a, b = TEXT + asm.labels["a"], TEXT + asm.labels["b"]
        cpus = _x86_pair(asm.finish())
        seen = ([], [])
        for cpu, log in zip(cpus, seen):
            cpu.mem.write(DATA, (0x80000000).to_bytes(4, "little") * 12)
            cpu.debug.set_watchpoint(DATA + 4 * 6, on_read=False)

            def hit(event, cpu=cpu, log=log):
                log.append((cpu.eflags, _snapshot("x86", cpu)))
                cpu.regs[7] ^= 0x40000001
            cpu.debug.on_watchpoint = hit
        cache = BlockCache()
        _b, compiled, fault = _lockstep("x86", *cpus, cache, 3 + 12 * 8,
                                        10 ** 9 if limited else None)
        assert fault is None and cpus[0].halted
        assert len(seen[0]) == 1 and seen[0] == seen[1]
        assert seen[0][0][0] & 0x841 == 0x841  # 2**31 + 2**31: OF ZF CF
        blocks = {**cache.waiting, **cache.snapshot()}
        assert blocks[a].fn is blocks[b].fn     # one region
        if limited:
            assert compiled < 12

    def test_flag_reader_after_access(self):
        """``adc`` reads the carry of an add across a load that hits
        the soft TLB, the path that builds no flags."""
        asm = X86Assembler()
        asm.mov_r_imm(0, 0xFFFFFFFF)
        asm.mov_rm_r(Mem(disp=DATA), 0)        # the page resident ...
        asm.mov_r_rm(3, Mem(disp=DATA + 4))    # ... and in the read TLB
        asm.mov_r_imm(1, 1)
        asm.alu_r_rm("add", 0, 1)              # CF pending
        asm.mov_r_rm(2, Mem(disp=DATA))        # a TLB hit
        asm.alu_r_rm("adc", 2, 3)              # edx = ~0 + 0 + CF = 0
        asm.hlt()
        cpus = _x86_pair(asm.finish())
        _b, compiled, fault = _lockstep("x86", *cpus, BlockCache(), 16)
        assert compiled >= 1 and fault is None
        assert cpus[0].regs[2] == 0 and cpus[0].eflags & 1


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
                [asm.and_, asm.or_, asm.xor, asm.nor]))
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
    return asm.finish(), len(asm.insn_offsets)


class TestHypothesisStreams:
    """Random instruction streams must retire identically on both
    cores — including any fault they happen to trip (stack underflow,
    running off the end of the emitted code, ...).  Each stream runs
    once block by block and once with dispatch-style limits (the ppc
    streams end in a one-block loop, which then runs as a region up to
    the instruction limit)."""

    @settings(max_examples=40, deadline=None)
    @given(program=x86_programs())
    def test_x86_streams(self, program):
        code, insns = program
        run_lockstep("x86", code, insns + 8)
        run_lockstep("x86", code, insns + 8, deadline=10 ** 6)

    @settings(max_examples=40, deadline=None)
    @given(program=ppc_programs(), slack=st.integers(0, 40))
    def test_ppc_streams(self, program, slack):
        code, insns = program
        run_lockstep("ppc", code, insns + 8)
        run_lockstep("ppc", code, insns + 8 + slack, deadline=10 ** 6)


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


def _memcpy_word_loop(context):
    """The region members of ``memcpy`` in the window's blocks that
    share their function with another member: its word loop."""
    info = context.base_machine.image.functions["memcpy"]
    blocks = context.base_machine.cpu._block_cache.snapshot()
    units: dict = {}
    for addr in sorted(blocks):
        block = blocks[addr]
        if info.addr <= addr < info.addr + info.size \
                and block.region is not None:
            units.setdefault(block.fn, []).append(block)
    loops = [members for members in units.values() if len(members) > 1]
    assert len(loops) == 1
    return loops[0]


@pytest.mark.parametrize("arch", ["x86", "ppc"])
class TestKernelRegions:
    """``memcpy``'s word loop, the hottest cycle in the kernel, as a
    region of the clean window's blocks."""

    def test_memcpy_word_loop_shares_one_function(self, arch, request):
        context = request.getfixturevalue(f"{arch}_context")
        head, body = _memcpy_word_loop(context)
        assert head.fn is body.fn and head.region == body.region
        assert (head.start, head.end) == (body.start, body.end)
        assert head.start <= head.spans[0][0] < body.spans[0][0] \
            < body.end

    def test_code_flip_into_loop_body_evicts_both_members(self, arch,
                                                          request):
        context = request.getfixturevalue(f"{arch}_context")
        head, body = _memcpy_word_loop(context)
        clone = context.base_machine.fork()
        cache = clone.cpu._block_cache
        assert cache.warm.get(head.spans[0][0]) is head
        clone.flip_memory_bit(body.spans[body.n // 2][0], 0)
        for member in (head, body):
            assert member.spans[0][0] not in cache.hot
            assert member.spans[0][0] not in cache.warm

    def test_code_flip_into_loop_body_matches_step_mode(self, arch,
                                                        request):
        context = request.getfixturevalue(f"{arch}_context")
        _head, body = _memcpy_word_loop(context)
        addr, length = body.spans[body.n // 2]
        target = CodeTarget("memcpy", addr, length, bit=3)
        results = [InjectionRun(RunSpec(
            base_machine=context.base_machine,
            base_programs=context.base_programs, kind=CampaignKind.CODE,
            target=target, ops=context.ops, seed=11,
            exec_mode=mode)).execute() for mode in ("step", "block")]
        assert results[0].outcome is not Outcome.NOT_ACTIVATED
        assert results[0] == results[1]


def _breakpoint_site(context, case: str):
    """(address, one_shot) of one armed-breakpoint case: an instruction
    in ``memcpy``'s word-loop body, once or for every fetch, or the
    entry of a kernel function the clean run never executes."""
    _head, body = _memcpy_word_loop(context)
    if case == "one_shot":
        return body.spans[body.n // 2][0], True
    if case == "persistent":
        return body.spans[0][0], False
    functions = context.base_machine.image.functions
    return next(info.addr for _name, info in sorted(functions.items())
                if info.addr not in context.probe.executed_pcs), True


def _armed_window(context, exec_mode: str, addr: int, one_shot: bool):
    """Run the clean window from the base machine with one instruction
    breakpoint armed.  Returns the hits as (addr, instret, cycles), the
    final state, and how many instructions retired outside the step
    core while the breakpoint was armed."""
    base = context.base_machine
    machine = base.fork(config=dataclasses.replace(base.config,
                                                   exec_mode=exec_mode))
    cpu = machine.cpu
    debug = cpu.debug
    debug.set_instruction_breakpoint(addr, one_shot=one_shot)
    hits = []
    debug.on_breakpoint = lambda hit: hits.append(
        (hit.addr, cpu.instret, hit.cycles))
    armed_steps = 0
    step = cpu.step

    def counting_step():
        nonlocal armed_steps
        step()
        # a one-shot hit disarms before its instruction executes
        if debug.has_instruction_breakpoints:
            armed_steps += 1
    cpu.step = counting_step
    start = cpu.instret
    driver = UnixBenchDriver(machine, seed=context.seed,
                             programs=clone_programs(context.base_programs))
    driver.run(context.ops)
    disarmed = hits[0][1] if one_shot and hits else cpu.instret
    return hits, _snapshot(context.arch, cpu), \
        disarmed - start - armed_steps


@pytest.mark.parametrize("case", ["one_shot", "persistent", "never_hit"])
@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_armed_breakpoint_lockstep(arch, case, request):
    """Compiled blocks keep running while an instruction breakpoint is
    armed, refusing only those that can fetch its address: the hits
    (address, instret, cycles) and the final registers, flags and
    memory match the step core's, and blocks retired instructions
    while the breakpoint was armed."""
    context = request.getfixturevalue(f"{arch}_context")
    addr, one_shot = _breakpoint_site(context, case)
    step_hits, step_state, step_unstepped = _armed_window(
        context, "step", addr, one_shot)
    block_hits, block_state, block_unstepped = _armed_window(
        context, "block", addr, one_shot)
    assert block_hits == step_hits
    assert block_state == step_state
    if case == "persistent":
        assert len(step_hits) > 1
    else:
        assert len(step_hits) == {"one_shot": 1, "never_hit": 0}[case]
    assert step_unstepped == 0
    assert block_unstepped > 0


@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_code_campaign_steps_little(arch, monkeypatch):
    """A code campaign runs its residues in compiled blocks, stepping
    only near each target: 1,437 stepped instructions on x86 and 1,576
    on ppc, against 118,280 and 54,865 when an armed breakpoint turned
    blocks off.  The counts are deterministic, so this guards the
    speed-up without timing it."""
    context = CampaignContext(arch, 11, 48)
    cpu_class = X86CPU if arch == "x86" else PPCCPU
    stepped = 0
    step = cpu_class.step

    def counting_step(cpu):
        nonlocal stepped
        stepped += 1
        step(cpu)
    monkeypatch.setattr(cpu_class, "step", counting_step)
    config = CampaignConfig(arch=arch, kind=CampaignKind.CODE, count=24,
                            seed=11, ops=48)
    result = Campaign(config, context).run()
    assert len(result.results) == 24
    assert stepped < 5_000


class TestPrepare:
    """Re-validating a block whose decodes were demoted (as after a
    fork or a flush): one fetch check of its extent, or one per
    instruction where that check fails."""

    @staticmethod
    def _demoted(second: str):
        """A five-instruction block whose text spans two regions, the
        second (from its third instruction on) with permissions
        *second*, compiled and then demoted to the warm tier."""
        asm = X86Assembler()
        for reg in range(4):
            asm.mov_r_imm(reg, reg)            # 5 bytes each
        asm.hlt()
        code = asm.finish()
        cpu = X86CPU()
        cpu.aspace.map_region(Region(TEXT, 10, "rx", "text"))
        cpu.aspace.map_region(Region(TEXT + 10, 0xFF6, "rx", "more"))
        cpu.mem.write(TEXT, code)
        block = lookup_block(cpu, BlockCache(), TEXT, "x86", None)
        assert block is not None and len(block.spans) == 5
        cpu.decodes.evict(())
        if second != "rx":
            cpu.aspace.unmap_region("more")
            cpu.aspace.map_region(Region(TEXT + 10, 0xFF6, second, "more"))
        assert not cpu.decodes.hot
        return cpu, block

    def test_extent_across_regions_checks_each_instruction(self):
        cpu, block = self._demoted("rx")
        version = cpu.decodes.version
        assert _prepare(cpu, block)
        assert sorted(cpu.decodes.hot) == [a for a, _n in block.spans]
        assert cpu.decodes.version == version + 1

    def test_unexecutable_instruction_refuses_the_block(self):
        cpu, block = self._demoted("rw")
        assert not _prepare(cpu, block)
        assert not cpu.decodes.hot


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
    def test_cfg_failure_on_real_image_raises(self, arch, monkeypatch,
                                              code_cache):
        """A real kernel whose CFG cannot be built must not fall back
        silently to decode-until-branch blocks.  The code cache starts
        empty, so the leaders are not served from an earlier build."""
        def broken(*args, **kwargs):
            raise RuntimeError("cfg build failed")
        monkeypatch.setattr(cfg_mod, "build_cfg", broken)
        image = dataclasses.replace(build_kernel(arch))
        with pytest.raises(RuntimeError, match="cfg build failed"):
            leaders_for(arch, image)
