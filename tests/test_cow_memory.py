"""Copy-on-write memory forking and warm decode-cache invalidation.

Three guarantees from the COW fork redesign:

* **Isolation** — a randomized property test: after ``fork()``, writes
  on either side (every access width, base→clone and clone→base) are
  never visible to the other side, and reads on both sides agree with
  an eagerly copied reference byte-for-byte.
* **Equivalence** — a ``fork()`` (COW + warm cache) and a freshly
  booted machine that shares no fork code are bit-identical after
  running the same real kernel work: same architectural snapshot, same
  cycle counts, same memory.
* **Precision** — flipping one text byte evicts only the decodes that
  byte can corrupt; every other cached decode survives (demoted to the
  warm tier, where its next fetch re-runs the permission checks).
"""

from __future__ import annotations

import random

import pytest

from repro.isa.memory import PAGE_SIZE, PhysicalMemory
from repro.machine.machine import Machine

ARCHES = ["x86", "ppc"]


def _machine(arch, booted_x86, booted_ppc) -> Machine:
    return booted_x86 if arch == "x86" else booted_ppc


# ---------------------------------------------------------------------------
# randomized fork isolation


class TestForkIsolation:
    """Writes after fork never leak across the fork boundary."""

    SPAN = 8 * PAGE_SIZE

    @staticmethod
    def _apply(mem: PhysicalMemory, mirror: bytearray, rng: random.Random,
               addr: int) -> None:
        """One random-width write, applied identically to the memory
        under test and to an independent flat-bytearray model."""
        width = rng.choice(("raw", "u8", "u16", "u32"))
        if width == "raw":
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 64)))
            mem.write(addr, data)
            mirror[addr:addr + len(data)] = data
        elif width == "u8":
            value = rng.randrange(256)
            mem.write_u8(addr, value)
            mirror[addr] = value
        elif width == "u16":
            value = rng.randrange(1 << 16)
            little = bool(rng.randrange(2))
            mem.write_u16(addr, value, little_endian=little)
            mirror[addr:addr + 2] = value.to_bytes(
                2, "little" if little else "big")
        else:
            value = rng.randrange(1 << 32)
            little = bool(rng.randrange(2))
            mem.write_u32(addr, value, little_endian=little)
            mirror[addr:addr + 4] = value.to_bytes(
                4, "little" if little else "big")

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_isolation(self, seed):
        rng = random.Random(seed)
        base = PhysicalMemory()
        initial = bytes(rng.randrange(256) for _ in range(self.SPAN))
        base.write(0, initial)
        clone = base.fork()
        # independent flat models of what each side must contain
        mirrors = {id(base): bytearray(initial),
                   id(clone): bytearray(initial)}

        for _ in range(200):
            # keep the largest write inside the span; straddling page
            # boundaries is still exercised constantly
            addr = rng.randrange(self.SPAN - 64)
            target = base if rng.randrange(2) else clone
            self._apply(target, mirrors[id(target)], rng, addr)

        for mem in (base, clone):
            assert mem.read(0, self.SPAN) == bytes(mirrors[id(mem)])

    @pytest.mark.parametrize("direction", ["base_writes", "clone_writes"])
    @pytest.mark.parametrize("width", ["raw", "u8", "u16", "u32"])
    def test_single_write_invisible_across_fork(self, direction, width):
        base = PhysicalMemory()
        base.write(0x1000, bytes(range(256)))
        clone = base.fork()
        writer, reader = ((base, clone) if direction == "base_writes"
                          else (clone, base))
        before = reader.read(0x1000, 256)
        addr = 0x1010
        if width == "raw":
            writer.write(addr, b"\xAA" * 8)
        elif width == "u8":
            writer.write_u8(addr, 0xAA)
        elif width == "u16":
            writer.write_u16(addr, 0xAAAA, little_endian=True)
        else:
            writer.write_u32(addr, 0xAABBCCDD, little_endian=False)
        assert reader.read(0x1000, 256) == before
        assert writer.read(addr, 1) == b"\xAA"
        assert writer.cow_page_copies == 1

    def test_page_boundary_straddle(self):
        base = PhysicalMemory()
        base.write(0, bytes(2 * PAGE_SIZE))
        clone = base.fork()
        clone.write(PAGE_SIZE - 2, b"\x11\x22\x33\x44")
        assert base.read(PAGE_SIZE - 2, 4) == b"\x00\x00\x00\x00"
        assert clone.read(PAGE_SIZE - 2, 4) == b"\x11\x22\x33\x44"
        assert clone.cow_page_copies == 2   # both straddled pages

    def test_sibling_forks_are_isolated(self):
        base = PhysicalMemory()
        base.write(0x2000, b"seed")
        a = base.fork()
        b = base.fork()
        a.write(0x2000, b"aaaa")
        b.write(0x2000, b"bbbb")
        assert base.read(0x2000, 4) == b"seed"
        assert a.read(0x2000, 4) == b"aaaa"
        assert b.read(0x2000, 4) == b"bbbb"


# ---------------------------------------------------------------------------
# COW + warm cache vs a fresh boot


class TestCowEagerEquivalence:
    @pytest.mark.parametrize("arch", ARCHES)
    def test_identical_after_kernel_work(self, arch, booted_x86,
                                         booted_ppc):
        base = _machine(arch, booted_x86, booted_ppc)
        cow = base.fork()
        reference = Machine(arch)
        reference.boot()
        for machine in (cow, reference):
            for nr in (1, 2, 3, 1, 4, 2):
                machine.syscall(nr)
            machine.deliver_timer()
        assert cow.cpu.snapshot() == reference.cpu.snapshot()
        assert cow.cpu.cycles == reference.cpu.cycles
        # memory contents identical page-for-page
        pages = set(cow.cpu.mem._pages) | set(reference.cpu.mem._pages)
        for index in pages:
            assert cow.cpu.mem.read(index * PAGE_SIZE, PAGE_SIZE) == \
                reference.cpu.mem.read(index * PAGE_SIZE, PAGE_SIZE), \
                f"page {index:#x} diverged"

    @pytest.mark.parametrize("arch", ARCHES)
    def test_fork_copies_no_pages_up_front(self, arch, booted_x86,
                                           booted_ppc):
        base = _machine(arch, booted_x86, booted_ppc)
        clone = base.fork()
        assert clone.cpu.mem.cow_page_copies == 0
        assert clone.cpu.mem.shared_pages() == len(clone.cpu.mem._pages)


# ---------------------------------------------------------------------------
# per-address icache invalidation


#: every ``Tiers`` user of a machine, as (arch, cache); the decode
#: caches keep their arch-only ids
TIERS = [pytest.param("x86", "decodes", id="x86"),
         pytest.param("ppc", "decodes", id="ppc"),
         pytest.param("x86", "blocks", id="x86-blocks"),
         pytest.param("ppc", "blocks", id="ppc-blocks")]


def _tiers(machine: Machine, cache: str):
    return machine.cpu.decodes if cache == "decodes" \
        else machine.cpu._block_cache


def _warmed(base: Machine) -> Machine:
    """A fork of *base* that ran one syscall twice: a block compiles on
    its address's second miss, so both caches end with hot entries."""
    clone = base.fork()
    clone.syscall(1)
    clone.syscall(1)
    return clone


def _spans(arch: str, cache: str, key: int, entry, addr: int) -> bool:
    """Whether the cached *entry* at *key* covers byte *addr*."""
    if cache == "blocks":
        return entry.start <= addr < entry.end
    from repro.x86 import decoder as x86_decoder
    window = x86_decoder.MAX_INSN_LEN if arch == "x86" else 4
    return addr - window < key <= addr


class TestIcacheInvalidation:
    @pytest.mark.parametrize("arch,cache", TIERS)
    def test_text_flip_evicts_only_affected_decodes(
            self, arch, cache, booted_x86, booted_ppc):
        clone = _warmed(_machine(arch, booted_x86, booted_ppc))
        tiers = _tiers(clone, cache)
        cached = dict(tiers.hot)
        assert cached, "syscall should have populated the hot tier"
        victim = sorted(cached)[len(cached) // 2]
        clone.flip_memory_bit(victim, 0)
        # the victim's entry is gone from both tiers ...
        assert victim not in tiers.hot
        assert victim not in tiers.warm
        # ... survivors were demoted to warm, not discarded ...
        survivors = {a: e for a, e in cached.items()
                     if not _spans(arch, cache, a, e, victim)}
        for addr, entry in survivors.items():
            assert tiers.warm.get(addr) is entry, \
                f"entry at {addr:#x} should have survived the flip"
        # ... and a subsequent fetch re-decodes the flipped word only
        assert tiers.hot == {}

    @pytest.mark.parametrize("arch,cache", TIERS)
    def test_clone_inherits_parent_decodes_as_warm(
            self, arch, cache, booted_x86, booted_ppc):
        base = _machine(arch, booted_x86, booted_ppc)
        first = base.fork()
        first.syscall(1)
        # fork a sibling from the (still pristine) base: it inherits
        # whatever the base decoded during boot, all in the warm tier
        sibling = base.fork()
        assert _tiers(sibling, cache).hot == {}
        assert set(_tiers(sibling, cache).warm) >= \
            set(_tiers(base, cache).hot)

    @pytest.mark.parametrize("arch,cache", TIERS)
    def test_eviction_spares_parent_and_sibling(
            self, arch, cache, booted_x86, booted_ppc):
        """A child's text flip copies the warm tier it shares before
        evicting from it: the parent's tiers and a sibling's warm tier
        keep every entry."""
        parent = _warmed(_machine(arch, booted_x86, booted_ppc))
        first, second = parent.fork(), parent.fork()
        shared = _tiers(first, cache).warm
        assert shared is _tiers(second, cache).warm
        parent_tiers = _tiers(parent, cache)
        before = (dict(parent_tiers.hot), dict(parent_tiers.warm),
                  dict(shared))
        victim = sorted(parent_tiers.hot)[len(parent_tiers.hot) // 2]
        first.flip_memory_bit(victim, 0)
        assert victim not in _tiers(first, cache).warm
        assert victim in shared and _tiers(second, cache).warm is shared
        assert (parent_tiers.hot, parent_tiers.warm, shared) == before


# ---------------------------------------------------------------------------
# self-modifying code vs the compiled-block cache


TEXT = 0xC0100000
DATA = 0xC0300000


def _bare_cpu(arch):
    from repro.isa.memory import Region
    if arch == "x86":
        from repro.x86.cpu import X86CPU
        cpu = X86CPU()
        cpu.eip = TEXT
    else:
        from repro.ppc.cpu import PPCCPU
        cpu = PPCCPU()
        cpu.pc = TEXT
    cpu.aspace.map_region(Region(TEXT, 0x1000, "rx", "text"))
    cpu.aspace.map_region(Region(DATA, 0x1000, "rwx", "data"))
    return cpu


def _dispatch(cpu, cache, arch):
    """One machine-dispatch iteration: hot hit or lookup, then run."""
    from repro.compile import lookup_block
    addr = cpu.eip if arch == "x86" else cpu.pc & 0xFFFFFFFC
    blk = cache.hot.get(addr)
    if blk is None:
        blk = lookup_block(cpu, cache, addr, arch, None)
    assert blk is not None and blk.fn is not None
    blk.fn(cpu)
    return blk


class TestBlockCacheSMC:
    """Text writes must evict exactly the compiled blocks they can
    corrupt — and execution after the write must follow the new bytes,
    never a stale compiled closure."""

    @pytest.mark.parametrize("arch", ARCHES)
    def test_write_inside_compiled_block_reexecutes(self, arch):
        """Patch a non-leader instruction of an already-compiled (and
        already-executed) block; the next dispatch must recompile and
        produce the patched result."""
        from repro.compile import BlockCache
        cpu = _bare_cpu(arch)
        cache = BlockCache()
        cpu._block_cache = cache
        if arch == "x86":
            from repro.x86.assembler import X86Assembler
            asm = X86Assembler()
            asm.mov_r_imm(0, 1)
            asm.mov_r_imm(1, 2)                # patch target
            asm.alu_r_rm("add", 0, 1)
            asm.hlt()
            cpu.mem.write(TEXT, asm.finish())
            patch_at = TEXT + asm.insn_offsets[1] + 1   # B9 imm32
            blk = _dispatch(cpu, cache, arch)
            assert cpu.regs[0] == 3 and blk.n == 4
            cpu.mem.write_u8(patch_at, 40)
            cpu.invalidate_icache(patch_at, 1)
        else:
            from repro.ppc.assembler import PPCAssembler
            asm = PPCAssembler()
            asm.li(3, 1)
            asm.li(4, 2)                       # patch target
            asm.add(5, 3, 4)
            spin = asm.new_label("spin")
            asm.label(spin)
            asm.b_label(spin)
            cpu.mem.write(TEXT, asm.finish())
            patch_at = TEXT + 4
            blk = _dispatch(cpu, cache, arch)
            assert cpu.gpr[5] == 3 and blk.n == 4
            word = cpu.mem.read_u32(patch_at, False)
            cpu.mem.write_u32(patch_at, (word & 0xFFFF0000) | 40, False)
            cpu.invalidate_icache(patch_at, 4)
        # the block overlapping the write is gone from both tiers
        assert TEXT not in cache.hot and TEXT not in cache.warm
        if arch == "x86":
            cpu.eip = TEXT
            cpu.regs[0] = cpu.regs[1] = 0
            cpu.halted = False
            _dispatch(cpu, cache, arch)
            assert cpu.regs[0] == 41
        else:
            cpu.pc = TEXT
            cpu.gpr[3] = cpu.gpr[4] = cpu.gpr[5] = 0
            _dispatch(cpu, cache, arch)
            assert cpu.gpr[5] == 41

    @pytest.mark.parametrize("arch", ARCHES)
    def test_write_at_block_leader_reexecutes(self, arch):
        """Patch the first instruction (the block's cache key address)."""
        from repro.compile import BlockCache
        cpu = _bare_cpu(arch)
        cache = BlockCache()
        cpu._block_cache = cache
        if arch == "x86":
            from repro.x86.assembler import X86Assembler
            asm = X86Assembler()
            asm.mov_r_imm(2, 7)                # patch target (leader)
            asm.inc_r(2)
            asm.hlt()
            cpu.mem.write(TEXT, asm.finish())
            _dispatch(cpu, cache, arch)
            assert cpu.regs[2] == 8
            cpu.mem.write_u8(TEXT + 1, 90)     # BA imm32 low byte
            cpu.invalidate_icache(TEXT + 1, 1)
            assert TEXT not in cache.hot and TEXT not in cache.warm
            cpu.eip = TEXT
            cpu.regs[2] = 0
            cpu.halted = False
            _dispatch(cpu, cache, arch)
            assert cpu.regs[2] == 91
        else:
            from repro.ppc.assembler import PPCAssembler
            asm = PPCAssembler()
            asm.li(6, 7)                       # patch target (leader)
            asm.addi(6, 6, 1)
            spin = asm.new_label("spin")
            asm.label(spin)
            asm.b_label(spin)
            cpu.mem.write(TEXT, asm.finish())
            _dispatch(cpu, cache, arch)
            assert cpu.gpr[6] == 8
            word = cpu.mem.read_u32(TEXT, False)
            cpu.mem.write_u32(TEXT, (word & 0xFFFF0000) | 90, False)
            cpu.invalidate_icache(TEXT, 4)
            assert TEXT not in cache.hot and TEXT not in cache.warm
            cpu.pc = TEXT
            cpu.gpr[6] = 0
            _dispatch(cpu, cache, arch)
            assert cpu.gpr[6] == 91

    def test_write_across_block_boundary_evicts_both_x86(self):
        """A multi-byte write straddling the end of one block and the
        start of the next (an x86 instruction can span the boundary)
        must evict both."""
        from repro.compile import BlockCache
        from repro.x86.assembler import X86Assembler
        cpu = _bare_cpu("x86")
        cache = BlockCache()
        cpu._block_cache = cache
        asm = X86Assembler()
        asm.mov_r_imm(0, 1)
        second = asm.new_label("second")
        asm.jmp_label(second)                  # terminator: ends block A
        asm.label(second)
        asm.mov_r_imm(1, 2)
        asm.hlt()
        cpu.mem.write(TEXT, asm.finish())
        blk_a = _dispatch(cpu, cache, "x86")
        blk_b = _dispatch(cpu, cache, "x86")
        assert blk_a.end == blk_b.start, "blocks should be adjacent"
        boundary = blk_a.end
        # 2-byte write covering [boundary-1, boundary+1)
        cpu.invalidate_icache(boundary - 1, 2)
        for addr in (blk_a.start, blk_b.start):
            assert addr not in cache.hot and addr not in cache.warm

    def test_write_across_block_boundary_evicts_both_ppc(self):
        """Word-granular PPC case: a 4-byte-aligned store overlapping
        the last word of block A and (conceptually) the first of B."""
        from repro.compile import BlockCache
        from repro.ppc.assembler import PPCAssembler
        cpu = _bare_cpu("ppc")
        cache = BlockCache()
        cpu._block_cache = cache
        asm = PPCAssembler()
        asm.li(3, 1)
        second = asm.new_label("second")
        asm.b_label(second)                    # terminator: ends block A
        asm.label(second)
        asm.li(4, 2)
        spin = asm.new_label("spin")
        asm.label(spin)
        asm.b_label(spin)
        cpu.mem.write(TEXT, asm.finish())
        blk_a = _dispatch(cpu, cache, "ppc")
        blk_b = _dispatch(cpu, cache, "ppc")
        assert blk_a.end == blk_b.start
        # an 8-byte write covering A's last word and B's first word
        cpu.invalidate_icache(blk_a.end - 4, 8)
        for addr in (blk_a.start, blk_b.start):
            assert addr not in cache.hot and addr not in cache.warm

    @pytest.mark.parametrize("arch", ARCHES)
    def test_write_past_block_end_demotes_but_keeps_it(self, arch):
        """A write just past a block's extent cannot corrupt any of its
        instructions: the block survives (demoted to warm, like the
        icache's survivors) and is re-promoted with the same compiled
        function on the next dispatch."""
        from repro.compile import BlockCache
        cpu = _bare_cpu(arch)
        cache = BlockCache()
        cpu._block_cache = cache
        if arch == "x86":
            from repro.x86.assembler import X86Assembler
            asm = X86Assembler()
            asm.mov_r_imm(0, 3)
            asm.hlt()
        else:
            from repro.ppc.assembler import PPCAssembler
            asm = PPCAssembler()
            asm.li(3, 3)
            spin = asm.new_label("spin")
            asm.label(spin)
            asm.b_label(spin)
        cpu.mem.write(TEXT, asm.finish())
        blk = _dispatch(cpu, cache, arch)
        cpu.invalidate_icache(blk.end, 1)
        assert blk.start not in cache.hot
        assert cache.warm.get(blk.start) is blk
        if arch == "x86":
            cpu.eip = TEXT
            cpu.halted = False
        else:
            cpu.pc = TEXT
        assert _dispatch(cpu, cache, arch) is blk

    @pytest.mark.parametrize("arch", ARCHES)
    def test_machine_flip_reaches_block_cache(self, arch, booted_x86,
                                              booted_ppc):
        """The injector's text-flip path (``flip_memory_bit`` →
        ``invalidate_icache``) must reach the block cache of a forked
        machine: the overlapped block vanishes, every other hot block
        is demoted to warm (mirroring the icache demotion that just
        invalidated their hot-tier guarantee)."""
        base = _machine(arch, booted_x86, booted_ppc)
        clone = base.fork()
        # a block compiles on its address's second miss: run the path
        # twice so the second pass leaves its blocks hot
        clone.syscall(1)
        clone.syscall(1)
        cache = clone.cpu._block_cache
        assert cache is not None and cache.hot, \
            "syscall should have populated the block cache"
        victim = max(cache.hot.values(), key=lambda b: b.n)
        mid = victim.spans[victim.n // 2][0]
        survivors = {a: b for a, b in cache.hot.items()
                     if not (b.start <= mid < b.end)}
        clone.flip_memory_bit(mid, 0)
        assert victim.start not in cache.hot
        assert victim.start not in cache.warm
        assert not cache.hot
        for addr, block in survivors.items():
            assert cache.warm.get(addr) is block
