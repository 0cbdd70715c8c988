"""The P4-like CPU core: fetch/decode/execute with a decode cache.

The core is deliberately always-in-kernel-mode (the paper injects only
into kernel state; the workload driver calls into simulated kernel code
directly).  A ``user_mode`` flag exists so privileged-instruction
semantics remain testable.

Architectural choices that matter to the study:

* **decode cache** — decoded instructions are cached per address, like
  the P4's trace cache; any write to the text region (including an
  injected bit flip) flushes it, so corrupted bytes are re-decoded and
  the stream re-synchronizes.
* **no stack-overflow detection** — ``push``/``pop`` only fail when the
  memory system faults; a corrupted ESP silently walks out of the task
  stack (paper Section 5.1).
* **segment registers hold raw selectors** — validity is only checked
  when a selector is *loaded* or *used*, so an injected FS/GS bit flip
  stays latent until the next context-switch reload (the paper's
  longest observed latencies, >1G cycles).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.bits import MASK32, mask_for_width
from repro.isa.debug import DebugUnit
from repro.isa.faults import AccessKind, MemoryFault
from repro.isa.memory import AddressSpace, PhysicalMemory
from repro.x86 import decoder
from repro.x86.exceptions import X86Fault, X86Vector
from repro.x86.insn import Instr
from repro.x86.registers import (
    CR0_PE, CR0_PG, CR0_WP, FLAG_CF, FLAG_IF, FLAG_OF, FLAG_SF, FLAG_ZF, GPR_NAMES, SEG_CS, SEG_DS, SEG_FS, SEG_GS, SEG_SS, VALID_SELECTORS,
)

_ARITH_FLAGS = FLAG_CF | FLAG_ZF | FLAG_SF | FLAG_OF | 0x14  # + PF, AF


class X86CPU:
    """A 32-bit P4-flavoured processor core."""

    #: Parity-ish clock: the paper's P4 runs at 1.5 GHz.
    CLOCK_HZ = 1_500_000_000
    LITTLE_ENDIAN = True
    NAME = "P4"

    def __init__(self, memory: Optional[PhysicalMemory] = None,
                 aspace: Optional[AddressSpace] = None,
                 debug: Optional[DebugUnit] = None) -> None:
        self.mem = memory if memory is not None else PhysicalMemory()
        self.aspace = aspace if aspace is not None else \
            AddressSpace(self.mem)
        self.debug = debug if debug is not None else DebugUnit(4, 4)

        self.regs = [0] * 8
        self.eip = 0
        self.current_eip = 0
        self.eflags = FLAG_IF | 0x2
        self.sregs = [0x18, 0x10, 0x18, 0x18, 0x00, 0x00]

        self.cr0 = CR0_PE | CR0_PG | CR0_WP
        self.cr2 = 0
        self.cr3 = 0x00101000
        self.cr4 = 0x0
        self._cr3_valid = self.cr3
        self.dr0 = self.dr1 = self.dr2 = self.dr3 = 0
        self.dr6 = self.dr7 = 0
        self.gdtr_base, self.gdtr_limit = 0xC0090000, 0xFF
        self.idtr_base, self.idtr_limit = 0xC0091000, 0x7FF
        self.ldtr = 0x0
        self.tr = 0x80

        self.cycles = 0
        self.instret = 0
        self.halted = False
        self.user_mode = False

        # Flight-recorder hook (repro.trace.recorder.TraceRecorder).
        # None when tracing is disabled: every emission site below
        # guards on this one attribute, so the disabled hot path pays
        # a single flag test and nothing else.  An armed recorder only
        # reads state — simulated cycles/instret/RNG are untouched.
        self.tracer = None

        self._icache: Dict[int, Instr] = {}
        # Warm tier: decoded instructions inherited from a fork parent
        # (or demoted by a code write).  A warm entry's decode is valid
        # — it was produced from the same bytes this machine sees — but
        # the fetch permission check has not run on *this* machine yet,
        # so the first fetch revalidates exactly like a decode miss
        # before promoting the entry to ``_icache``.  The dict may be
        # shared by reference with a fork relative (``_warm_owned``
        # False): it is then copied before the first mutation, so
        # inheriting a warm cache costs O(1), not O(entries).
        self._icache_warm: Dict[int, Instr] = {}
        self._warm_owned = True
        # bumped whenever either cache tier changes; guards the frozen
        # merged snapshot handed to fork children
        self._icache_version = 0
        self._snapshot: Optional[Dict[int, Instr]] = None
        self._snapshot_version = -1
        # compiled-block cache (attached by Machine in block exec mode);
        # None means the step core runs alone
        self._block_cache = None

    # ------------------------------------------------------------------
    # register access helpers

    def get_reg(self, reg: int, width: int) -> int:
        if width == 4:
            return self.regs[reg]
        if width == 2:
            return self.regs[reg] & 0xFFFF
        if reg < 4:                         # al, cl, dl, bl
            return self.regs[reg] & 0xFF
        return (self.regs[reg - 4] >> 8) & 0xFF   # ah, ch, dh, bh

    def set_reg(self, reg: int, width: int, value: int) -> None:
        if width == 4:
            self.regs[reg] = value & MASK32
        elif width == 2:
            self.regs[reg] = (self.regs[reg] & 0xFFFF0000) | (value & 0xFFFF)
        elif reg < 4:
            self.regs[reg] = (self.regs[reg] & 0xFFFFFF00) | (value & 0xFF)
        else:
            self.regs[reg - 4] = (self.regs[reg - 4] & 0xFFFF00FF) | \
                ((value & 0xFF) << 8)

    @property
    def esp_alias(self) -> int:
        """ESP exposed as a system-register injection target."""
        return self.regs[4]

    @esp_alias.setter
    def esp_alias(self, value: int) -> None:
        self.regs[4] = value & MASK32

    @property
    def fs(self) -> int:
        return self.sregs[SEG_FS]

    @fs.setter
    def fs(self, value: int) -> None:
        self.sregs[SEG_FS] = value & 0xFFFF

    @property
    def gs(self) -> int:
        return self.sregs[SEG_GS]

    @gs.setter
    def gs(self, value: int) -> None:
        self.sregs[SEG_GS] = value & 0xFFFF

    def get_sreg(self, index: int) -> int:
        return self.sregs[index]

    def load_sreg(self, index: int, selector: int) -> None:
        """Load a segment register, validating the selector.

        Loading an invalid selector raises #GP; a null selector is legal
        in FS/GS (it faults later, on use).
        """
        selector &= 0xFFFF
        if self.cr0 & CR0_PE == 0:
            self.fault(X86Vector.GENERAL_PROTECTION,
                       detail="segment load with protection disabled")
        if selector not in VALID_SELECTORS:
            self.fault(X86Vector.GENERAL_PROTECTION,
                       detail=f"invalid selector {selector:#06x}",
                       error_code=selector & 0xFFFC)
        if selector == 0 and index in (SEG_CS, SEG_SS):
            self.fault(X86Vector.GENERAL_PROTECTION,
                       detail="null selector into CS/SS")
        self.sregs[index] = selector
        self.cycles += 6

    def get_cr(self, index: int) -> int:
        return getattr(self, f"cr{index}", 0)

    def set_cr(self, index: int, value: int) -> None:
        value &= MASK32
        if index == 0:
            self.cr0 = value
            if not value & CR0_PG:
                self.aspace.translation_on = False
        elif index == 3:
            self.cr3 = value
            if value != self._cr3_valid:
                # A wrong page-directory base makes every kernel-high
                # translation garbage.
                self.aspace.translation_on = False
        elif index in (2, 4):
            setattr(self, f"cr{index}", value)
        # undefined control registers absorb writes silently

    # ------------------------------------------------------------------
    # memory access

    def seg_base(self, seg: int) -> int:
        """Flat model: every usable segment has base 0.

        Using FS/GS with an invalid selector faults here — the paper's
        General Protection crashes from corrupted FS/GS.
        """
        if seg in (SEG_FS, SEG_GS):
            selector = self.sregs[seg]
            if selector == 0 or selector not in VALID_SELECTORS:
                self.fault(X86Vector.GENERAL_PROTECTION,
                           detail=f"use of unusable segment "
                                  f"{('es','cs','ss','ds','fs','gs')[seg]}"
                                  f"={selector:#06x}",
                           error_code=selector & 0xFFFC)
        return 0

    def _memfault(self, mf: MemoryFault) -> None:
        if mf.reason is MemoryFault.Reason.PROTECTION:
            # Table 3: "writing to a read-only code or data segment" is
            # a General Protection Fault.
            raise X86Fault(X86Vector.GENERAL_PROTECTION, mf.address,
                           mf.detail) from None
        self.cr2 = mf.address & MASK32
        raise X86Fault(X86Vector.PAGE_FAULT, mf.address,
                       mf.detail,
                       error_code=2 if mf.kind is AccessKind.WRITE else 0
                       ) from None

    def load(self, addr: int, width: int, seg: int = SEG_DS) -> int:
        addr = (addr + self.seg_base(seg)) & MASK32
        try:
            self.aspace.check(addr, width, AccessKind.READ)
        except MemoryFault as mf:
            self._memfault(mf)
        if width == 4:
            value = self.mem.read_u32(addr, True)
        elif width == 2:
            value = self.mem.read_u16(addr, True)
        else:
            value = self.mem.read_u8(addr)
        self.cycles += 2
        if self.tracer is not None:
            self.tracer.on_load(self, addr, width, value)
        if self.debug._watchpoints:
            self.debug.check_access(addr, width, AccessKind.READ,
                                    self.cycles)
        return value

    def store(self, addr: int, value: int, width: int,
              seg: int = SEG_DS) -> None:
        addr = (addr + self.seg_base(seg)) & MASK32
        try:
            self.aspace.check(addr, width, AccessKind.WRITE)
        except MemoryFault as mf:
            self._memfault(mf)
        if width == 4:
            self.mem.write_u32(addr, value, True)
        elif width == 2:
            self.mem.write_u16(addr, value, True)
        else:
            self.mem.write_u8(addr, value)
        self.cycles += 2
        if self.tracer is not None:
            self.tracer.on_store(self, addr, width, value)
        if self.debug._watchpoints:
            self.debug.check_access(addr, width, AccessKind.WRITE,
                                    self.cycles)

    def push32(self, value: int) -> None:
        self.regs[4] = (self.regs[4] - 4) & MASK32
        self.store(self.regs[4], value, 4, SEG_SS)

    def pop32(self) -> int:
        value = self.load(self.regs[4], 4, SEG_SS)
        self.regs[4] = (self.regs[4] + 4) & MASK32
        return value

    # ------------------------------------------------------------------
    # flags

    def set_flags_add(self, a: int, b: int, width: int) -> int:
        mask = mask_for_width(width)
        bits = width * 8
        a &= mask
        b &= mask
        total = a + b
        result = total & mask
        flags = self.eflags & ~_ARITH_FLAGS
        if total > mask:
            flags |= FLAG_CF
        if result == 0:
            flags |= FLAG_ZF
        if result & (1 << (bits - 1)):
            flags |= FLAG_SF
        if (~(a ^ b) & (a ^ result)) & (1 << (bits - 1)):
            flags |= FLAG_OF
        self.eflags = flags
        return result

    def set_flags_sub(self, a: int, b: int, width: int) -> int:
        mask = mask_for_width(width)
        bits = width * 8
        a &= mask
        b &= mask
        result = (a - b) & mask
        flags = self.eflags & ~_ARITH_FLAGS
        if a < b:
            flags |= FLAG_CF
        if result == 0:
            flags |= FLAG_ZF
        if result & (1 << (bits - 1)):
            flags |= FLAG_SF
        if ((a ^ b) & (a ^ result)) & (1 << (bits - 1)):
            flags |= FLAG_OF
        self.eflags = flags
        return result

    def set_flags_logic(self, result: int, width: int) -> int:
        mask = mask_for_width(width)
        result &= mask
        flags = self.eflags & ~_ARITH_FLAGS
        if result == 0:
            flags |= FLAG_ZF
        if result & (1 << (width * 8 - 1)):
            flags |= FLAG_SF
        self.eflags = flags
        return result

    def set_flags_incdec(self, result: int, overflow: bool) -> None:
        flags = self.eflags & ~(FLAG_ZF | FLAG_SF | FLAG_OF)
        if result == 0:
            flags |= FLAG_ZF
        if result & 0x80000000:
            flags |= FLAG_SF
        if overflow:
            flags |= FLAG_OF
        self.eflags = flags

    # ------------------------------------------------------------------
    # control

    def branch(self, target: int) -> None:
        self.eip = target & MASK32
        self.cycles += 2

    def fault(self, vector: X86Vector, address: Optional[int] = None,
              detail: str = "", error_code: int = 0) -> None:
        raise X86Fault(vector, address, detail, error_code)

    def check_privilege(self, what: str) -> None:
        if self.user_mode:
            self.fault(X86Vector.GENERAL_PROTECTION,
                       detail=f"privileged instruction in user mode: {what}")

    # ------------------------------------------------------------------
    # decode cache + step

    def flush_icache(self) -> None:
        """Invalidate the decode cache (called after any code write)."""
        self._icache.clear()
        self._icache_warm = {}
        self._warm_owned = True
        self._icache_version += 1
        if self._block_cache is not None:
            self._block_cache.flush()

    def _own_warm(self) -> Dict[int, Instr]:
        if not self._warm_owned:
            self._icache_warm = dict(self._icache_warm)
            self._warm_owned = True
        return self._icache_warm

    def invalidate_icache(self, addr: int, size: int = 1) -> None:
        """Evict decodes a write to ``[addr, addr+size)`` could corrupt.

        Variable-length encoding means any cached instruction starting
        up to ``MAX_INSN_LEN - 1`` bytes before *addr* may span the
        written bytes; those entries are dropped from both tiers.  The
        survivors are demoted to the warm tier so their next fetch
        re-runs the permission check — exactly what the full flush this
        replaces forced — while keeping their (still valid) decodes.
        """
        warm = self._own_warm()
        for start in range(addr - decoder.MAX_INSN_LEN + 1, addr + size):
            self._icache.pop(start & MASK32, None)
            warm.pop(start & MASK32, None)
        if self._icache:
            warm.update(self._icache)
            self._icache.clear()
        self._icache_version += 1
        if self._block_cache is not None:
            self._block_cache.invalidate(addr, size)

    def icache_snapshot(self) -> Dict[int, Instr]:
        """A frozen warm-tier image for a fork child (never mutated).

        Rebuilt only when a cache tier changed since the last fork, so
        forking many clones from one static base — the campaign
        pattern — pays the merge once.
        """
        if self._snapshot is None or \
                self._snapshot_version != self._icache_version:
            merged = dict(self._icache_warm)
            merged.update(self._icache)
            self._snapshot = merged
            self._snapshot_version = self._icache_version
        return self._snapshot

    def inherit_icache(self, src: "X86CPU") -> None:
        """Adopt *src*'s decoded instructions as this core's warm tier.

        Only valid when both memories hold identical bytes (a fork
        instant): decode is a pure function of the bytes, and both
        caches are invalidated on text writes, so the inherited decodes
        can never go stale.  Every entry still revalidates its fetch
        check on first use here, so a clone behaves bit-for-bit like a
        cold core that decoded everything itself.  The snapshot dict is
        shared by reference and copied only if this core ever needs to
        mutate it (a text write).
        """
        self._icache.clear()
        self._icache_warm = src.icache_snapshot()
        self._warm_owned = False
        self._icache_version += 1

    def _validate_fetch(self, addr: int, length: int) -> None:
        try:
            self.aspace.check(addr, length, AccessKind.FETCH)
        except MemoryFault as mf:
            if mf.reason is MemoryFault.Reason.PROTECTION:
                raise X86Fault(X86Vector.GENERAL_PROTECTION, mf.address,
                               "fetch from non-executable region") from None
            self.cr2 = mf.address & MASK32
            raise X86Fault(X86Vector.PAGE_FAULT, mf.address,
                           "instruction fetch page fault",
                           error_code=0x10) from None

    def decode_at(self, addr: int) -> Instr:
        raw = self.mem.read(addr, decoder.MAX_INSN_LEN)
        instr = decoder.decode(raw, addr)
        self._validate_fetch(addr, instr.length)
        return instr

    def step(self) -> None:
        """Execute one instruction (or raise an :class:`X86Fault`)."""
        if self.halted:
            self.cycles += 1
            return
        eip = self.eip
        self.current_eip = eip
        if self.tracer is not None:
            self.tracer.on_fetch(self, eip)
        if self.debug._insn_bps:
            self.debug.check_fetch(eip, self.cycles)
        instr = self._icache.get(eip)
        if instr is None:
            # No pop: the warm dict may be shared with fork relatives.
            # ``_icache`` is consulted first, so the duplicate is inert.
            instr = self._icache_warm.get(eip)
            if instr is not None:
                self._validate_fetch(eip, instr.length)
            else:
                instr = self.decode_at(eip)
            self._icache[eip] = instr
            self._icache_version += 1
        self.eip = (eip + instr.length) & MASK32
        instr.execute(self, instr)
        self.cycles += instr.cycles
        self.instret += 1

    # ------------------------------------------------------------------
    # effective address (used by instruction semantics)

    def ea(self, i: Instr) -> int:
        addr = i.disp
        if i.base >= 0:
            addr += self.regs[i.base]
        if i.index >= 0:
            addr += self.regs[i.index] * i.scale
        return addr & MASK32

    # ------------------------------------------------------------------
    # diagnostics

    def snapshot(self) -> Dict[str, int]:
        """Register state for crash dumps."""
        state = {name: self.regs[index]
                 for index, name in enumerate(GPR_NAMES)}
        state["eip"] = self.current_eip
        state["eflags"] = self.eflags
        state["cr0"] = self.cr0
        state["cr2"] = self.cr2
        state["fs"] = self.sregs[SEG_FS]
        state["gs"] = self.sregs[SEG_GS]
        return state
