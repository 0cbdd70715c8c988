"""The G4-like CPU core: fixed-width fetch/decode/execute.

Architectural choices that matter to the study:

* **32 GPRs** — the kcc PPC backend parks locals in callee-saved
  registers; corrupted values can sit unconsumed for a long time,
  which is why G4 code-error latencies skew long in the paper.
* **word-aligned fetch** — the program counter's two low bits do not
  exist; a bit flip in them is architecturally masked.
* **alignment exceptions** — word/halfword memory operands must be
  naturally aligned (Table 4's Alignment category).
* **MSR[IR]/MSR[DR]** — clearing either translation bit makes every
  kernel-high access raise Machine Check, the paper's MSR scenario.
* **SPR semantics hook** — ``mtspr`` (and the register injector) funnel
  through :meth:`PPCCPU.set_spr`; the machine layer installs a semantic
  callback so SDR1/HID0/BAT corruption has system-level consequences.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.isa.bits import MASK32
from repro.isa.debug import DebugUnit
from repro.isa.faults import AccessKind, MemoryFault
from repro.isa.memory import AddressSpace, PhysicalMemory
from repro.ppc import decoder
from repro.ppc.exceptions import (
    DSISR_PROTECTION, DSISR_STORE, PPCFault, PPCVector, ProgramReason,
)
from repro.ppc.insn import PPCInstr
from repro.ppc.registers import (
    MSR_DR, MSR_IR, MSR_ME, MSR_PR, NAMED_SPRS, SPR_PVR,
)


class PPCCPU:
    """A 32-bit G4-flavoured processor core (big-endian)."""

    #: The paper's G4 runs at 1.0 GHz.
    CLOCK_HZ = 1_000_000_000
    LITTLE_ENDIAN = False
    NAME = "G4"

    #: Kernel-high addresses require translation to be on.
    TRANSLATION_BASE = 0x80000000

    def __init__(self, memory: Optional[PhysicalMemory] = None,
                 aspace: Optional[AddressSpace] = None,
                 debug: Optional[DebugUnit] = None) -> None:
        self.mem = memory if memory is not None else PhysicalMemory()
        self.aspace = aspace if aspace is not None else \
            AddressSpace(self.mem)
        self.debug = debug if debug is not None else DebugUnit(1, 1)

        self.gpr = [0] * 32
        self.pc = 0
        self.current_pc = 0
        self.lr = 0
        self.ctr = 0
        self.cr = 0
        self.xer = 0
        self.msr = MSR_ME | MSR_IR | MSR_DR
        self.spr: Dict[int, int] = {SPR_PVR: 0x80010201}   # MPC7455 2.1

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

        # Semantic side effects of supervisor-state writes; installed by
        # the machine layer (see repro.machine.register_semantics).
        self.on_spr_write: Optional[Callable[[int, int, int], None]] = None
        # Set when HID0 corruption enabled the BTIC over garbage; the
        # next taken branch fetches a bogus target (paper Section 5.2).
        self.btic_poisoned = False

        self._dtrans_on = True
        self._itrans_on = True
        # Fault overrides for kernel-high accesses, installed by the
        # register-semantics layer: None (healthy), "mc" (machine
        # check: translation disabled), "dsi"/"isi" (page tables or
        # BATs corrupted).
        self._high_data_fault: Optional[str] = None
        self._high_fetch_fault: Optional[str] = None
        self._icache: Dict[int, PPCInstr] = {}
        # Warm tier: decodes inherited from a fork parent (or demoted
        # by a code write); valid bytes-wise, but the fetch checks have
        # not run on this machine, so first use revalidates like a
        # miss.  The dict may be shared by reference with a fork
        # relative (``_warm_owned`` False) and is copied before the
        # first mutation, so inheriting costs O(1), not O(entries).
        self._icache_warm: Dict[int, PPCInstr] = {}
        self._warm_owned = True
        # bumped whenever either cache tier changes; guards the frozen
        # merged snapshot handed to fork children
        self._icache_version = 0
        self._snapshot: Optional[Dict[int, PPCInstr]] = None
        self._snapshot_version = -1
        # compiled-block cache (attached by Machine in block exec mode);
        # None means the step core runs alone
        self._block_cache = None

    # ------------------------------------------------------------------
    # MSR / SPR

    def set_msr(self, value: int) -> None:
        self.msr = value & MASK32
        self._dtrans_on = bool(value & MSR_DR)
        self._itrans_on = bool(value & MSR_IR)
        self.user_mode = bool(value & MSR_PR)
        if not self._dtrans_on:
            self._high_data_fault = "mc"
        elif self._high_data_fault == "mc":
            self._high_data_fault = None
        if not self._itrans_on:
            self._high_fetch_fault = "mc"
        elif self._high_fetch_fault == "mc":
            self._high_fetch_fault = None

    def get_spr(self, spr: int) -> int:
        named = NAMED_SPRS.get(spr)
        if named is not None:
            return getattr(self, named)
        return self.spr.get(spr, 0)

    def set_spr(self, spr: int, value: int) -> None:
        value &= MASK32
        named = NAMED_SPRS.get(spr)
        if named is not None:
            setattr(self, named, value)
            return
        old = self.spr.get(spr, 0)
        self.spr[spr] = value
        if self.tracer is not None and old != value:
            self.tracer.on_reg_write(self, f"spr{spr}", old, value)
        if self.on_spr_write is not None:
            self.on_spr_write(spr, old, value)

    def check_supervisor_spr(self, spr: int) -> None:
        if spr in NAMED_SPRS:
            return
        self.check_privileged(f"spr {spr}")

    def check_privileged(self, what: str) -> None:
        if self.user_mode:
            self.fault(PPCVector.PROGRAM,
                       detail=f"privileged in user state: {what}",
                       program_reason=ProgramReason.PRIVILEGED)

    # ------------------------------------------------------------------
    # memory access

    def _memfault(self, mf: MemoryFault) -> None:
        dsisr = DSISR_STORE if mf.kind is AccessKind.WRITE else 0
        if mf.reason is MemoryFault.Reason.PROTECTION:
            dsisr |= DSISR_PROTECTION
        self.spr[18] = dsisr                      # DSISR
        self.spr[19] = mf.address & MASK32        # DAR
        raise PPCFault(PPCVector.DSI, mf.address, mf.detail,
                       dsisr=dsisr) from None

    def _high_data_trap(self, addr: int) -> None:
        if self._high_data_fault == "mc":
            raise PPCFault(PPCVector.MACHINE_CHECK, addr,
                           "data access with MSR[DR]=0")
        self.spr[18] = 0x40000000
        self.spr[19] = addr
        raise PPCFault(PPCVector.DSI, addr,
                       "translation garbage (SDR1/DBAT corrupted)")

    def load(self, addr: int, width: int) -> int:
        addr &= MASK32
        if self._high_data_fault is not None and \
                addr >= self.TRANSLATION_BASE:
            self._high_data_trap(addr)
        if width > 1 and addr % width:
            # the MPC7450 family completes ordinary misaligned accesses
            # in hardware, at a cost (the paper's Figure 9 loads from
            # 0x4d without an alignment interrupt); only string/multiple
            # instructions (lmw/stmw) require alignment
            self.cycles += 2
        try:
            self.aspace.check(addr, width, AccessKind.READ)
        except MemoryFault as mf:
            self._memfault(mf)
        if width == 4:
            value = self.mem.read_u32(addr, False)
        elif width == 2:
            value = self.mem.read_u16(addr, False)
        else:
            value = self.mem.read_u8(addr)
        self.cycles += 2
        if self.tracer is not None:
            self.tracer.on_load(self, addr, width, value)
        if self.debug._watchpoints:
            self.debug.check_access(addr, width, AccessKind.READ,
                                    self.cycles)
        return value

    def store(self, addr: int, value: int, width: int) -> None:
        addr &= MASK32
        if self._high_data_fault is not None and \
                addr >= self.TRANSLATION_BASE:
            self._high_data_trap(addr)
        if width > 1 and addr % width:
            raise PPCFault(PPCVector.ALIGNMENT, addr,
                           f"unaligned {width}-byte store")
        try:
            self.aspace.check(addr, width, AccessKind.WRITE)
        except MemoryFault as mf:
            self._memfault(mf)
        if width == 4:
            self.mem.write_u32(addr, value, False)
        elif width == 2:
            self.mem.write_u16(addr, value, False)
        else:
            self.mem.write_u8(addr, value)
        self.cycles += 2
        if self.tracer is not None:
            self.tracer.on_store(self, addr, width, value)
        if self.debug._watchpoints:
            self.debug.check_access(addr, width, AccessKind.WRITE,
                                    self.cycles)

    # ------------------------------------------------------------------
    # control

    def branch(self, target: int) -> None:
        if self.btic_poisoned:
            # HID0[BTIC] was enabled over an invalid branch-target cache:
            # the fetched target is garbage (paper: Invalid Instruction).
            self.btic_poisoned = False
            self.fault(PPCVector.PROGRAM,
                       detail="BTIC enabled with invalid contents",
                       program_reason=ProgramReason.ILLEGAL)
        self.pc = target & 0xFFFFFFFC
        self.cycles += 2

    def fault(self, vector: PPCVector, address: Optional[int] = None,
              detail: str = "", dsisr: int = 0,
              program_reason: Optional[ProgramReason] = None) -> None:
        raise PPCFault(vector, address, detail, dsisr=dsisr,
                       program_reason=program_reason)

    # ------------------------------------------------------------------
    # decode cache + step

    def flush_icache(self) -> None:
        self._icache.clear()
        self._icache_warm = {}
        self._warm_owned = True
        self._icache_version += 1
        if self._block_cache is not None:
            self._block_cache.flush()

    def _own_warm(self) -> Dict[int, PPCInstr]:
        if not self._warm_owned:
            self._icache_warm = dict(self._icache_warm)
            self._warm_owned = True
        return self._icache_warm

    def invalidate_icache(self, addr: int, size: int = 1) -> None:
        """Evict the word(s) a write to ``[addr, addr+size)`` touches.

        Fixed 4-byte instructions make this exact: only the overwritten
        words can decode differently.  Survivors demote to the warm
        tier so their next fetch re-runs the permission/translation
        checks, matching the full flush this replaces.
        """
        warm = self._own_warm()
        first = addr & ~3
        last = (addr + max(size, 1) - 1) & ~3
        for word_addr in range(first, last + 4, 4):
            self._icache.pop(word_addr & MASK32, None)
            warm.pop(word_addr & MASK32, None)
        if self._icache:
            warm.update(self._icache)
            self._icache.clear()
        self._icache_version += 1
        if self._block_cache is not None:
            self._block_cache.invalidate(addr, size)

    def icache_snapshot(self) -> Dict[int, PPCInstr]:
        """A frozen warm-tier image for a fork child (never mutated).

        Rebuilt only when a cache tier changed since the last fork, so
        forking many clones from one static base pays the merge once.
        """
        if self._snapshot is None or \
                self._snapshot_version != self._icache_version:
            merged = dict(self._icache_warm)
            merged.update(self._icache)
            self._snapshot = merged
            self._snapshot_version = self._icache_version
        return self._snapshot

    def inherit_icache(self, src: "PPCCPU") -> None:
        """Adopt *src*'s decodes as the warm tier (fork instant only).

        Safe for the same reason as on the x86 core: identical memory
        at fork, write-path invalidation afterwards, and first-use
        revalidation of the fetch checks on this machine.  The snapshot
        dict is shared by reference and copied only if this core ever
        needs to mutate it (a text write).
        """
        self._icache.clear()
        self._icache_warm = src.icache_snapshot()
        self._warm_owned = False
        self._icache_version += 1

    def _validate_fetch(self, addr: int) -> None:
        if self._high_fetch_fault is not None and \
                addr >= self.TRANSLATION_BASE:
            if self._high_fetch_fault == "mc":
                raise PPCFault(PPCVector.MACHINE_CHECK, addr,
                               "instruction fetch with MSR[IR]=0")
            raise PPCFault(PPCVector.ISI, addr,
                           "fetch translation garbage (IBAT corrupted)")
        try:
            self.aspace.check(addr, 4, AccessKind.FETCH)
        except MemoryFault as mf:
            if mf.reason is MemoryFault.Reason.PROTECTION:
                raise PPCFault(PPCVector.ISI, mf.address,
                               "fetch protection violation") from None
            raise PPCFault(PPCVector.ISI, mf.address,
                           "fetch from unmapped address") from None

    def decode_at(self, addr: int) -> PPCInstr:
        self._validate_fetch(addr)
        word = self.mem.read_u32(addr, False)
        return decoder.decode(word, addr)

    def step(self) -> None:
        """Execute one instruction (or raise a :class:`PPCFault`)."""
        if self.halted:
            self.cycles += 1
            return
        pc = self.pc & 0xFFFFFFFC
        self.current_pc = pc
        if self.tracer is not None:
            self.tracer.on_fetch(self, pc)
        if self.debug._insn_bps:
            self.debug.check_fetch(pc, self.cycles)
        instr = self._icache.get(pc)
        if instr is None:
            # No pop: the warm dict may be shared with fork relatives.
            # ``_icache`` is consulted first, so the duplicate is inert.
            instr = self._icache_warm.get(pc)
            if instr is not None:
                self._validate_fetch(pc)
            else:
                instr = self.decode_at(pc)
            self._icache[pc] = instr
            self._icache_version += 1
        self.pc = (pc + 4) & MASK32
        instr.execute(self, instr)
        self.cycles += instr.cycles
        self.instret += 1

    # ------------------------------------------------------------------
    # diagnostics

    def snapshot(self) -> Dict[str, int]:
        state = {f"r{index}": value
                 for index, value in enumerate(self.gpr)}
        state["pc"] = self.current_pc
        state["lr"] = self.lr
        state["ctr"] = self.ctr
        state["cr"] = self.cr
        state["msr"] = self.msr
        state["dar"] = self.spr.get(19, 0)
        state["dsisr"] = self.spr.get(18, 0)
        return state
