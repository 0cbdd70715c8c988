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
from repro.isa.core import Core
from repro.isa.faults import AccessKind, MemoryFault
from repro.ppc import decoder
from repro.ppc.exceptions import (
    DSISR_PROTECTION, DSISR_STORE, PPCFault, PPCVector, ProgramReason,
)
from repro.ppc.insn import PPCInstr
from repro.ppc.registers import (
    MSR_DR, MSR_IR, MSR_ME, MSR_PR, NAMED_SPRS, SPR_PVR,
)


class PPCCPU(Core):
    """A 32-bit G4-flavoured processor core (big-endian)."""

    #: The paper's G4 runs at 1.0 GHz.
    CLOCK_HZ = 1_000_000_000
    LITTLE_ENDIAN = False
    NAME = "G4"

    #: Kernel-high addresses require translation to be on.
    TRANSLATION_BASE = 0x80000000

    DEBUG_SLOTS = (1, 1)
    REACH = 0
    ALIGN = 4
    STATE = Core.STATE + ("gpr", "pc", "lr", "ctr", "cr", "xer", "spr",
                          "btic_poisoned", "_high_data_fault",
                          "_high_fetch_fault")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gpr = [0] * 32
        self.pc = 0
        self.current_pc = 0
        self.lr = 0
        self.ctr = 0
        self.cr = 0
        self.xer = 0
        self.msr = MSR_ME | MSR_IR | MSR_DR
        self.spr: Dict[int, int] = {SPR_PVR: 0x80010201}   # MPC7455 2.1

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

    def fork(self, *args, **kwargs) -> "PPCCPU":
        clone = super().fork(*args, **kwargs)
        clone.set_msr(self.msr)     # the translation and fault flags too
        return clone

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

    def decode_raw(self, addr: int) -> PPCInstr:
        return decoder.decode(self.mem.read_u32(addr, False), addr)

    def decode_at(self, addr: int) -> PPCInstr:
        self._validate_fetch(addr)
        return self.decode_raw(addr)

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
        decodes = self.decodes
        instr = decodes.hot.get(pc)
        if instr is None:
            # No pop: the warm dict may be shared with fork relatives.
            # The hot tier is consulted first, so the duplicate is inert.
            instr = decodes.warm.get(pc)
            if instr is not None:
                self._validate_fetch(pc)
            else:
                instr = self.decode_at(pc)
            decodes.insert_hot(pc, instr)
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
