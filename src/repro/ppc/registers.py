"""PowerPC register numbering, MSR bits, and the supervisor SPR catalogue.

The paper's G4 register campaign targets the *supervisor model* of the
PowerPC family: memory-management registers, configuration registers,
performance-monitor registers, exception-handling registers, and
cache/memory-subsystem registers — 99 registers, of which only 15 ever
contributed a crash or hang.  The catalogue below reconstructs that
target list from the MPC7450-family user's manual register summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

# Named SPR numbers used by code and by the injection hooks.
SPR_XER = 1
SPR_LR = 8
SPR_CTR = 9
SPR_DSISR = 18
SPR_DAR = 19
SPR_DEC = 22
SPR_SDR1 = 25
SPR_SRR0 = 26
SPR_SRR1 = 27
SPR_SPRG0 = 272
SPR_SPRG1 = 273
SPR_SPRG2 = 274          # the paper's stack-switch scratch register
SPR_SPRG3 = 275
SPR_TBL_READ = 268
SPR_TBU_READ = 269
SPR_TBL_WRITE = 284
SPR_TBU_WRITE = 285
SPR_PVR = 287
SPR_IBAT0U = 528
SPR_DBAT0U = 536
SPR_HID0 = 1008          # BTIC / ICE enable bits live here
SPR_HID1 = 1009
SPR_L2CR = 1017
SPR_ICTC = 1019
SPR_PIR = 1023

#: the user-level SPRs the core keeps as plain attributes (``cpu.xer``
#: …): ``mfspr``/``mtspr`` of these need no privilege and stay inside
#: the liveness domain; every other SPR is supervisor state
NAMED_SPRS = {SPR_XER: "xer", SPR_LR: "lr", SPR_CTR: "ctr"}

# Condition-register field bits (MSB-first within each 4-bit field).
CR_LT = 0x8
CR_GT = 0x4
CR_EQ = 0x2
CR_SO = 0x1

# MSR bits (32-bit OEA layout).
MSR_EE = 0x00008000      # external interrupts enabled
MSR_PR = 0x00004000      # problem (user) state
MSR_FP = 0x00002000
MSR_ME = 0x00001000      # machine check enable
MSR_IR = 0x00000020      # instruction address translation
MSR_DR = 0x00000010      # data address translation
MSR_RI = 0x00000002
MSR_LE = 0x00000001

# HID0 bits (MPC7450 family).
HID0_ICE = 0x00008000    # instruction cache enable
HID0_DCE = 0x00004000    # data cache enable
HID0_BTIC = 0x00000020   # branch target instruction cache enable
HID0_BHT = 0x00000004    # branch history table enable


@dataclass(frozen=True)
class SupervisorRegister:
    """One injectable supervisor register.

    ``spr`` is the SPR number, or ``-1`` for the MSR (which is not an
    SPR but is part of the supervisor model and is the paper's source of
    Machine Check crashes).
    """

    name: str
    spr: int
    bits: int = 32
    description: str = ""


def _sprg_block() -> Tuple[SupervisorRegister, ...]:
    """SPRG0-SPRG7 (the 7450 family extends the classic four to eight)."""
    sprs = (272, 273, 274, 275, 276, 277, 278, 279)
    return tuple(
        SupervisorRegister(f"SPRG{index}", spr, 32, "OS scratch register")
        for index, spr in enumerate(sprs))


def _bat_block() -> Tuple[SupervisorRegister, ...]:
    """Eight instruction + eight data BAT pairs (7455 extended BATs)."""
    out = []
    for index in range(4):
        out.append(SupervisorRegister(f"IBAT{index}U", 528 + 2 * index, 32,
                                      "instruction BAT upper"))
        out.append(SupervisorRegister(f"IBAT{index}L", 529 + 2 * index, 32,
                                      "instruction BAT lower"))
    for index in range(4):
        out.append(SupervisorRegister(f"IBAT{index + 4}U",
                                      560 + 2 * index, 32,
                                      "instruction BAT upper (extended)"))
        out.append(SupervisorRegister(f"IBAT{index + 4}L",
                                      561 + 2 * index, 32,
                                      "instruction BAT lower (extended)"))
    for index in range(4):
        out.append(SupervisorRegister(f"DBAT{index}U", 536 + 2 * index, 32,
                                      "data BAT upper"))
        out.append(SupervisorRegister(f"DBAT{index}L", 537 + 2 * index, 32,
                                      "data BAT lower"))
    for index in range(4):
        out.append(SupervisorRegister(f"DBAT{index + 4}U",
                                      568 + 2 * index, 32,
                                      "data BAT upper (extended)"))
        out.append(SupervisorRegister(f"DBAT{index + 4}L",
                                      569 + 2 * index, 32,
                                      "data BAT lower (extended)"))
    return tuple(out)


def _pm_block() -> Tuple[SupervisorRegister, ...]:
    """Performance-monitor registers (supervisor access copies)."""
    out = [SupervisorRegister("MMCR0", 952, 32, "perf monitor control 0"),
           SupervisorRegister("MMCR1", 956, 32, "perf monitor control 1"),
           SupervisorRegister("MMCR2", 944, 32, "perf monitor control 2"),
           SupervisorRegister("BAMR", 951, 32, "breakpoint address mask"),
           SupervisorRegister("SIAR", 955, 32, "sampled instruction addr")]
    pmc_sprs = (953, 954, 957, 958, 945, 946)
    for index, spr in enumerate(pmc_sprs, start=1):
        out.append(SupervisorRegister(f"PMC{index}", spr, 32,
                                      "perf monitor counter"))
    return tuple(out)


def _segment_registers() -> Tuple[SupervisorRegister, ...]:
    """The 16 segment registers (modelled as SPR-space 4096+n)."""
    return tuple(
        SupervisorRegister(f"SR{index}", 4096 + index, 32,
                           "memory segment register")
        for index in range(16))


#: The G4 register-injection target list: 99 supervisor registers.
G4_SUPERVISOR_REGISTERS: Tuple[SupervisorRegister, ...] = (
    SupervisorRegister("MSR", -1, 32, "machine state (IR/DR/EE/PR)"),
    SupervisorRegister("SDR1", SPR_SDR1, 32, "page table base"),
    SupervisorRegister("SRR0", SPR_SRR0, 32, "exception return address"),
    SupervisorRegister("SRR1", SPR_SRR1, 32, "exception-saved MSR"),
    SupervisorRegister("DAR", SPR_DAR, 32, "data address register"),
    SupervisorRegister("DSISR", SPR_DSISR, 32, "DSI status"),
    SupervisorRegister("DEC", SPR_DEC, 32, "decrementer"),
    SupervisorRegister("TBL", SPR_TBL_WRITE, 32, "time base lower"),
    SupervisorRegister("TBU", SPR_TBU_WRITE, 32, "time base upper"),
    SupervisorRegister("PVR", SPR_PVR, 32, "processor version (RO)"),
    SupervisorRegister("PIR", SPR_PIR, 32, "processor id"),
    SupervisorRegister("EAR", 282, 32, "external access register"),
    *_sprg_block(),
    *_bat_block(),
    *_pm_block(),
    SupervisorRegister("HID0", SPR_HID0, 32, "hardware config 0"),
    SupervisorRegister("HID1", SPR_HID1, 32, "hardware config 1"),
    SupervisorRegister("IABR", 1010, 32, "instruction addr breakpoint"),
    SupervisorRegister("DABR", 1013, 32, "data addr breakpoint"),
    SupervisorRegister("L2CR", SPR_L2CR, 32, "L2 cache control"),
    SupervisorRegister("L3CR", 1018, 32, "L3 cache control"),
    SupervisorRegister("ICTC", SPR_ICTC, 32, "i-cache throttling"),
    SupervisorRegister("ICTRL", 1011, 32, "instruction cache control"),
    SupervisorRegister("LDSTCR", 1016, 32, "load/store control"),
    SupervisorRegister("LDSTDB", 1012, 32, "load/store debug"),
    SupervisorRegister("MSSCR0", 1014, 32, "memory subsystem control"),
    SupervisorRegister("MSSSR0", 1015, 32, "memory subsystem status"),
    SupervisorRegister("TLBMISS", 980, 32, "TLB miss address"),
    SupervisorRegister("PTEHI", 981, 32, "PTE high word"),
    SupervisorRegister("PTELO", 982, 32, "PTE low word"),
    SupervisorRegister("THRM1", 1020, 32, "thermal assist 1"),
    SupervisorRegister("THRM2", 1021, 32, "thermal assist 2"),
    SupervisorRegister("THRM3", 1022, 32, "thermal assist 3"),
    SupervisorRegister("L3PM", 983, 32, "L3 private memory address"),
    SupervisorRegister("L3ITCR0", 984, 32, "L3 input timing control"),
    *_segment_registers(),
)

assert len(G4_SUPERVISOR_REGISTERS) == 99, len(G4_SUPERVISOR_REGISTERS)
