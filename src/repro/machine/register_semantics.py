"""Semantic side effects of supervisor-register corruption.

The paper's register campaigns show that only a handful of the ~20 P4
and 99 G4 system registers ever manifest (Section 5.2).  This module is
the single place where "register X changed from A to B" is translated
into system-level consequences, used both by ``mtspr`` executed from
(possibly corrupted) kernel code and by the register injector.

G4 (Section 5.2):

* **MSR[IR]/MSR[DR]** cleared -> address translation off -> the next
  kernel-high access machine-checks;
* **SDR1** (page table base) corrupted -> translations are garbage ->
  DSI ("kernel access of bad area") on the next data access;
* **BAT0** pairs corrupted -> the kernel lowmem mapping breaks (data
  side: DSI; instruction side: ISI);
* **SPRG2** corrupted -> the exception-entry stack switch jumps through
  garbage at the *next* exception (long latency, Illegal Instruction);
* **HID0[BTIC]** enabled over invalid content -> the next taken branch
  fetches a bogus target (Illegal Instruction).

P4: CR0/CR3/EFLAGS(NT)/FS/GS/ESP/EIP effects are implemented in the CPU
and machine layers (selector validation at load/use, translation off on
CR3/CR0.PG damage, NT checked at interrupt return, IDT checked at
exception delivery).

:data:`ABSORBING` names, per arch, the catalogue registers that have
none of these effects: no code outside an instruction body reads them
(the CPU, machine, driver and debug layers never look at them; a crash
dump may, but only after a crash) and writing them changes nothing
else.  Only an instruction body whose effects carry ``system`` (see
:mod:`repro.static.effects`) can read one, so in a window that executes
no such instruction a flip of one stays in that register and the run
ends exactly like the clean run (``CampaignContext.absorbing_registers``
turns this into the per-context set a campaign ends early).  A register
not named here is simulated to the end of the window, so one added to
the catalogue later stays simulated until it is declared.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.ppc.registers import HID0_BTIC, SPR_HID0, SPR_SDR1, SPR_SPRG2

#: DBAT0/IBAT0 cover kernel lowmem in our model
_IBAT0 = (528, 529)
_DBAT0 = (536, 537)

#: catalogue names (``RegisterTarget.name``) of the registers whose
#: flips nothing outside an instruction body reads and whose writes
#: have no effect; every register not named here is simulated
ABSORBING: Dict[str, FrozenSet[str]] = {
    "x86": frozenset({
        "CR2", "CR4", "DR0", "DR1", "DR2", "DR3", "DR6", "DR7",
        "GDTR_BASE", "GDTR_LIMIT", "LDTR", "TR"}),
    "ppc": frozenset({
        "SRR0", "SRR1", "DAR", "DSISR", "DEC", "TBL", "TBU", "PVR", "PIR",
        "EAR",
        *(f"SPRG{n}" for n in (0, 1, 3, 4, 5, 6, 7)),
        *(f"{side}BAT{n}{half}" for side in "ID" for n in range(1, 8)
          for half in "UL"),
        "MMCR0", "MMCR1", "MMCR2", "BAMR", "SIAR",
        *(f"PMC{n}" for n in range(1, 7)),
        "HID1", "IABR", "DABR", "L2CR", "L3CR", "ICTC", "ICTRL", "LDSTCR",
        "LDSTDB", "MSSCR0", "MSSSR0", "TLBMISS", "PTEHI", "PTELO",
        "THRM1", "THRM2", "THRM3", "L3PM", "L3ITCR0",
        *(f"SR{n}" for n in range(16))}),
}


def apply_ppc_spr_effect(machine, spr: int, old: int, new: int) -> None:
    """Apply system-level consequences of an SPR value change."""
    if old == new:
        return
    cpu = machine.cpu
    if spr == SPR_SDR1:
        # page-table base garbage: all translated data accesses fault
        cpu._high_data_fault = "dsi"
        cpu._high_fetch_fault = None
    elif spr in _DBAT0:
        cpu._high_data_fault = "dsi"
    elif spr in _IBAT0:
        cpu._high_fetch_fault = "isi"
    elif spr == SPR_HID0:
        if (new & HID0_BTIC) and not (old & HID0_BTIC):
            cpu.btic_poisoned = True
    elif spr == SPR_SPRG2:
        # consumed lazily at the next exception entry; the machine
        # compares against its recorded expected value
        pass
    # all other SPRs: architecturally present, behaviourally inert here


def apply_ppc_msr_flip(machine, new_msr: int) -> None:
    """Install a flipped MSR (register injection path)."""
    machine.cpu.set_msr(new_msr)


def apply_x86_register_flip(machine, attr: str, new_value: int) -> None:
    """Install a flipped x86 system register (injection path).

    Most registers are plain attributes; CR0/CR3 go through
    :meth:`X86CPU.set_cr` so their architectural side effects (paging
    off, page-table garbage) apply.
    """
    cpu = machine.cpu
    if attr == "cr0":
        cpu.set_cr(0, new_value)
    elif attr == "cr3":
        cpu.set_cr(3, new_value)
    elif attr == "cr4":
        cpu.set_cr(4, new_value)
    else:
        setattr(cpu, attr, new_value)
