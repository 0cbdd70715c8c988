"""Crash-cause classification: CrashReport -> Table 3 / Table 4 bucket.

Mirrors how the paper's off-line analysis buckets crash dump data:

P4 (Table 3): page faults split into NULL Pointer (faulting address in
the first page, the classic ``Unable to handle kernel NULL pointer
dereference``) versus Bad Paging; #UD is Invalid Instruction (including
the ud2a executed by kernel BUG checks — the paper's Figure 13 quirk);
#GP, #TS, #DE, #BR map directly; a set ``panic_code`` means the OS
itself detected the error (Kernel Panic).

G4 (Table 4): the exception-entry wrapper's out-of-range stack pointer
becomes Stack Overflow *regardless of the raw vector* (the wrapper runs
before the handler); DSI splits into Bad Area (unmapped) versus Bus
Error (protection); ISI and Program exceptions — including kernel BUG
traps, which Linux surfaces through the same path on both platforms —
are Illegal Instruction; Machine Check and Alignment map directly;
anything unrecognized is a Bad Trap.
"""

from __future__ import annotations

from typing import Union

from repro.injection.outcomes import CrashCauseG4, CrashCauseP4
from repro.machine.events import CrashReport
from repro.ppc.exceptions import DSISR_PROTECTION, PPCVector
from repro.x86.exceptions import X86Vector

#: faulting addresses below this are NULL-pointer dereferences
NULL_PAGE_LIMIT = 0x1000

CrashCause = Union[CrashCauseP4, CrashCauseG4]


def classify_crash(report: CrashReport) -> CrashCause:
    if report.arch == "x86":
        return _classify_p4(report)
    return _classify_g4(report)


def _classify_p4(report: CrashReport) -> CrashCauseP4:
    if report.panic:
        return CrashCauseP4.KERNEL_PANIC
    vector = report.vector
    if vector == X86Vector.PAGE_FAULT:
        address = report.address or 0
        if address < NULL_PAGE_LIMIT:
            return CrashCauseP4.NULL_POINTER
        return CrashCauseP4.BAD_PAGING
    if vector == X86Vector.INVALID_OPCODE:
        return CrashCauseP4.INVALID_INSTRUCTION
    if vector == X86Vector.GENERAL_PROTECTION:
        return CrashCauseP4.GENERAL_PROTECTION
    if vector == X86Vector.INVALID_TSS:
        return CrashCauseP4.INVALID_TSS
    if vector == X86Vector.DIVIDE_ERROR:
        return CrashCauseP4.DIVIDE_ERROR
    if vector == X86Vector.BOUNDS:
        return CrashCauseP4.BOUNDS_TRAP
    if vector in (X86Vector.SEGMENT_NOT_PRESENT,
                  X86Vector.STACK_SEGMENT_FAULT,
                  X86Vector.OVERFLOW):
        # segmentation-flavoured oddities land in the GP bucket,
        # as the 2.4 kernel's die() messages do
        return CrashCauseP4.GENERAL_PROTECTION
    if vector == X86Vector.DOUBLE_FAULT:
        # a double fault with a surviving dump is still a paging-class
        # failure from the analyst's perspective
        return CrashCauseP4.BAD_PAGING
    return CrashCauseP4.GENERAL_PROTECTION


def _classify_g4(report: CrashReport) -> CrashCauseG4:
    if report.stack_out_of_range:
        # the checking wrapper fires before the handler dispatches
        return CrashCauseG4.STACK_OVERFLOW
    if report.panic:
        return CrashCauseG4.PANIC
    vector = report.vector
    if vector == PPCVector.DSI:
        if report.registers.get("dsisr", 0) & DSISR_PROTECTION:
            return CrashCauseG4.BUS_ERROR
        return CrashCauseG4.BAD_AREA
    if vector == PPCVector.ISI:
        # Linux/PPC routes instruction storage interrupts through
        # do_page_fault: an unmapped fetch oopses as "kernel access of
        # bad area", exactly like a data fault
        return CrashCauseG4.BAD_AREA
    if vector == PPCVector.PROGRAM:
        return CrashCauseG4.ILLEGAL_INSTRUCTION
    if vector == PPCVector.MACHINE_CHECK:
        return CrashCauseG4.MACHINE_CHECK
    if vector == PPCVector.ALIGNMENT:
        return CrashCauseG4.ALIGNMENT
    return CrashCauseG4.BAD_TRAP
