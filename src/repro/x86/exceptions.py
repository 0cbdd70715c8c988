"""IA-32 exception vectors and the fault type raised by the P4-like core.

The vector set matches what the paper's Table 3 buckets crashes into:
NULL Pointer and Bad Paging both arrive as #PF (vector 14) and are split
by faulting address at classification time; Invalid Instruction is #UD;
General Protection Fault is #GP; Invalid TSS is #TS; Divide Error is
#DE; Bounds Trap is #BR.  Kernel Panic is a *software* outcome (the
kernel detects an inconsistency itself) and therefore has no hardware
vector here.
"""

from __future__ import annotations

import enum

from repro.isa.faults import Fault


class X86Vector(enum.IntEnum):
    """IA-32 interrupt/exception vector numbers (subset)."""

    DIVIDE_ERROR = 0
    DEBUG = 1
    NMI = 2
    BREAKPOINT = 3
    OVERFLOW = 4
    BOUNDS = 5
    INVALID_OPCODE = 6
    DEVICE_NOT_AVAILABLE = 7
    DOUBLE_FAULT = 8
    INVALID_TSS = 10
    SEGMENT_NOT_PRESENT = 11
    STACK_SEGMENT_FAULT = 12
    GENERAL_PROTECTION = 13
    PAGE_FAULT = 14
    ALIGNMENT_CHECK = 17
    MACHINE_CHECK = 18
    SYSCALL = 0x80


class X86Fault(Fault):
    """A hardware exception raised by :class:`repro.x86.cpu.X86CPU`."""

    def __init__(self, vector: X86Vector, address: int | None = None,
                 detail: str = "", error_code: int = 0):
        self.error_code = error_code
        super().__init__(vector=vector, address=address, detail=detail)


#: Vectors whose delivery Linux 2.4 treats as a fatal kernel oops when
#: they occur in kernel mode (everything except the syscall gate and the
#: debug/breakpoint traps used by the injector itself).
FATAL_IN_KERNEL = frozenset({
    X86Vector.DIVIDE_ERROR,
    X86Vector.BOUNDS,
    X86Vector.INVALID_OPCODE,
    X86Vector.DOUBLE_FAULT,
    X86Vector.INVALID_TSS,
    X86Vector.SEGMENT_NOT_PRESENT,
    X86Vector.STACK_SEGMENT_FAULT,
    X86Vector.GENERAL_PROTECTION,
    X86Vector.PAGE_FAULT,
    X86Vector.ALIGNMENT_CHECK,
    X86Vector.MACHINE_CHECK,
    X86Vector.OVERFLOW,
})
