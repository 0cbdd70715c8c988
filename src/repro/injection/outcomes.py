"""Outcome taxonomy: the paper's Tables 2, 3, and 4 as types."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union


class CampaignKind(enum.Enum):
    """The four injection target classes."""

    STACK = "stack"
    REGISTER = "register"
    DATA = "data"
    CODE = "code"


class Outcome(enum.Enum):
    """Table 2 outcome categories (crash split by dump availability)."""

    NOT_ACTIVATED = "not-activated"
    NOT_MANIFESTED = "not-manifested"
    FAIL_SILENCE_VIOLATION = "fsv"
    CRASH_KNOWN = "crash-known"
    CRASH_UNKNOWN = "crash-unknown"
    HANG = "hang"

    @property
    def activated(self) -> bool:
        return self is not Outcome.NOT_ACTIVATED

    @property
    def manifested(self) -> bool:
        return self not in (Outcome.NOT_ACTIVATED, Outcome.NOT_MANIFESTED)


class CrashCauseP4(enum.Enum):
    """Table 3: crash cause categories on the Pentium 4."""

    NULL_POINTER = "NULL Pointer"
    BAD_PAGING = "Bad Paging"
    INVALID_INSTRUCTION = "Invalid Instruction"
    GENERAL_PROTECTION = "General Protection Fault"
    KERNEL_PANIC = "Kernel Panic"
    INVALID_TSS = "Invalid TSS"
    DIVIDE_ERROR = "Divide Error"
    BOUNDS_TRAP = "Bounds Trap"


class CrashCauseG4(enum.Enum):
    """Table 4: crash cause categories on the PowerPC G4."""

    BAD_AREA = "Bad Area"
    ILLEGAL_INSTRUCTION = "Illegal Instruction"
    STACK_OVERFLOW = "Stack Overflow"
    MACHINE_CHECK = "Machine Check"
    ALIGNMENT = "Alignment"
    PANIC = "Panic!!!"
    BUS_ERROR = "Bus Error"
    BAD_TRAP = "Bad Trap"


#: crash cause taxonomy (arch-specific enums, paper Tables 3 and 4)
CrashCause = Union[CrashCauseP4, CrashCauseG4]


@dataclass
class InjectionResult:
    """The record one injection experiment produces."""

    arch: str
    kind: CampaignKind
    target: object                       # the *Target dataclass
    outcome: Outcome
    #: crash cause (CrashCauseP4 or CrashCauseG4) for known crashes
    cause: Optional[CrashCause] = None
    #: cycles at error activation (injection, for registers)
    activation_cycles: Optional[int] = None
    #: cycles at crash (None unless a crash was observed)
    crash_cycles: Optional[int] = None
    #: retired instructions at error activation (same instant as
    #: ``activation_cycles``), so latency is reportable in instructions
    activation_instret: Optional[int] = None
    #: retired instructions at crash (``CrashReport.instret_at_crash``)
    crash_instret: Optional[int] = None
    detail: str = ""
    function: str = ""
    subsystem: str = ""
    #: True when activation was decided by the clean-run screen and no
    #: full simulation was needed (not-activated fast path)
    screened: bool = False

    @property
    def latency(self) -> Optional[int]:
        """Cycles-to-crash (paper Figure 3)."""
        if self.crash_cycles is None or self.activation_cycles is None:
            return None
        return max(0, self.crash_cycles - self.activation_cycles)

    @property
    def latency_instructions(self) -> Optional[int]:
        """Instructions-to-crash (the cycle latency's instret twin)."""
        if self.crash_instret is None or self.activation_instret is None:
            return None
        return max(0, self.crash_instret - self.activation_instret)
