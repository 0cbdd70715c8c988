"""Shared instruction-set-architecture plumbing.

This package holds everything the two simulated processors (``repro.x86``
and ``repro.ppc``) have in common: bit manipulation helpers, the sparse
physical memory model, the address-space/permission layer, the hardware
fault taxonomy, and the debug unit (instruction breakpoints and data
watchpoints) that the NFTAPE-style injector drives.  The assembler core
(:mod:`repro.isa.assembler`) and the CPU core (:mod:`repro.isa.core`)
are imported by their users only.
"""

from repro.isa.bits import (
    MASK8,
    MASK16,
    MASK32,
    bit_flip,
    sign_extend,
    to_signed,
    to_unsigned,
)
from repro.isa.faults import (
    AccessKind,
    Fault,
    MemoryFault,
)
from repro.isa.memory import AddressSpace, MemoryError_, PhysicalMemory, Region
from repro.isa.debug import (
    BreakpointHit,
    DebugUnit,
    InstructionBreakpoint,
    Watchpoint,
    WatchpointHit,
)

__all__ = [
    "MASK8",
    "MASK16",
    "MASK32",
    "bit_flip",
    "sign_extend",
    "to_signed",
    "to_unsigned",
    "AccessKind",
    "Fault",
    "MemoryFault",
    "AddressSpace",
    "MemoryError_",
    "PhysicalMemory",
    "Region",
    "BreakpointHit",
    "DebugUnit",
    "InstructionBreakpoint",
    "Watchpoint",
    "WatchpointHit",
]
