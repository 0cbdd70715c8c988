"""Debug unit: instruction breakpoints and data watchpoints.

The paper's injector uses the CPUs' debugging features (the P4's DR0-DR3
debug address registers, the G4's IABR/DABR) to trigger injections and
to detect error activation.  This module models that hardware with the
two semantics the paper relies on (Section 3.3):

* an **instruction breakpoint** fires when the target address is
  *fetched*, before the instruction executes — so the injector can
  corrupt the instruction bytes just in time;
* a **data watchpoint** fires *after* the target memory is read or
  written — so the injector knows whether the corrupted datum was
  consumed (read: error activated and live) or clobbered (write: error
  overwritten and re-injected).

Slot counts mirror the hardware: four slots on the P4-like core, two on
the G4-like core (one instruction + one data); the injector only ever
needs one of each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.isa.faults import AccessKind

_ids = itertools.count(1)


@dataclass
class InstructionBreakpoint:
    """Fires on instruction fetch at exactly ``addr``."""

    addr: int
    enabled: bool = True
    one_shot: bool = True
    bp_id: int = field(default_factory=lambda: next(_ids))


@dataclass
class Watchpoint:
    """Fires after a data access overlapping ``[addr, addr+length)``."""

    addr: int
    length: int = 4
    on_read: bool = True
    on_write: bool = True
    enabled: bool = True
    wp_id: int = field(default_factory=lambda: next(_ids))

    def overlaps(self, addr: int, size: int) -> bool:
        return addr < self.addr + self.length and self.addr < addr + size


@dataclass(frozen=True)
class BreakpointHit:
    """Delivered to the debug callback when an instruction BP fires."""

    breakpoint: InstructionBreakpoint
    addr: int
    cycles: int


@dataclass(frozen=True)
class WatchpointHit:
    """Delivered to the debug callback when a watchpoint fires."""

    watchpoint: Watchpoint
    addr: int
    size: int
    kind: AccessKind
    cycles: int


class DebugUnit:
    """Holds breakpoint/watchpoint slots and dispatches hits.

    The CPU cores call :meth:`check_fetch` before executing each
    instruction and :meth:`check_access` after each data access.  Hits
    are delivered to the registered callbacks; the fetch callback runs
    *before* the instruction is decoded so it may rewrite the
    instruction bytes (that is how code injection works).
    """

    def __init__(self, insn_slots: int = 4, data_slots: int = 4) -> None:
        self.insn_slots = insn_slots
        self.data_slots = data_slots
        self._insn_bps: Dict[int, InstructionBreakpoint] = {}
        self._watchpoints: List[Watchpoint] = []
        self.on_breakpoint: Optional[Callable[[BreakpointHit], None]] = None
        self.on_watchpoint: Optional[Callable[[WatchpointHit], None]] = None

    # -- slot management --------------------------------------------------

    def set_instruction_breakpoint(self, addr: int,
                                   one_shot: bool = True
                                   ) -> InstructionBreakpoint:
        if len(self._insn_bps) >= self.insn_slots:
            raise ValueError("no free instruction breakpoint slots")
        breakpoint = InstructionBreakpoint(addr=addr, one_shot=one_shot)
        self._insn_bps[addr] = breakpoint
        return breakpoint

    def set_watchpoint(self, addr: int, length: int = 4,
                       on_read: bool = True, on_write: bool = True
                       ) -> Watchpoint:
        if len(self._watchpoints) >= self.data_slots:
            raise ValueError("no free watchpoint slots")
        watchpoint = Watchpoint(addr=addr, length=length,
                                on_read=on_read, on_write=on_write)
        self._watchpoints.append(watchpoint)
        return watchpoint

    def clear_watchpoint(self, watchpoint: Watchpoint) -> None:
        try:
            self._watchpoints.remove(watchpoint)
        except ValueError:
            pass

    def clear_all(self) -> None:
        self._insn_bps.clear()
        self._watchpoints.clear()

    @property
    def has_watchpoints(self) -> bool:
        return bool(self._watchpoints)

    @property
    def has_instruction_breakpoints(self) -> bool:
        return bool(self._insn_bps)

    # -- CPU-facing hooks --------------------------------------------------

    def check_fetch(self, addr: int, cycles: int) -> None:
        """Called by the CPU before executing the instruction at *addr*."""
        breakpoint = self._insn_bps.get(addr)
        if breakpoint is None or not breakpoint.enabled:
            return
        if breakpoint.one_shot:
            del self._insn_bps[addr]
        if self.on_breakpoint is not None:
            self.on_breakpoint(BreakpointHit(breakpoint, addr, cycles))

    def check_access(self, addr: int, size: int, kind: AccessKind,
                     cycles: int) -> None:
        """Called by the CPU after a data read/write completes."""
        for watchpoint in self._watchpoints:
            if not watchpoint.enabled:
                continue
            if not watchpoint.overlaps(addr, size):
                continue
            if kind is AccessKind.READ and not watchpoint.on_read:
                continue
            if kind is AccessKind.WRITE and not watchpoint.on_write:
                continue
            if self.on_watchpoint is not None:
                self.on_watchpoint(
                    WatchpointHit(watchpoint, addr, size, kind, cycles))
