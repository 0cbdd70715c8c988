"""Clean-run probe: one observed pass over boot, setup and the window.

One step-mode run per (architecture, seed, ops), watched by a CPU
tracer, yields every fact a campaign takes from the clean run:

* the **data access trace** — every load/store (instret, addr, width,
  kind) — used to decide *activation* of stack and data injections
  without a full simulation each (paper Section 3.3: the pre-generated
  error is "activated" when the watchpoint would have fired);
* the **executed-address set** — used to decide activation of code
  injections (a breakpoint at a never-fetched address never fires);
* the **first-execution-instret map** — for every address fetched
  inside the monitored window (after ``driver.setup()``), the instret
  at which its first fetch began; code injections can only activate at
  that instant, so it both tightens the activation screen (addresses
  executed only during boot can never fire a breakpoint in the
  monitored window) and tells the checkpoint dispatcher
  (:mod:`repro.checkpoint`) how far it may fast-forward;
* kernprof-style **PC samples**, which
  :func:`repro.workload.profiler.profile_kernel` attributes to kernel
  functions to pick code-injection targets;
* run-length figures (instret, cycles) used to place injection instants
  uniformly inside the monitoring window.

Soundness: programs and scheduler are deterministic for a given seed,
and an injected run is identical to the clean run up to the moment of
activation, so the clean trace decides activation exactly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.machine.machine import Machine, MachineConfig
from repro.workload.driver import UnixBenchDriver

#: (instret, addr, width, kind) where kind is "r" or "w"
AccessRecord = Tuple[int, int, int, str]

#: fetches between PC samples, counted from machine construction
SAMPLE_EVERY = 23


@dataclass
class CleanRunProbe:
    arch: str
    seed: int
    ops: int
    accesses: List[AccessRecord]
    executed_pcs: Set[int]
    #: addr -> instret at which its first *window* fetch began (the
    #: retirement counter *before* the instruction executed); boot-time
    #: fetches are excluded, so an address only here when the monitored
    #: workload actually reaches it
    first_executed: Dict[int, int]
    #: pc -> samples taken there, one every ``SAMPLE_EVERY`` fetches of
    #: the whole pass (boot included), in first-sample order
    pc_samples: Dict[int, int]
    boot_instret: int
    total_instret: int
    total_cycles: int
    fsv_clean: bool

    _index: dict = field(default_factory=dict, repr=False)

    def _build_index(self) -> None:
        """Per-byte index: addr -> instret-sorted list of records."""
        index: dict = {}
        for record in self.accesses:
            _, addr, width, _ = record
            for byte in range(addr, addr + width):
                index.setdefault(byte, []).append(record)
        # records were appended in instret order already
        self._index = index

    def first_access_after(self, instret: int, addr: int,
                           length: int = 1
                           ) -> Optional[AccessRecord]:
        """First access overlapping [addr, addr+length) after instret."""
        if not self._index and self.accesses:
            self._build_index()
        best: Optional[AccessRecord] = None
        for byte in range(addr, addr + length):
            records = self._index.get(byte)
            if not records:
                continue
            position = bisect.bisect_left(records, (instret,))
            if position < len(records):
                candidate = records[position]
                if best is None or candidate[0] < best[0]:
                    best = candidate
        return best

    def pc_executed(self, addr: int) -> bool:
        return addr in self.executed_pcs

    def first_executed_instret(self, addr: int) -> Optional[int]:
        """Instret before the first *window* fetch of *addr*.

        ``None`` when the monitored workload never fetches the address
        — including addresses executed only during boot, which
        ``pc_executed`` reports as executed but which can never trip a
        breakpoint installed after the fork point.
        """
        return self.first_executed.get(addr)

    def stack_runtime_ranges(self, allocations: dict,
                             window: int = 256) -> dict:
        """Stack sampling range per task.

        *allocations* maps pid -> (base, top) of the allocated 8 KiB
        stack.  The paper's generator picks random locations in the
        active stack area of a randomly chosen kernel process; we use a
        fixed *window* below each stack top — the same rule on both
        architectures, so differences in activation/manifestation come
        from how densely each architecture's frames populate it.  (The
        measured runtime stack is ~2x deeper on the G4, matching the
        paper's Section 5.1 observation.)
        """
        out = {}
        for pid, (base, top) in allocations.items():
            out[pid] = (max(base, top - window), top)
        return out

    def measured_stack_depth(self, allocations: dict) -> dict:
        """Deepest touched stack extent per task (diagnostics/tests)."""
        deepest = {pid: top for pid, (_base, top) in allocations.items()}
        for _instret, addr, _width, _kind in self.accesses:
            for pid, (base, top) in allocations.items():
                if base <= addr < top and addr < deepest[pid]:
                    deepest[pid] = addr
        return {pid: allocations[pid][1] - deepest[pid]
                for pid in allocations}


class _Observer:
    """Collects the clean-run facts through the flight recorder's CPU
    hooks; an armed ``cpu.tracer`` also keeps ``call_kernel`` on the
    step core, so no instruction goes unseen."""

    __slots__ = ("accesses", "executed", "first_executed", "pc_samples",
                 "_countdown")

    def __init__(self) -> None:
        self.accesses: List[AccessRecord] = []
        self.executed: Set[int] = set()
        self.first_executed: Dict[int, int] = {}
        self.pc_samples: Dict[int, int] = {}
        self._countdown = SAMPLE_EVERY

    def on_fetch(self, cpu, pc: int) -> None:
        self.executed.add(pc)
        first = self.first_executed
        if pc not in first:
            first[pc] = cpu.instret
        self._countdown -= 1
        if not self._countdown:
            self._countdown = SAMPLE_EVERY
            samples = self.pc_samples
            samples[pc] = samples.get(pc, 0) + 1

    def on_load(self, cpu, addr: int, width: int, value: int) -> None:
        self.accesses.append((cpu.instret, addr, width, "r"))

    def on_store(self, cpu, addr: int, width: int, value: int) -> None:
        self.accesses.append((cpu.instret, addr, width, "w"))

    def on_reg_write(self, cpu, reg: str, old: int, new: int) -> None:
        pass                              # register writes are not probed


def probe_clean_run(arch: str, seed: int = 0, ops: int = 60,
                    at_window=None) -> CleanRunProbe:
    """Boot, set up and run the workload once, observed.

    *at_window*, when given, is called with the machine and its driver
    the moment the monitored window opens (``boot_instret``), before
    any window instruction runs.
    """
    observer = _Observer()
    machine = Machine(arch, config=MachineConfig(seed=seed,
                                                 exec_mode="step"))
    machine.cpu.tracer = observer
    machine.boot()
    driver = UnixBenchDriver(machine, seed=seed)
    driver.setup()
    boot_instret = machine.cpu.instret
    if at_window is not None:
        at_window(machine, driver)
    # window opens here: discard boot-time first-fetch records so
    # first_executed covers exactly what an injected run can reach
    observer.first_executed = {}
    result = driver.run(ops)
    return CleanRunProbe(
        arch=arch, seed=seed, ops=ops,
        accesses=observer.accesses,
        executed_pcs=observer.executed,
        first_executed=observer.first_executed,
        pc_samples=observer.pc_samples,
        boot_instret=boot_instret,
        total_instret=machine.cpu.instret,
        total_cycles=machine.cpu.cycles,
        fsv_clean=result.fail_silence_violated,
    )
