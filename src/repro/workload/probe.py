"""Clean-run probe: one observed pass over boot, setup and the window.

One run per (architecture, seed, ops) yields every fact a campaign
takes from the clean run.  The whole pass (boot, setup and the window)
runs in compiled blocks under one CPU tracer: the dispatch loop reports
each block run to the tracer's ``on_block`` and each stepped
instruction to its ``on_fetch``, and the pass machine's debug unit logs
every data access.  Boot and setup keep a block cache of their own, so
the window compiles exactly the blocks a machine forked at its start
would.  Of the 101,859 x86 and 60,123 ppc instructions boot and setup
retire at seed 11, only 1,609 and 1,245 are stepped; the rest run in
compiled blocks.  The campaign context also forks its base machine and
its checkpoint rungs off this pass (``at_window``), so nothing
simulates the window twice.  The pass yields:

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

from repro.compile import BlockCache, CompiledBlock
from repro.isa.debug import DebugUnit
from repro.isa.faults import AccessKind
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

    #: word (addr >> 2) -> instret-ordered records touching it; built
    #: by :meth:`build_index`
    _index: Optional[Dict[int, List[AccessRecord]]] = field(
        default=None, repr=False)

    def build_index(self) -> Dict[int, List[AccessRecord]]:
        """Index the access trace by 4-byte word, once.

        A record goes under every word it touches.  The parallel engine
        calls this in the parent before its pool forks, so workers
        inherit the index."""
        if self._index is not None:
            return self._index
        index: Dict[int, List[AccessRecord]] = {}
        get = index.get
        for record in self.accesses:    # already in instret order
            addr = record[1]
            word, last = addr >> 2, (addr + record[2] - 1) >> 2
            while True:
                bucket = get(word)
                if bucket is None:
                    index[word] = [record]
                else:
                    bucket.append(record)
                if word == last:
                    break
                word += 1
        self._index = index
        return index

    def first_access_after(self, instret: int, addr: int,
                           length: int = 1
                           ) -> Optional[AccessRecord]:
        """First access overlapping [addr, addr+length) at or after
        *instret*; among accesses at the same instret, the one reaching
        the lowest byte of the range, then the earliest logged."""
        index = self.build_index()
        end = addr + length
        best: Optional[AccessRecord] = None
        best_key = (0, 0)
        for word in range(addr >> 2, ((end - 1) >> 2) + 1):
            records = index.get(word, ())
            for position in range(bisect.bisect_left(records, (instret,)),
                                  len(records)):
                record = records[position]
                at, start, width, _ = record
                if best is not None and at > best_key[0]:
                    break
                if start < end and start + width > addr:
                    key = (at, max(start, addr))
                    if best is None or key < best_key:
                        best, best_key = record, key
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


class _AccessLog(DebugUnit):
    """The pass machine's debug unit: logs every data access.

    Both the step core and compiled blocks call ``check_access`` after
    each load and store whenever a watchpoint slot is occupied, with
    ``instret`` already synced, so one placeholder slot makes this the
    single access channel for stepped instructions and compiled blocks
    alike.  Its ``check_access`` ignores the slots."""

    def __init__(self, cpu, accesses: List[AccessRecord]) -> None:
        super().__init__()
        self._watchpoints = [None]
        self._cpu = cpu
        self._accesses = accesses

    def check_access(self, addr: int, size: int, kind: AccessKind,
                     cycles: int) -> None:
        self._accesses.append((self._cpu.instret, addr, size,
                               "r" if kind is AccessKind.READ else "w"))


class _Observer:
    """Collects the clean-run fetch facts: a CPU tracer for stepped
    instructions and, through ``on_block``, for compiled blocks (data
    accesses arrive through :class:`_AccessLog`)."""

    __slots__ = ("accesses", "executed", "first_executed", "pc_samples",
                 "_countdown", "_recorded")

    def __init__(self) -> None:
        self.accesses: List[AccessRecord] = []
        self.executed: Set[int] = set()
        self.first_executed: Dict[int, int] = {}
        self.pc_samples: Dict[int, int] = {}
        self._countdown = SAMPLE_EVERY
        #: blocks whose every instruction is in ``executed`` and
        #: ``first_executed`` (held, so no other block takes their id)
        self._recorded: Set[CompiledBlock] = set()

    def open_window(self) -> None:
        """Start ``first_executed`` afresh: the monitored window opens."""
        self.first_executed = {}
        self._recorded = set()

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

    def on_block(self, cpu, block: CompiledBlock, base: int,
                 fetched: int) -> None:
        """*block* fetched its first *fetched* instructions, the first
        at instret *base*: the same facts ``on_fetch`` would record.
        A block fetched in full is recorded once; after that, only its
        PC samples are new."""
        spans = block.spans
        if block not in self._recorded:
            executed, first = self.executed, self.first_executed
            for k in range(fetched):
                pc = spans[k][0]
                executed.add(pc)
                if pc not in first:
                    first[pc] = base + k
            if fetched == block.n:
                self._recorded.add(block)
        countdown = self._countdown
        if fetched < countdown:
            self._countdown = countdown - fetched
            return
        samples = self.pc_samples
        for k in range(countdown - 1, fetched, SAMPLE_EVERY):
            pc = spans[k][0]
            samples[pc] = samples.get(pc, 0) + 1
        self._countdown = SAMPLE_EVERY - \
            (fetched - countdown) % SAMPLE_EVERY

    def on_load(self, cpu, addr: int, width: int, value: int) -> None:
        pass                              # logged by _AccessLog

    def on_store(self, cpu, addr: int, width: int, value: int) -> None:
        pass                              # logged by _AccessLog

    def on_reg_write(self, cpu, reg: str, old: int, new: int) -> None:
        pass                              # register writes are not probed


def probe_clean_run(arch: str, seed: int = 0, *, ops: int,
                    at_window=None) -> CleanRunProbe:
    """Boot, set up and run the workload once, observed.

    The whole pass runs in compiled blocks.  Boot and setup compile
    into a cache of their own, which is dropped when the monitored
    window opens; the window starts from an empty cache, so an address
    compiles on its second miss exactly as on any block-mode machine
    forked at the window's start.  *at_window*, when given, is called
    with the machine and its driver the moment the monitored window
    opens (``boot_instret``), before any window instruction runs; what
    it returns becomes the window run's ``boundary`` hook.
    """
    observer = _Observer()
    machine = Machine(arch, config=MachineConfig(seed=seed))
    cpu = machine.cpu
    plain_debug = cpu.debug
    cpu.debug = _AccessLog(cpu, observer.accesses)
    cpu.tracer = observer
    machine.boot()
    driver = UnixBenchDriver(machine, seed=seed)
    driver.setup()
    boot_instret = cpu.instret
    # window opens here: drop boot's blocks, so the window and every
    # machine forked from it compile their own, and discard boot-time
    # first-fetch records so first_executed covers exactly what an
    # injected run can reach
    cpu._block_cache = BlockCache()
    observer.open_window()
    boundary = at_window(machine, driver) if at_window is not None \
        else None
    result = driver.run(ops, boundary=boundary)
    # the pass is over: disarm its observers (the access log refers
    # back to the CPU, and at_window's hooks may keep the machine)
    cpu.debug, cpu.tracer = plain_debug, None
    return CleanRunProbe(
        arch=arch, seed=seed, ops=ops,
        accesses=observer.accesses,
        executed_pcs=observer.executed,
        first_executed=observer.first_executed,
        pc_samples=observer.pc_samples,
        boot_instret=boot_instret,
        total_instret=cpu.instret,
        total_cycles=cpu.cycles,
        fsv_clean=result.fail_silence_violated,
    )
