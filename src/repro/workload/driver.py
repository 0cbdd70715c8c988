"""The workload executive.

Interleaves the user benchmark programs and the kernel threads under
the simulated kernel's own scheduler: timer interrupts are delivered
every few operations, ``schedule()`` (running as compiled kernel code)
picks the next task, and the machine context-switches accordingly.
User tasks run their benchmark program; kernel threads get one pass of
their entry function, exactly how kupdate/kjournald share the CPU on
the paper's target nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.kernel.abi import Syscall
from repro.machine.machine import Machine
from repro.workload.programs import (
    BenchProgram, FSVEvent, collect_fsv, default_mix,
)


@dataclass
class WorkloadResult:
    """What a monitored workload run observed (no crash/hang)."""

    completed_ops: int
    fsv_events: List[FSVEvent] = field(default_factory=list)
    syscalls: int = 0
    timer_ticks: int = 0

    @property
    def fail_silence_violated(self) -> bool:
        return bool(self.fsv_events)


class UnixBenchDriver:
    """Drives one machine through the benchmark mix."""

    #: timer interrupt every N user operations (10 ms quantum pacing)
    OPS_PER_TICK = 8

    def __init__(self, machine: Machine, seed: int = 0,
                 programs: Optional[Dict[int, BenchProgram]] = None):
        self.machine = machine
        self.seed = seed
        user_pids = [pid for pid, task in machine.tasks.items()
                     if task.kind == "user" and pid != 0]
        if programs is None:
            mix = default_mix(seed)
            programs = {pid: mix[index % len(mix)]
                        for index, pid in enumerate(user_pids)}
        self.programs = programs
        self._ops_since_tick = 0
        self.completed_ops = 0
        #: scheduling rounds consumed so far; instance state (not a
        #: ``run()`` local) so a checkpoint-dispatched run resumes the
        #: livelock budget exactly where the clean run left it — a
        #: livelock detected from a checkpoint fires at the same round,
        #: hence the same cycle count, as one detected from boot
        self._rounds = 0

    # -- phases ------------------------------------------------------------

    def setup(self) -> None:
        """Pre-injection preparation phase (runs before monitoring)."""
        machine = self.machine
        for pid, program in self.programs.items():
            machine._switch_to(pid)
            program.setup(machine, machine.tasks[pid])
        machine._switch_to(0)

    def run(self, ops: int, boundary=None) -> WorkloadResult:
        """Run *ops* user operations under scheduler control.

        Crashes and hangs propagate as exceptions; a normal return
        means the system survived the monitoring window.

        *boundary*, when given, is called (no arguments) at the top of
        every scheduling round — between kernel calls, never inside
        one, so the machine is at an architecturally quiescent point.
        The checkpoint ladder (:mod:`repro.checkpoint`) captures its
        snapshots there.
        """
        machine = self.machine
        max_rounds = ops * 40 + 400
        while self.completed_ops < ops:
            if boundary is not None:
                boundary()
            self._rounds += 1
            if self._rounds > max_rounds:
                # scheduling livelock: user tasks never run again —
                # "system resources exhausted" (paper Table 2: Hang)
                from repro.machine.events import HangDetected
                raise HangDetected("scheduler", machine.cpu.cycles,
                                   "no user progress (livelock)")
            pid = machine.current_pid
            task = machine.tasks[pid]
            if task.kind == "kthread":
                machine.run_kthread(pid)
                machine.syscall(Syscall.SCHED_YIELD)
                machine.deliver_timer()
                continue
            program = self.programs.get(pid)
            if program is None:
                # init task (pid 0) idles briefly, then yields
                machine.syscall(Syscall.SCHED_YIELD)
                machine.deliver_timer()
                continue
            program.step(machine, task)
            self.completed_ops += 1
            machine.think(500 + (self.completed_ops * 97) % 2500)
            self._ops_since_tick += 1
            if self._ops_since_tick >= self.OPS_PER_TICK:
                self._ops_since_tick = 0
                machine.deliver_timer()
        return WorkloadResult(
            completed_ops=self.completed_ops,
            fsv_events=collect_fsv(list(self.programs.values())),
            syscalls=machine.syscalls_completed,
            timer_ticks=machine.timer_ticks,
        )


def run_clean_workload(arch: str, seed: int = 0, *, ops: int
                       ) -> WorkloadResult:
    """Convenience: boot a machine and run the workload unperturbed."""
    machine = Machine(arch)
    machine.boot()
    driver = UnixBenchDriver(machine, seed=seed)
    driver.setup()
    return driver.run(ops)
