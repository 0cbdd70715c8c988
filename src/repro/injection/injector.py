"""Single-injection executor (step 2 of the paper's Figure 2).

Each injection experiment forks a pristine booted machine, installs the
error according to its target class, runs the monitored workload
window, and classifies the outcome:

* **code** — an instruction breakpoint at the target address; when the
  fetch hits, one bit of the instruction's encoding is flipped (the
  error then persists for the rest of the run, paper Section 3.5);
* **stack/data** — at the injection instant the bit is flipped in
  memory and a data watchpoint armed; the first access activates the
  error (a write-first access re-injects the error into the fresh
  value, per Section 3.3);
* **register** — at the injection instant the register is flipped
  through the register-semantics layer (activation cannot be observed,
  as the paper notes).  A spec marked ``absorbing`` flips a register
  nothing in the rest of the window reads, so the run ends right there
  with the record the full run would return (unless a tracer is
  attached: a traced run always simulates its tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.analysis.classify import classify_crash
from repro.checkpoint.ladder import Checkpoint
from repro.faults import (
    DEFAULT_MODEL, FaultPlan, flip_mask, get_model, plan_span,
    register_width,
)
from repro.injection.collector import CrashDataCollector
from repro.injection.outcomes import (
    CampaignKind, InjectionResult, Outcome,
)
from repro.injection.targets import CodeTarget, RegisterTarget, StackTarget
from repro.machine.events import HangDetected, KernelCrash
from repro.machine.machine import KSTACK_SIZE, Machine, MachineConfig
from repro.machine.register_semantics import (
    apply_ppc_msr_flip, apply_x86_register_flip,
)
from repro.workload.driver import UnixBenchDriver
from repro.workload.programs import BenchProgram, clone_programs


@dataclass
class RunSpec:
    """Everything one injection run needs."""

    base_machine: Machine
    base_programs: Dict[int, BenchProgram]
    kind: CampaignKind
    target: object
    ops: int
    seed: int
    dump_loss_probability: float = MachineConfig.dump_loss_probability
    exec_mode: str = MachineConfig.exec_mode
    #: registered fault-model name (:mod:`repro.faults`); the default
    #: reproduces the paper's single-bit single-shot model exactly
    fault_model: str = DEFAULT_MODEL
    #: start from this clean-run snapshot instead of the fork point
    #: (:mod:`repro.checkpoint`); results are bit-identical either way
    #: — the snapshot is just further along the same deterministic
    #: pre-trigger execution
    checkpoint: Optional[Checkpoint] = None
    #: a register target whose flip nothing after the injection instant
    #: reads (``CampaignContext.absorbing_registers``): the run ends at
    #: the flip, as ``NOT_MANIFESTED``, unless a tracer is attached
    absorbing: bool = False


class _Absorbed(Exception):
    """Ends an absorbing register run at its injection instant."""


def _injected(what: str, flips: int, bit: int, where: str) -> str:
    """The trace text of an injection: one bit, or a burst of *flips*
    starting at *bit*."""
    if flips == 1:
        return f"{what} bit {bit} {where}"
    return f"{what} burst x{flips} from bit {bit} {where}"


class InjectionRun:
    """Executes one injection experiment to an :class:`InjectionResult`."""

    def __init__(self, spec: RunSpec):
        self.spec = spec
        self.model = get_model(spec.fault_model)
        self.collector = CrashDataCollector()
        config = MachineConfig(
            seed=spec.seed,
            dump_loss_probability=spec.dump_loss_probability,
            exec_mode=spec.exec_mode)
        checkpoint = spec.checkpoint
        if checkpoint is not None:
            # time-travel dispatch: fork the snapshot (applying the
            # per-experiment config exactly as the from-boot fork
            # does) and restore the driver-side state beside it
            self.machine = checkpoint.machine.fork(
                config=config, collector=self.collector.receive)
            # fork() pets the watchdog at fork-time cycles; the clean
            # run's last pet is part of the replayed state (hang
            # detection timestamps feed crash messages)
            self.machine.watchdog._last_pet = checkpoint.last_pet
            programs = clone_programs(checkpoint.programs)
        else:
            self.machine = spec.base_machine.fork(
                config=config, collector=self.collector.receive)
            programs = clone_programs(spec.base_programs)
        self.driver = UnixBenchDriver(
            self.machine, seed=spec.seed, programs=programs)
        if checkpoint is not None:
            self.driver.completed_ops = checkpoint.completed_ops
            self.driver._ops_since_tick = checkpoint.ops_since_tick
            self.driver._rounds = checkpoint.rounds
        self.activated = False
        self.activation_cycles: Optional[int] = None
        self.activation_instret: Optional[int] = None

    # -- installation ---------------------------------------------------------

    def _install(self) -> None:
        kind = self.spec.kind
        if kind is CampaignKind.CODE:
            self._install_code(self.spec.target)
        elif kind in (CampaignKind.STACK, CampaignKind.DATA):
            self._install_memory(self.spec.target)
        else:
            self._install_register(self.spec.target)

    def _memory_region(self, target) -> Tuple[int, int]:
        """Byte range enclosing *target* — the row a burst may span."""
        machine = self.machine
        if isinstance(target, StackTarget):
            base = machine.tasks[target.pid].stack_base
            return (base, base + KSTACK_SIZE)
        image = machine.image
        if image.data_base <= target.addr < image.data_end:
            return (image.data_base, image.data_end)
        heap_end = image.heap_base + len(image.heap_bytes)
        if image.heap_bytes and image.heap_base <= target.addr < heap_end:
            return (image.heap_base, heap_end)
        return (target.addr, target.addr + 1)

    def _arm_retriggers(self, plan: FaultPlan,
                        apply_flips: Callable[[], None],
                        label: str) -> None:
        """Post-trigger arming hook for intermittent models.

        The machine holds one pending action, so the schedule is a
        chain: each firing re-applies the flips and schedules the next
        firing relative to its own retire count.  Scheduling is always
        relative to the fire-time ``instret``, which is identical under
        checkpoint dispatch on or off and in both exec modes.
        """
        if plan.retriggers <= 0:
            return
        machine = self.machine
        remaining = [plan.retriggers]

        def fire() -> None:
            apply_flips()
            remaining[0] -= 1
            if machine.trace is not None:
                machine.trace.on_inject(
                    machine, f"{label} retrigger "
                    f"({remaining[0]} remaining)")
            if remaining[0] > 0:
                machine.schedule_action(
                    machine.cpu.instret + plan.retrigger_period, fire)

        machine.schedule_action(
            machine.cpu.instret + plan.retrigger_period, fire)

    def _install_code(self, target: CodeTarget) -> None:
        machine = self.machine
        debug = machine.cpu.debug
        debug.set_instruction_breakpoint(target.addr)
        plan = self.model.code_plan(target.addr, target.bit,
                                    target.insn_len, self.spec.seed)

        def apply_flips() -> None:
            for addr, bit in plan.flips:
                machine.flip_memory_bit(addr, bit)

        def flip() -> None:
            apply_flips()
            if machine.trace is not None:
                machine.trace.on_inject(
                    machine, _injected(
                        "code", len(plan.flips), target.bit,
                        f"at {target.addr:#010x} ({target.function})"),
                    addr=plan.flips[0][0])
            self._arm_retriggers(plan, apply_flips, "code")

        def on_hit(hit) -> None:
            self.activated = True
            self.activation_cycles = machine.cpu.cycles
            self.activation_instret = machine.cpu.instret
            if machine.trace is not None:
                machine.trace.on_activate(
                    machine, f"breakpoint hit in {target.function}",
                    addr=target.addr)
            if machine.arch == "x86":
                # DR breakpoints report *before* execution: the flipped
                # bytes are what executes right now
                flip()
            else:
                # the G4's IABR reports on instruction *completion*:
                # this execution uses the original bytes, and the
                # corrupted instruction takes effect at the next fetch
                # of that address — often the function's next
                # invocation, which is what stretches G4 code-error
                # latencies (paper Figure 16 C)
                machine.schedule_action(machine.cpu.instret + 1, flip)

        debug.on_breakpoint = on_hit

    def _install_memory(self, target) -> None:
        machine = self.machine
        debug = machine.cpu.debug
        region_lo, region_hi = self._memory_region(target)
        plan = self.model.memory_plan(target.addr, target.bit,
                                      self.spec.seed,
                                      region_lo, region_hi)
        span = plan_span(plan)
        assert span is not None, "memory plan with no flips"

        def apply_flips() -> None:
            for addr, bit in plan.flips:
                machine.flip_memory_bit(addr, bit)

        def on_access(hit) -> None:
            if self.activated:
                return
            self.activated = True
            self.activation_cycles = machine.cpu.cycles
            self.activation_instret = machine.cpu.instret
            if machine.trace is not None:
                machine.trace.on_activate(
                    machine, f"{hit.kind.value} touched the error",
                    addr=target.addr)
            if hit.kind.value == "write":
                # the write clobbered the error: re-inject into the
                # fresh value (paper Section 3.3)
                apply_flips()
            debug.clear_watchpoint(hit.watchpoint)

        def inject() -> None:
            apply_flips()
            if machine.trace is not None:
                machine.trace.on_inject(
                    machine, _injected("memory", len(plan.flips),
                                       target.bit, f"at {target.addr:#010x}"),
                    addr=target.addr)
            debug.set_watchpoint(span[0], length=span[1] - span[0])
            debug.on_watchpoint = on_access
            self._arm_retriggers(plan, apply_flips, "memory")

        machine.schedule_action(target.at_instret, inject)

    def _install_register(self, target: RegisterTarget) -> None:
        machine = self.machine
        cpu = machine.cpu
        # bursts clamp at the architectural width; the clamp never
        # excludes the target's own bit (legacy behavior flipped it
        # unconditionally within the 32-bit value)
        width = max(register_width(machine.arch, target.name),
                    target.bit + 1)
        plan = self.model.register_plan(target.bit, width,
                                        self.spec.seed)
        mask = flip_mask(plan.register_bits)

        def apply_flips() -> None:
            if machine.arch == "x86":
                value = getattr(cpu, target.attr)
                apply_x86_register_flip(
                    machine, target.attr,
                    (value ^ mask) & 0xFFFFFFFF)
            elif target.spr == -1:
                apply_ppc_msr_flip(machine,
                                   (cpu.msr ^ mask) & 0xFFFFFFFF)
            else:
                cpu.set_spr(target.spr,
                            (cpu.get_spr(target.spr) ^ mask)
                            & 0xFFFFFFFF)

        def inject() -> None:
            # activation is not observable for system registers; the
            # paper measures latency from the injection instant
            self.activation_cycles = cpu.cycles
            self.activation_instret = cpu.instret
            if machine.trace is not None:
                machine.trace.on_inject(
                    machine, _injected("register", len(plan.register_bits),
                                       target.bit, f"in {target.name}"),
                    reg=target.name)
            apply_flips()
            if self.spec.absorbing and machine.trace is None:
                # the rest of the run is the clean run's tail, with
                # the flip (and any retrigger) left unread in the
                # register
                raise _Absorbed
            self._arm_retriggers(plan, apply_flips, "register")

        machine.schedule_action(target.at_instret, inject)

    # -- execution -----------------------------------------------------------

    def execute(self, install: bool = True) -> InjectionResult:
        spec = self.spec
        if install:
            self._install()
        base = dict(arch=self.machine.arch, kind=spec.kind,
                    target=spec.target)
        try:
            events = self.driver.run(spec.ops).fsv_events
        except _Absorbed:
            # the clean window has no fail-silence violation (else the
            # context's absorbing set is empty), nor has its tail
            events = []
        except KernelCrash as crash:
            report = crash.report
            known = report.dump_delivered and not report.dump_failed
            cause = classify_crash(report)
            activation = self.activation_cycles
            activation_instret = self.activation_instret
            if activation is None:
                activation = report.cycles_at_crash
                activation_instret = report.instret_at_crash
            return InjectionResult(
                outcome=Outcome.CRASH_KNOWN if known
                else Outcome.CRASH_UNKNOWN,
                cause=cause if known else None,
                activation_cycles=activation,
                crash_cycles=report.cycles_at_crash,
                activation_instret=activation_instret,
                crash_instret=report.instret_at_crash,
                detail=report.detail,
                function=report.function,
                subsystem=report.subsystem,
                **base)
        except HangDetected as hang:
            return InjectionResult(
                outcome=Outcome.HANG,
                activation_cycles=self.activation_cycles,
                activation_instret=self.activation_instret,
                detail=str(hang),
                **base)
        if spec.kind is CampaignKind.REGISTER:
            # activation unobservable: completing cleanly means the
            # flip was absorbed
            outcome = Outcome.FAIL_SILENCE_VIOLATION \
                if events else Outcome.NOT_MANIFESTED
        elif not self.activated:
            outcome = Outcome.NOT_ACTIVATED
        elif events:
            outcome = Outcome.FAIL_SILENCE_VIOLATION
        else:
            outcome = Outcome.NOT_MANIFESTED
        return InjectionResult(
            outcome=outcome,
            activation_cycles=self.activation_cycles,
            activation_instret=self.activation_instret,
            detail="; ".join(
                f"{event.program}#{event.op_index}: "
                f"expected {event.expected}, got {event.actual}"
                for event in events[:3]),
            **base)
