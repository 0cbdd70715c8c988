"""Campaign controller (step 3 of the paper's Figure 2, plus the loop).

A campaign pre-generates its targets, screens the ones the clean-run
probe proves can never activate (no reboot needed for those — exactly
the paper's "Error Not Activated: proceed to the next injection without
rebooting"), and fully simulates the rest, rebooting (forking a fresh
machine) between experiments.

``Campaign.run(workers=N)`` shards the pre-generated target list across
worker processes (see :mod:`repro.injection.parallel`) — NFTAPE's
multiple-target-node trick.  The parallel path is bit-identical to the
serial one: per-target seeds derive from the *global* target index.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.checkpoint.ladder import (
    DEFAULT_CHECKPOINTS, BoundarySnapshots, CheckpointLadder, build_ladder,
)
from repro.faults import (
    DEFAULT_MODEL, available_models, get_model, model_applies,
)
from repro.injection.collector import CrashDataCollector
from repro.injection.injector import InjectionRun, RunSpec
from repro.injection.outcomes import (
    CampaignKind, InjectionResult, Outcome,
)
from repro.injection.targets import TargetGenerator
from repro.machine.machine import KSTACK_SIZE, Machine, MachineConfig
from repro.machine.register_semantics import ABSORBING
from repro.static.effects import insn_effects
from repro.workload.driver import UnixBenchDriver
from repro.workload.probe import CleanRunProbe, probe_clean_run
from repro.workload.profiler import FunctionProfile, profile_kernel
from repro.workload.programs import clone_programs

ARCHES = ("x86", "ppc")

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


@dataclass(frozen=True)
class Knob:
    """How one config field is checked, identified and shown.

    Carried in the field's ``metadata["knob"]``.  Validation, the
    service wire format, store identity, study fan-out and the CLI
    flags all read it from there, so each fact is stated once.
    """

    help: str
    type: type = int
    low: Optional[float] = None
    high: Optional[float] = None
    #: allowed values, or a callable returning them (called at check
    #: time, so a fault model registered after import is accepted)
    choices: Union[Tuple[str, ...], Callable[[], Tuple[str, ...]],
                   None] = None
    #: the value joins the stored campaign's identity
    #: (:mod:`repro.store.manifest`)
    identity: bool = False
    #: ``applies(value, kind_value)`` is False when *value* means
    #: nothing for a campaign of that kind
    applies: Optional[Callable[[object, str], bool]] = None

    def allowed(self) -> Optional[Tuple[str, ...]]:
        return self.choices() if callable(self.choices) else self.choices

    def check(self, name: str, value):
        """*value* validated (an int given for a float is widened);
        raises ``ValueError`` naming the field."""
        if self.type is float and isinstance(value, int) and \
                not isinstance(value, bool):
            value = float(value)
        if isinstance(value, bool) or not isinstance(value, self.type):
            raise ValueError(
                f"{name} must be "
                f"{_TYPE_NAMES.get(self.type, self.type.__name__)}, "
                f"got {value!r}")
        if self.high is not None and not self.low <= value <= self.high:
            raise ValueError(f"{name} must be in [{self.low}, "
                             f"{self.high}], got {value}")
        if self.low is not None and value < self.low:
            raise ValueError(f"{name} must be >= {self.low}, "
                             f"got {value}")
        allowed = self.allowed()
        if allowed is not None and value not in allowed:
            raise ValueError(
                f"{name}: unknown {name.replace('_', ' ')} {value!r}; "
                f"expected one of {allowed}")
        return value


def knob(help: str, default=MISSING, **spec):
    """A dataclass field described by a :class:`Knob`."""
    return field(default=default, metadata={"knob": Knob(help, **spec)})


@dataclass(kw_only=True)
class CampaignKnobs:
    """The per-campaign knobs: the one table every view derives from.

    ``CampaignConfig`` and ``StudyConfig`` extend it; the service
    protocol, the store manifest, trace replay and the CLI read these
    fields and their :class:`Knob` metadata rather than re-declaring
    them.
    """

    seed: int = knob("campaign seed: targets and per-experiment seeds "
                     "derive from it", 0, identity=True)
    ops: int = knob("monitored workload window (operations)", 48,
                    low=1, identity=True)
    dump_loss_probability: float = knob(
        "probability the crash dump is lost on the network",
        MachineConfig.dump_loss_probability, type=float, low=0.0,
        high=1.0, identity=True)
    exec_mode: str = knob(
        "execution core: 'block' runs compiled superblocks, 'step' is "
        "the plain interpreter; bit-identical results either way",
        MachineConfig.exec_mode, type=str, choices=("step", "block"))
    checkpoints: int = knob(
        "clean-run snapshots to dispatch experiments from (0 disables; "
        "bit-identical results either way)", DEFAULT_CHECKPOINTS, low=0)
    fault_model: str = knob(
        "registered fault model to inject (see `repro faults list`); "
        f"'{DEFAULT_MODEL}' is the paper's single-shot single-bit flip",
        DEFAULT_MODEL, type=str, choices=available_models,
        identity=True, applies=model_applies)

    def __post_init__(self):
        for spec_field in fields(self):
            spec = spec_field.metadata.get("knob")
            if spec is not None:
                setattr(self, spec_field.name, spec.check(
                    spec_field.name, getattr(self, spec_field.name)))

    def knob_values(self) -> Dict[str, object]:
        """This config's campaign knobs, in table order."""
        return {spec_field.name: getattr(self, spec_field.name)
                for spec_field in KNOBS}


#: the knob table: one dataclass field (default + :class:`Knob`) each
KNOBS = fields(CampaignKnobs)

#: knobs that join stored campaign identity; ``exec_mode`` and
#: ``checkpoints`` are pure performance knobs with bit-identical results
IDENTITY_KNOBS = tuple(spec_field.name for spec_field in KNOBS
                       if spec_field.metadata["knob"].identity)


@dataclass(kw_only=True)
class CampaignConfig(CampaignKnobs):
    arch: str = knob("target platform", type=str, choices=ARCHES)
    kind: CampaignKind = knob("campaign target class", type=CampaignKind)
    count: int = knob("number of injections", low=1)

    def __post_init__(self):
        super().__post_init__()
        for spec_field in KNOBS:
            applies = spec_field.metadata["knob"].applies
            value = getattr(self, spec_field.name)
            if applies is not None and not applies(value, self.kind.value):
                raise ValueError(
                    f"{spec_field.name}={value!r} does not apply to "
                    f"{self.kind.value} campaigns")


@dataclass
class CampaignResult:
    config: CampaignConfig
    results: List[InjectionResult] = field(default_factory=list)
    #: ShardFailure records from the parallel engine (empty on the
    #: serial path; a recovered failure means its shard was retried
    #: serially and its results are present in ``results`` as usual)
    failures: list = field(default_factory=list)

    @property
    def injected(self) -> int:
        return len(self.results)

    def count_outcome(self, outcome: Outcome) -> int:
        return sum(1 for result in self.results
                   if result.outcome is outcome)

    @property
    def activated(self) -> int:
        return sum(1 for result in self.results
                   if result.outcome is not Outcome.NOT_ACTIVATED)


class CampaignContext:
    """Shared per-(arch, seed, ops) expensive state.

    One observed clean pass (probe + profile) simulates the window
    once: its start is forked into the base machine, its scheduling
    boundaries into candidate rungs from which the default ladder is
    picked, and the blocks it compiles and the instructions it decodes
    are adopted by the base machine and every rung.  Every injection
    forks from the base machine or a rung.
    """

    _cache: Dict[tuple, "CampaignContext"] = {}

    def __init__(self, arch: str, seed: int, ops: int):
        self.arch = arch
        self.seed = seed
        self.ops = ops
        #: campaign-level crash-record aggregate; every run folds its
        #: per-experiment collector in here, and ``Campaign.run``
        #: clears it so records never leak between campaigns sharing
        #: a cached context (e.g. consecutive ``Study.run`` campaigns)
        self.collector = CrashDataCollector()
        self.probe: CleanRunProbe = probe_clean_run(
            arch, seed=seed, ops=ops, at_window=self._open_window)
        self.profile: FunctionProfile = profile_kernel(self.probe)
        clean_pass = self._boundaries.machine.cpu
        self._default_ladder = self._boundaries.ladder(
            self, DEFAULT_CHECKPOINTS)
        del self._boundaries          # the unpicked snapshots go too
        # sound for the reason the rungs' adoption is (see
        # ``BoundarySnapshots.ladder``): the window wrote no kernel
        # text.  Without the decodes, an experiment forked here would
        # decode afresh every window instruction its blocks promote.
        self.base_machine.cpu.inherit(clean_pass)
        #: ladders of other rung counts, replayed on first use and
        #: shared by every campaign
        self._ladders: Dict[int, CheckpointLadder] = {}

    def _open_window(self, machine: Machine,
                     driver: UnixBenchDriver) -> BoundarySnapshots:
        """The probe's window start becomes the base machine; each
        scheduling boundary after it, a candidate rung."""
        self.base_machine = machine.fork(
            config=MachineConfig(seed=self.seed))
        self.base_programs = clone_programs(driver.programs)
        self._boundaries = BoundarySnapshots(
            machine, driver, self.base_machine.config)
        return self._boundaries

    @classmethod
    def get(cls, arch: str, seed: int = CampaignKnobs.seed,
            ops: int = CampaignKnobs.ops) -> "CampaignContext":
        key = (arch, seed, ops)
        if key not in cls._cache:
            cls._cache[key] = cls(arch, seed, ops)
        return cls._cache[key]

    @classmethod
    def clear_cache(cls) -> None:
        """Drop every cached context.

        The cache is process-global and never invalidated on its own;
        forked workers call this only when the inherited cache lacks
        their key (``parallel._worker_init``), and the test suite calls
        it so session fixtures can't leak between parametrized arches.
        """
        cls._cache.clear()

    def ladder(self, count: int) -> Optional[CheckpointLadder]:
        """The *count*-rung checkpoint ladder.

        The default count's comes from the clean pass; any other count
        is replayed on first use and cached.  The parallel engine calls
        this in the parent before spawning workers, so the snapshots
        travel to every worker through the same fork-inheritance path
        as the rest of the context.
        """
        if count <= 0:
            return None
        if count == DEFAULT_CHECKPOINTS:
            return self._default_ladder
        if count not in self._ladders:
            self._ladders[count] = build_ladder(self, count)
        return self._ladders[count]

    @property
    def run_window(self) -> tuple:
        return (self.probe.boot_instret, self.probe.total_instret)

    @property
    def absorbing_registers(self) -> FrozenSet[str]:
        """Registers whose flips end their run at the injection instant.

        The arch's :data:`~repro.machine.register_semantics.ABSORBING`
        table, when the clean window has no fail-silence violation and
        executes no instruction whose effects carry ``system`` (the
        only bodies that read supervisor registers); else empty.  With
        such a register R flipped, every step of the injected run reads
        the same values as the clean run's step, so (by induction over
        the steps) the run equals the clean tail everywhere but R, and
        completes as ``NOT_MANIFESTED``.
        """
        if self.probe.fsv_clean or self._window_runs_system_code:
            return frozenset()
        return ABSORBING[self.arch]

    @cached_property
    def _window_runs_system_code(self) -> bool:
        """Whether the clean window executes an instruction whose
        effects carry ``system``; scanned on the first register
        experiment, never during set-up."""
        cpu = self.base_machine.cpu
        return any(insn_effects(cpu.decode_raw(addr), addr).system
                   for addr in self.probe.first_executed)


class Campaign:
    """One injection campaign (one row of Table 5 / Table 6)."""

    def __init__(self, config: CampaignConfig,
                 context: Optional[CampaignContext] = None):
        self.config = config
        self.context = context if context is not None else \
            CampaignContext.get(config.arch, config.seed, config.ops)

    # -- target generation -----------------------------------------------------

    def generate_targets(self) -> list:
        context = self.context
        generator = TargetGenerator(context.base_machine.image,
                                    profile=context.profile,
                                    seed=self.config.seed ^ 0xBADC0DE)
        window = context.run_window
        kind = self.config.kind
        model = get_model(self.config.fault_model)
        if kind is CampaignKind.CODE:
            return generator.code_targets(self.config.count)
        if kind is CampaignKind.STACK:
            machine = context.base_machine
            allocations = {pid: (task.stack_base,
                                 task.stack_base + KSTACK_SIZE)
                           for pid, task in machine.tasks.items()}
            # the paper injects into the stack of a randomly chosen
            # kernel process: sample the measured *runtime* stack
            ranges = context.probe.stack_runtime_ranges(allocations)
            return generator.stack_targets(self.config.count,
                                           list(machine.tasks),
                                           ranges, window)
        if kind is CampaignKind.DATA:
            pool = None
            if model.spec.targeted:
                pool = model.target_pool(context.base_machine.image)
            return generator.data_targets(self.config.count, window,
                                          pool=pool)
        return generator.register_targets(self.config.count,
                                          self.config.arch, window)

    # -- screening ---------------------------------------------------------------

    def _screen_not_activated(self, target, index: int = 0) -> bool:
        """True when the clean-run probe proves no activation.

        *index* is the target's global position — multi-bit models
        need it because the watchpoint span (and therefore the byte
        range the screen must vouch for) derives from the
        per-experiment seed.  Single-bit models ignore it.
        """
        probe = self.context.probe
        kind = self.config.kind
        if kind is CampaignKind.CODE:
            # window-only: an address fetched during boot but never by
            # the monitored workload cannot trip a breakpoint armed
            # after the fork point (the injected run starts post-boot)
            return probe.first_executed_instret(target.addr) is None
        if kind in (CampaignKind.STACK, CampaignKind.DATA):
            model = get_model(self.config.fault_model)
            length = model.screen_span_bytes(
                target.bit, self.config.seed + index * 7919)
            return probe.first_access_after(target.at_instret,
                                            target.addr,
                                            length=length) is None
        return False                      # registers: no screening

    # -- checkpoint selection ----------------------------------------------------

    def _trigger_instret(self, target):
        """(trigger instret, inclusive) for checkpoint selection.

        Stack/data/register triggers are the generated injection
        instant; a checkpoint must lie strictly below it (the pending
        action can fire mid-call before a boundary at the same count).
        Code triggers are the probe's first window fetch of the target
        address; a boundary observing that instret still precedes the
        fetch, so equality is admissible.  ``(None, False)`` means no
        checkpoint applies (e.g. a screened code address).
        """
        if self.config.kind is CampaignKind.CODE:
            return (self.context.probe.first_executed_instret(
                target.addr), True)
        return (target.at_instret, False)

    # -- the loop -----------------------------------------------------------------

    def spec_for(self, index: int, target) -> RunSpec:
        """Build the :class:`RunSpec` for one pre-generated target.

        The per-experiment seed derives from the target's **global**
        index (``seed + index * 7919``); this is the single place that
        derivation lives, so the serial loop, any sharding, and trace
        replay (:mod:`repro.trace.replay`) all agree on it.

        Checkpoint selection also lives here: with ``checkpoints > 0``
        the spec carries the latest clean-run snapshot at or before
        the target's trigger instant, and the injector fast-forwards
        only the residue (bit-identical, see :mod:`repro.checkpoint`).
        A register target the context's clean window never reads is
        marked ``absorbing``.
        """
        config = self.config
        checkpoint = None
        if config.checkpoints > 0:
            trigger, inclusive = self._trigger_instret(target)
            if trigger is not None:
                checkpoint = self.context.ladder(
                    config.checkpoints).best_for(trigger,
                                                 inclusive=inclusive)
        return RunSpec(
            base_machine=self.context.base_machine,
            base_programs=self.context.base_programs,
            kind=config.kind,
            target=target,
            ops=config.ops,
            seed=config.seed + index * 7919,
            dump_loss_probability=config.dump_loss_probability,
            exec_mode=config.exec_mode,
            fault_model=config.fault_model,
            checkpoint=checkpoint,
            absorbing=config.kind is CampaignKind.REGISTER
            and target.name in self.context.absorbing_registers)

    def run_target(self, index: int, target) -> InjectionResult:
        """Run one pre-generated target.

        *index* is the target's **global** position in the campaign's
        pre-generated list: the per-experiment seed derives from it, so
        any execution order (serial loop, any sharding) produces the
        same result for the same target.
        """
        config = self.config
        if self._screen_not_activated(target, index):
            return InjectionResult(
                arch=config.arch, kind=config.kind, target=target,
                outcome=Outcome.NOT_ACTIVATED, screened=True)
        run = InjectionRun(self.spec_for(index, target))
        result = run.execute()
        self.context.collector.absorb(run.collector)
        return result

    def run(self, workers: int = 1, store=None, resume: bool = False,
            progress_callback=None) -> CampaignResult:
        """Run the campaign.

        With *store* (a :class:`repro.store.CampaignStore` or a
        directory path) every result is journaled as it completes and
        already-journaled global indices are skipped — a killed run
        resumes bit-identically, and a raised ``count`` tops the
        stored campaign up.  *resume* must be set to continue a
        campaign that already has journaled results.

        *progress_callback* is called as ``(done, total, batch)``
        where *batch* is the list of ``(global_index, result)`` pairs
        merged since the previous call — one pair per call on the
        serial path, one shard per call on the parallel path, and the
        already-journaled prefix as the first batch on a resume.  On
        store-backed runs every batch is journaled **before** the
        callback sees it, so a callback that raises (e.g. a service
        cancelling the job) aborts the run without losing work.
        """
        self.context.collector.clear()   # per-campaign reset
        if store is not None:
            from repro.store.resume import run_with_store
            out = run_with_store(self, store, resume=resume,
                                 workers=workers,
                                 progress_callback=progress_callback)
        elif workers > 1:
            from repro.injection.parallel import run_parallel
            out = run_parallel(self, workers,
                               progress_callback=progress_callback)
        else:
            out = CampaignResult(config=self.config)
            targets = self.generate_targets()
            for index, target in enumerate(targets):
                result = self.run_target(index, target)
                out.results.append(result)
                if progress_callback is not None:
                    progress_callback(index + 1, len(targets),
                                      [(index, result)])
        return out


def run_campaign(arch: str, kind: CampaignKind, count: int,
                 workers: int = 1, store=None, resume: bool = False,
                 progress_callback=None, **knobs) -> CampaignResult:
    """One-call convenience wrapper; *knobs* are ``CampaignKnobs``
    fields."""
    config = CampaignConfig(arch=arch, kind=kind, count=count, **knobs)
    return Campaign(config).run(workers=workers, store=store,
                                resume=resume,
                                progress_callback=progress_callback)
