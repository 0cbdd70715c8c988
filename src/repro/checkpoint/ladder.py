"""Snapshot ladder over the clean workload window.

Every injection experiment replays the clean run from the fork point
(``boot_instret``) up to its trigger instant before anything
campaign-specific happens.  That prefix is **identical across the whole
campaign**, so it is paid for once here: one clean run of the window
captures K COW machine forks — plus the driver/program state beside
them — at evenly spaced instret points along the window, and the
dispatcher (:meth:`Campaign.spec_for` + :class:`~repro.injection
.injector.InjectionRun`) starts each experiment from the latest
checkpoint at or before its trigger, fast-forwarding only the residue.

The default ladder's capture run is the context's observed clean pass
(:func:`repro.workload.probe.probe_clean_run`): a
:class:`BoundarySnapshots` hook forks a candidate at every scheduling
boundary, and the rungs are picked once the pass has ended and the
window's length is known.  Another rung count replays the window from
the base machine through the same hook (:func:`build_ladder`).

Why the dispatched run is bit-identical to the from-boot run:

* **The pre-trigger window is seed-invariant.**  Per-experiment state
  that depends on ``RunSpec.seed`` is consulted only *after* the
  trigger can have fired: ``Machine.rng`` and the dump-loss channel RNG
  are seeded lazily and drawn from only while a crash dump is being
  delivered, and the benchmark programs carry their own RNGs cloned
  from the *mix* seed (fixed per context), not the experiment seed.
  :meth:`BoundarySnapshots.ladder` **asserts** this after the capture
  run — a lazy RNG that got materialized, or a packet that got
  transmitted, fails the build loudly instead of silently corrupting
  every dispatched experiment.
* **Snapshots sit at scheduling-round boundaries** (the driver's
  ``boundary`` hook), never inside a kernel call, so no Python-level
  call stack needs capturing: machine + driver counters are the whole
  state.  Captures never perturb the capture run — a COW fork only
  reads pages, and program clones resume RNG streams without touching
  the originals.
* **Per-experiment config applies at dispatch.**  The experiment forks
  the checkpoint machine with its own ``MachineConfig`` (seed,
  dump-loss, exec mode), exactly as the from-boot path forks the base
  machine — the checkpoint machine is just further along the same
  deterministic execution.
* **Block/step mode mixing is safe.**  The capture run executes the
  window under the compiled-block core, which is bit-identical to the
  single-step core including cycle counts (the differential harness
  in ``tests/test_block_equiv.py``), so a step-mode experiment
  dispatched from a block-captured snapshot sees the same machine
  state it would have stepped to itself.

Selection strictness: stack/data/register triggers (``at_instret``)
require a checkpoint **strictly below** the trigger — the clean run's
pending-action check could fire mid-call before a boundary with the
same instret, so equality is ambiguous.  Code triggers (the probe's
first window fetch of the target address, recorded at pre-retirement
instret f) accept equality: a boundary observing ``instret == f``
necessarily precedes the fetch that retires instruction f+1.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.compile import BlockCache
from repro.machine.machine import Machine, MachineConfig
from repro.workload.driver import UnixBenchDriver
from repro.workload.programs import BenchProgram, clone_programs

#: default rungs per ladder (``CampaignConfig.checkpoints``); the
#: context's clean pass captures them, so they cost no extra window —
#: the ceiling is resident memory for K forked machines
DEFAULT_CHECKPOINTS = 8


class LadderInvariantError(RuntimeError):
    """The capture run violated a seed-invariance precondition."""


@dataclass
class Checkpoint:
    """One rung: a clean machine frozen at a scheduling boundary."""

    #: retired instructions at capture (a driver-round boundary)
    instret: int
    #: clean COW fork, never executed past the boundary; experiments
    #: fork *it* again with their per-experiment config
    machine: Machine
    #: program states at the boundary (cloned again per experiment)
    programs: Dict[int, BenchProgram]
    #: driver counters at the boundary
    completed_ops: int
    ops_since_tick: int
    rounds: int
    #: the capture run's watchdog ``_last_pet`` — ``Machine.fork`` pets
    #: at fork-time cycles, which a dispatched run must undo to keep
    #: hang detection (and the cycle counts in its messages) identical
    last_pet: int


@dataclass
class CheckpointLadder:
    """All rungs for one (arch, seed, ops) context, ascending instret."""

    arch: str
    seed: int
    ops: int
    boot_instret: int
    total_instret: int
    checkpoints: List[Checkpoint]
    #: the capture run's compiled blocks; every rung (and, for the
    #: default ladder, the context's base machine) adopts them, sound
    #: because the capture never changes kernel text (asserted) and
    #: adopted blocks re-validate on first use
    blocks: Optional[BlockCache] = None

    def best_for(self, trigger_instret: int,
                 inclusive: bool = False) -> Optional[Checkpoint]:
        """Latest rung usable for a trigger at *trigger_instret*.

        *inclusive* admits a rung exactly at the trigger (sound for
        code triggers, see the module docstring); otherwise the rung
        must lie strictly below.  ``None`` when no rung qualifies —
        the experiment then runs from the context's base machine, at
        the window's start.
        """
        keys = [checkpoint.instret for checkpoint in self.checkpoints]
        position = (bisect.bisect_right(keys, trigger_instret)
                    if inclusive
                    else bisect.bisect_left(keys, trigger_instret))
        if position == 0:
            return None
        return self.checkpoints[position - 1]


class BoundarySnapshots:
    """A window run's ``boundary`` hook: forks a candidate rung at every
    scheduling boundary.

    Which boundaries become rungs depends on the window's length, known
    only once the run ends; :meth:`pick` then chooses.  Forks take
    *config*, the base machine's.
    """

    def __init__(self, machine: Machine, driver: UnixBenchDriver,
                 config: MachineConfig) -> None:
        self.machine = machine
        self.driver = driver
        self.config = config
        self.snapshots: List[Checkpoint] = []

    def __call__(self) -> None:
        machine, driver = self.machine, self.driver
        self.snapshots.append(Checkpoint(
            instret=machine.cpu.instret,
            machine=machine.fork(config=self.config),
            programs=clone_programs(driver.programs),
            completed_ops=driver.completed_ops,
            ops_since_tick=driver._ops_since_tick,
            rounds=driver._rounds,
            last_pet=machine.watchdog._last_pet))

    def pick(self, boot: int, total: int,
             count: int) -> List[Checkpoint]:
        """The first snapshot at or past each of *count* evenly spaced
        instret thresholds in ``(boot, total)``."""
        span = total - boot
        thresholds = [boot + (index * span) // (count + 1)
                      for index in range(1, count + 1)]
        picked: List[Checkpoint] = []
        cursor = 0
        for snapshot in self.snapshots:
            if cursor >= len(thresholds):
                break
            if snapshot.instret < thresholds[cursor]:
                continue
            # several thresholds can fall inside one long scheduling
            # round; they collapse onto this single boundary (one
            # rung, not duplicates at the same instret)
            while cursor < len(thresholds) and \
                    thresholds[cursor] <= snapshot.instret:
                cursor += 1
            picked.append(snapshot)
        return picked

    def ladder(self, context, count: int) -> CheckpointLadder:
        """*context*'s *count*-rung ladder from this finished run.

        Raises :class:`LadderInvariantError` if the run consumed any
        per-machine RNG or transmitted a packet — the preconditions for
        dispatch being bit-identical — or if it changed kernel text
        (see ``CheckpointLadder.blocks``).
        """
        probe = context.probe
        checkpoints = self.pick(probe.boot_instret, probe.total_instret,
                                count)
        machine = self.machine
        # seed-invariance postconditions (see module docstring): the
        # clean window must not have consumed per-machine randomness
        # or sent packets
        if machine._rng is not None:
            raise LadderInvariantError(
                "capture run materialized Machine.rng: the pre-trigger "
                "window is not seed-invariant")
        if machine.nic.channel._rng is not None or machine.nic.tx_count:
            raise LadderInvariantError(
                "capture run touched the crash-dump channel: the "
                "pre-trigger window is not seed-invariant")
        image = machine.image
        if machine.cpu.mem.read(image.text_base, len(image.text_bytes)) \
                != image.text_bytes:
            raise LadderInvariantError(
                "capture run wrote kernel text: its compiled blocks are "
                "not valid on the base machine or the rungs")
        for checkpoint in checkpoints:
            if checkpoint.machine._rng is not None:
                raise LadderInvariantError(
                    "captured machine carries a materialized RNG")

        # each rung was forked partway through the window; give it the
        # blocks the rest of the window compiled too (sound for the
        # same reason the base machine's adoption is: no kernel-text
        # write)
        blocks = machine.cpu._block_cache
        for checkpoint in checkpoints:
            checkpoint.machine.cpu._block_cache.inherit(blocks)

        return CheckpointLadder(
            arch=context.arch, seed=context.seed, ops=context.ops,
            boot_instret=probe.boot_instret,
            total_instret=probe.total_instret,
            checkpoints=checkpoints, blocks=blocks)


def build_ladder(context, count: int) -> CheckpointLadder:
    """Capture *count* snapshots along *context*'s clean window again.

    The default ladder comes from the context's clean pass itself;
    another rung count replays the window, forked off the context's
    base machine (so boot is not repaid, and the base machine's window
    blocks mean nothing compiles), through the same boundary hook and
    the same selection.  Raises :class:`LadderInvariantError` as
    :meth:`BoundarySnapshots.ladder` does, or if the replay failed to
    retrace the clean-run probe exactly.
    """
    if count <= 0:
        raise ValueError(f"checkpoint count must be positive, "
                         f"got {count}")
    machine = context.base_machine.fork()
    driver = UnixBenchDriver(machine, seed=context.seed,
                             programs=clone_programs(
                                 context.base_programs))
    boundaries = BoundarySnapshots(machine, driver, machine.config)
    driver.run(context.ops, boundary=boundaries)
    total = context.probe.total_instret
    if machine.cpu.instret != total:
        raise LadderInvariantError(
            f"capture run retired {machine.cpu.instret} instructions; "
            f"the clean-run probe retired {total}")
    return boundaries.ladder(context, count)
