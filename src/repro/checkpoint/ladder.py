"""Snapshot ladder over the clean workload window.

Every injection experiment replays the clean run from the fork point
(``boot_instret``) up to its trigger instant before anything
campaign-specific happens.  That prefix is **identical across the whole
campaign**, so it is paid for once here: one block-mode clean run of
the window, forked off the context's base machine, captures K COW
machine forks — plus the driver/program state beside them — at evenly
spaced instret points along the window, and the dispatcher
(:meth:`Campaign.spec_for` + :class:`~repro.injection.injector
.InjectionRun`) starts each experiment from the latest checkpoint at or
before its trigger, fast-forwarding only the residue.

Why the dispatched run is bit-identical to the from-boot run:

* **The pre-trigger window is seed-invariant.**  Per-experiment state
  that depends on ``RunSpec.seed`` is consulted only *after* the
  trigger can have fired: ``Machine.rng`` and the dump-loss channel RNG
  are seeded lazily and drawn from only while a crash dump is being
  delivered, and the benchmark programs carry their own RNGs cloned
  from the *mix* seed (fixed per context), not the experiment seed.
  :func:`build_ladder` **asserts** this after the capture run — a lazy
  RNG that got materialized, or a packet that got transmitted, fails
  the build loudly instead of silently corrupting every dispatched
  experiment.
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
* **Block/step mode mixing is safe.**  The capture run executes under
  the context's default (block) core; the compiled-block core is
  bit-identical to the single-step core including cycle counts
  (PR 6's differential harness), so a step-mode experiment dispatched
  from a block-captured snapshot sees the same machine state it would
  have stepped to itself.

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
from repro.machine.machine import Machine
from repro.workload.driver import UnixBenchDriver
from repro.workload.programs import BenchProgram, clone_programs

#: default rungs per ladder (``CampaignConfig.checkpoints``); the
#: capture run costs one clean window, so more rungs are nearly free —
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
    #: the capture run's compiled blocks; every rung and the context's
    #: base machine adopt them, sound because the capture never
    #: changes kernel text (asserted) and adopted blocks re-validate
    #: on first use
    blocks: Optional[BlockCache] = None

    def best_for(self, trigger_instret: int,
                 inclusive: bool = False) -> Optional[Checkpoint]:
        """Latest rung usable for a trigger at *trigger_instret*.

        *inclusive* admits a rung exactly at the trigger (sound for
        code triggers, see the module docstring); otherwise the rung
        must lie strictly below.  ``None`` when no rung qualifies —
        the experiment then runs from boot as before.
        """
        keys = [checkpoint.instret for checkpoint in self.checkpoints]
        position = (bisect.bisect_right(keys, trigger_instret)
                    if inclusive
                    else bisect.bisect_left(keys, trigger_instret))
        if position == 0:
            return None
        return self.checkpoints[position - 1]


def build_ladder(context, count: int) -> CheckpointLadder:
    """Capture *count* snapshots along *context*'s clean window.

    Runs the clean workload once more (forked off the context's base
    machine, so boot is not repaid), capturing a COW fork at the first
    scheduling boundary at or past each of *count* evenly spaced
    instret thresholds.  Raises :class:`LadderInvariantError` if the
    capture run consumed any per-machine RNG or transmitted a packet —
    the preconditions for dispatch being bit-identical — if it failed
    to retrace the clean-run probe exactly, or if it changed kernel
    text (see ``CheckpointLadder.blocks``).
    """
    if count <= 0:
        raise ValueError(f"checkpoint count must be positive, "
                         f"got {count}")
    probe = context.probe
    boot, total = probe.boot_instret, probe.total_instret
    span = total - boot
    thresholds = [boot + (index * span) // (count + 1)
                  for index in range(1, count + 1)]

    machine = context.base_machine.fork()
    driver = UnixBenchDriver(machine, seed=context.seed,
                             programs=clone_programs(
                                 context.base_programs))
    checkpoints: List[Checkpoint] = []
    cursor = 0

    def capture() -> None:
        nonlocal cursor
        if cursor >= len(thresholds):
            return
        instret = machine.cpu.instret
        if instret < thresholds[cursor]:
            return
        # several thresholds can fall inside one long scheduling round;
        # they collapse onto this single boundary (one rung, not
        # duplicates at the same instret)
        while cursor < len(thresholds) and \
                thresholds[cursor] <= instret:
            cursor += 1
        checkpoints.append(Checkpoint(
            instret=instret,
            machine=machine.fork(),
            programs=clone_programs(driver.programs),
            completed_ops=driver.completed_ops,
            ops_since_tick=driver._ops_since_tick,
            rounds=driver._rounds,
            last_pet=machine.watchdog._last_pet))

    driver.run(context.ops, boundary=capture)

    # seed-invariance postconditions (see module docstring): the clean
    # window must not have consumed per-machine randomness or sent
    # packets, and must have retraced the probe's run exactly
    if machine._rng is not None:
        raise LadderInvariantError(
            "capture run materialized Machine.rng: the pre-trigger "
            "window is not seed-invariant")
    if machine.nic.channel._rng is not None or machine.nic.tx_count:
        raise LadderInvariantError(
            "capture run touched the crash-dump channel: the "
            "pre-trigger window is not seed-invariant")
    if machine.cpu.instret != total:
        raise LadderInvariantError(
            f"capture run retired {machine.cpu.instret} instructions; "
            f"the clean-run probe retired {total}")
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
    # blocks the rest of the window compiled too (sound for the same
    # reason the base machine's adoption is: no kernel-text write)
    blocks = machine.cpu._block_cache
    for checkpoint in checkpoints:
        checkpoint.machine.cpu._block_cache.inherit(blocks)

    return CheckpointLadder(
        arch=context.arch, seed=context.seed, ops=context.ops,
        boot_instret=boot, total_instret=total,
        checkpoints=checkpoints, blocks=blocks)
