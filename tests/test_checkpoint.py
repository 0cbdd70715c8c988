"""Checkpoint-ladder dispatch must be invisible to every experiment.

Three layers of proof, mirroring the block-vs-step harness
(``test_block_equiv``):

* **lockstep state equivalence** — for a real campaign target of every
  kind on both arches under both exec modes, the full machine state
  (all registers, flags, instret, cycles, and a memory digest) at the
  target's trigger instant is captured in a checkpoint-dispatched run
  and a from-boot run of the *same spec*, and compared bit-for-bit —
  along with the final state and the clean run's result record;
* **result equivalence** — the same spec executed as a full injection
  experiment (error installed) on both paths yields byte-identical
  serialized results;
* **ladder unit behavior** — rung placement, nearest-rung selection
  strictness, per-context caching, config validation, and the
  seed-invariance postconditions (a poisoned capture run must fail the
  build loudly, not corrupt every dispatched experiment silently).

``test_campaign_digests`` complements this file at campaign scale: all
eight pinned digests match with checkpoints on and off.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

import repro.injection.campaign as campaign_mod
from repro.checkpoint.ladder import (
    DEFAULT_CHECKPOINTS, Checkpoint, CheckpointLadder,
    LadderInvariantError, build_ladder,
)
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.injector import InjectionRun
from repro.injection.outcomes import CampaignKind
from repro.store.codec import result_to_dict

KINDS = (CampaignKind.STACK, CampaignKind.REGISTER, CampaignKind.DATA,
         CampaignKind.CODE)

#: targets generated per kind while hunting for a rung-eligible case —
#: generation is pure math (no simulation), so a big pool is cheap;
#: data targets need one because the access screen rejects most draws
_POOL = {CampaignKind.DATA: 200}


def _context(request, arch):
    return request.getfixturevalue(f"{arch}_context")


# ---------------------------------------------------------------------------
# state snapshots (same shape as test_block_equiv)


def _mem_digest(mem) -> str:
    h = hashlib.sha256()
    for index in sorted(mem._pages):
        h.update(index.to_bytes(4, "little"))
        h.update(mem._pages[index])
    return h.hexdigest()


def _snapshot(arch: str, cpu):
    if arch == "x86":
        return (tuple(cpu.regs), cpu.eflags, cpu.eip, cpu.current_eip,
                cpu.instret, cpu.cycles, cpu.cr0, cpu.cr2,
                cpu.user_mode, cpu.halted, _mem_digest(cpu.mem))
    return (tuple(cpu.gpr), cpu.cr, cpu.xer, cpu.lr, cpu.ctr,
            cpu.pc, cpu.current_pc, cpu.instret, cpu.cycles, cpu.msr,
            tuple(sorted(cpu.spr.items())), _mem_digest(cpu.mem))


# ---------------------------------------------------------------------------
# lockstep equivalence: checkpoint dispatch vs from-boot


def _checkpointed_case(campaign):
    """First unscreened target whose spec selects a checkpoint."""
    for index, target in enumerate(campaign.generate_targets()):
        if campaign._screen_not_activated(target):
            continue
        spec = campaign.spec_for(index, target)
        if spec.checkpoint is not None:
            trigger, _inclusive = campaign._trigger_instret(target)
            return spec, trigger
    raise AssertionError("no target selected a checkpoint rung")


def _run_clean_to_trigger(spec, arch, trigger):
    """Run *spec* without installing the error, snapshotting the full
    machine state at the trigger instant and at completion."""
    run = InjectionRun(spec)
    snaps = {}

    def capture() -> None:
        snaps["trigger"] = _snapshot(arch, run.machine.cpu)

    run.machine.schedule_action(trigger, capture)
    result = run.execute(install=False)
    assert "trigger" in snaps, "capture action never fired"
    return snaps["trigger"], _snapshot(arch, run.machine.cpu), result


@pytest.mark.parametrize("exec_mode", ["block", "step"])
@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_dispatch_state_lockstep(arch, kind, exec_mode, request):
    """Full machine state at the trigger instant — and at the end of
    the window — is bit-identical between a checkpoint-dispatched run
    and a from-boot run of the same spec, for a real campaign target
    of every kind under both execution cores."""
    context = _context(request, arch)
    config = CampaignConfig(arch=arch, kind=kind,
                            count=_POOL.get(kind, 12), seed=0,
                            ops=context.ops, exec_mode=exec_mode)
    spec, trigger = _checkpointed_case(Campaign(config, context))

    dispatched = _run_clean_to_trigger(spec, arch, trigger)
    from_boot = _run_clean_to_trigger(
        replace(spec, checkpoint=None), arch, trigger)

    assert dispatched[0] == from_boot[0], "state at trigger diverged"
    assert dispatched[1] == from_boot[1], "final state diverged"
    assert result_to_dict(dispatched[2]) == result_to_dict(from_boot[2])
    # the rung itself stays pristine: experiments fork it, never run it
    assert spec.checkpoint.machine.cpu.instret == spec.checkpoint.instret
    assert spec.checkpoint.machine._rng is None


@pytest.mark.parametrize("exec_mode", ["block", "step"])
@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_dispatch_result_equivalence(arch, kind, exec_mode, request):
    """The same spec run as a *full injection experiment* (error
    installed) serializes byte-identically on both paths."""
    context = _context(request, arch)
    config = CampaignConfig(arch=arch, kind=kind,
                            count=_POOL.get(kind, 12), seed=0,
                            ops=context.ops, exec_mode=exec_mode)
    spec, _trigger = _checkpointed_case(Campaign(config, context))

    dispatched = InjectionRun(spec).execute()
    from_boot = InjectionRun(replace(spec, checkpoint=None)).execute()
    assert result_to_dict(dispatched) == result_to_dict(from_boot)


# ---------------------------------------------------------------------------
# ladder construction


@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_ladder_shape(arch, request):
    context = _context(request, arch)
    ladder = context.ladder(DEFAULT_CHECKPOINTS)
    boot, total = context.run_window
    assert 1 <= len(ladder.checkpoints) <= DEFAULT_CHECKPOINTS
    instrets = [rung.instret for rung in ladder.checkpoints]
    assert instrets == sorted(set(instrets)), \
        "rungs must be strictly ascending (no duplicates)"
    assert all(boot < instret <= total for instret in instrets)
    for rung in ladder.checkpoints:
        assert rung.machine.cpu.instret == rung.instret
        assert 0 <= rung.completed_ops <= context.ops
    # building the ladder must not advance the shared base machine
    assert context.base_machine.cpu.instret == boot
    # per-context cache: same count -> same object, no rebuild
    assert context.ladder(DEFAULT_CHECKPOINTS) is ladder


def test_ladder_count_validation(x86_context):
    assert x86_context.ladder(0) is None
    assert x86_context.ladder(-3) is None
    with pytest.raises(ValueError):
        build_ladder(x86_context, 0)
    for bad in (-1, True, "8", 2.0):
        with pytest.raises(ValueError):
            CampaignConfig(arch="x86", kind=CampaignKind.REGISTER,
                           count=1, checkpoints=bad)


def test_best_for_selection_strictness():
    def rung(instret):
        return Checkpoint(instret=instret, machine=None, programs={},
                          completed_ops=0, ops_since_tick=0, rounds=0,
                          last_pet=0)

    ladder = CheckpointLadder(arch="x86", seed=0, ops=1, boot_instret=0,
                              total_instret=100,
                              checkpoints=[rung(10), rung(20), rung(30)])
    assert ladder.best_for(5) is None
    # strict (stack/data/register): a rung exactly at the trigger is
    # ambiguous and must be skipped ...
    assert ladder.best_for(10) is None
    assert ladder.best_for(20).instret == 10
    # ... inclusive (code): a rung at the trigger is admissible
    assert ladder.best_for(10, inclusive=True).instret == 10
    assert ladder.best_for(20, inclusive=True).instret == 20
    assert ladder.best_for(25).instret == 20
    assert ladder.best_for(10 ** 9).instret == 30
    assert ladder.best_for(10 ** 9, inclusive=True).instret == 30


def test_poisoned_capture_run_fails_loudly(x86_context):
    """A capture run that materializes per-machine randomness violates
    the seed-invariance precondition, and one that writes kernel text
    would hand the base machine compiled blocks of other code: either
    must abort the build."""

    def materialize_rng(machine):
        machine._rng = random.Random(0)

    def write_cold_text(machine):
        # the entry of a function the clean run never calls, so the
        # capture still completes and only its postcondition sees this
        addr = next(info.addr
                    for info in machine.image.functions.values()
                    if info.addr not in x86_context.probe.executed_pcs)
        machine.cpu.mem.write_u8(addr,
                                 machine.cpu.mem.read_u8(addr) ^ 0xFF)

    for poison, message in ((materialize_rng, "Machine.rng"),
                            (write_cold_text, "kernel text")):
        def poisoned_fork(poison=poison):
            machine = x86_context.base_machine.fork()
            poison(machine)
            return machine

        shim = SimpleNamespace(
            arch=x86_context.arch, seed=x86_context.seed,
            ops=x86_context.ops, probe=x86_context.probe,
            base_machine=SimpleNamespace(fork=poisoned_fork),
            base_programs=x86_context.base_programs)
        with pytest.raises(LadderInvariantError, match=message):
            build_ladder(shim, 2)


# ---------------------------------------------------------------------------
# parallel workers inherit the parent's ladder


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="ladder sharing rides OS fork inheritance")
def test_workers_inherit_parent_ladder(x86_context, tmp_path,
                                       monkeypatch):
    """A parallel campaign builds its ladder exactly once — in the
    parent, before the pool forks — and no worker re-runs the clean
    probe: the snapshots and the context both arrive through fork
    inheritance.  (Counters are files because the calls under test
    would happen in worker processes if they happened at all.)"""
    build_log = tmp_path / "ladder_builds"
    probe_log = tmp_path / "probe_runs"

    real_build = campaign_mod.build_ladder
    real_probe = campaign_mod.probe_clean_run
    real_profile = campaign_mod.profile_kernel

    def counting_build(context, count):
        with build_log.open("a") as fh:
            fh.write("build\n")
        return real_build(context, count)

    def counting_probe(*args, **kwargs):
        with probe_log.open("a") as fh:
            fh.write("probe\n")
        return real_probe(*args, **kwargs)

    def counting_profile(*args, **kwargs):
        with probe_log.open("a") as fh:
            fh.write("profile\n")
        return real_profile(*args, **kwargs)

    monkeypatch.setattr(campaign_mod, "build_ladder", counting_build)
    monkeypatch.setattr(campaign_mod, "probe_clean_run", counting_probe)
    monkeypatch.setattr(campaign_mod, "profile_kernel", counting_profile)
    # a rung count nothing else uses, dropped first so the test is
    # order-independent within the session-scoped context
    x86_context._ladders.pop(5, None)

    config = CampaignConfig(arch="x86", kind=CampaignKind.REGISTER,
                            count=6, seed=0, ops=x86_context.ops,
                            checkpoints=5)
    result = Campaign(config, x86_context).run(workers=2)
    assert result.injected == 6
    assert not result.failures
    assert build_log.read_text().count("build") == 1, \
        "ladder must be built exactly once, in the parent"
    assert not probe_log.exists(), \
        "no worker may re-run the clean pass or its profile"
