"""The observed clean pass reproduces the pinned probe and profile.

``tests/data/clean_pass_digests.json`` was recorded from the two
separate instrumented runs that preceded the single observed pass: a
step-mode probe with monkeypatched ``load``/``store``/``step`` and a
step-mode profiler with its own ``step`` wrapper, each booting its own
machine.  Every fact a campaign takes from the clean run is hashed —
the access trace, the executed addresses, the window first-fetch map,
the run-length figures, the fail-silence flag, and the profile — so the
one pass that replaced both runs must reproduce all of them exactly.

The file also checks the structure of context construction: one boot,
one window run (the observed pass, which also yields the default
ladder), and a base machine and ladder rungs whose block caches already
hold the window's blocks, so a campaign's experiments compile almost
nothing.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.compile.blocks as blocks_mod
import repro.injection.campaign as campaign_mod
from repro.checkpoint.ladder import DEFAULT_CHECKPOINTS
from repro.injection.campaign import (
    Campaign, CampaignConfig, CampaignContext,
)
from repro.injection.injector import InjectionRun
from repro.injection.outcomes import CampaignKind
from repro.machine.machine import Machine
from repro.workload.driver import UnixBenchDriver
from repro.workload.probe import probe_clean_run
from repro.workload.profiler import profile_kernel

DIGEST_PATH = Path(__file__).parent / "data" / "clean_pass_digests.json"
DIGESTS = json.loads(DIGEST_PATH.read_text())


def _sha(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
        digest.update(b";")
    return digest.hexdigest()


def clean_pass_digest(probe, profile) -> dict:
    """Every clean-run fact a campaign consumes, hashed or verbatim."""
    return {
        "accesses": _sha(probe.accesses),
        "executed_pcs": _sha(sorted(probe.executed_pcs)),
        "first_executed": _sha(sorted(probe.first_executed.items())),
        "boot_instret": probe.boot_instret,
        "total_instret": probe.total_instret,
        "total_cycles": probe.total_cycles,
        "fsv_clean": probe.fsv_clean,
        "profile_samples": profile.samples,
        # insertion order kept: hot-function ties break on it
        "profile_counts": _sha(profile.counts.items()),
    }


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_observed_pass_matches_pinned_digest(key):
    recorded = DIGESTS[key]
    probe = probe_clean_run(recorded["arch"], seed=recorded["seed"],
                            ops=recorded["ops"])
    observed = clean_pass_digest(probe, profile_kernel(probe))
    expected = {name: value for name, value in recorded.items()
                if name not in ("arch", "seed", "ops")}
    assert observed == expected


def test_context_boots_once_and_runs_the_window_once(monkeypatch):
    """One observed pass and no replay for the default ladder; the
    probe and the profile go through the module globals the end-to-end
    benchmark wraps to time set-up.  Another rung count replays the
    window once, with the window's blocks, so it compiles nothing."""
    calls = []

    def counting(owner, name):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    counting(Machine, "boot")
    counting(UnixBenchDriver, "run")
    counting(campaign_mod, "probe_clean_run")
    counting(campaign_mod, "profile_kernel")
    context = CampaignContext("ppc", seed=0, ops=12)
    assert calls == ["probe_clean_run", "boot", "run", "profile_kernel"]
    # the default ladder is the clean pass's: asking for it reruns
    # nothing
    context.ladder(DEFAULT_CHECKPOINTS)
    assert len(calls) == 4
    assert context.base_machine.cpu.instret == context.probe.boot_instret
    cache = context.base_machine.cpu._block_cache
    assert cache.warm and not cache.hot
    counting(blocks_mod, "compile_block")
    context.ladder(DEFAULT_CHECKPOINTS - 3)
    assert calls[4:] == ["run"]


def test_checkpoints_off_experiments_start_warm(x86_context):
    """An experiment forked from the base machine inherits the
    window's compiled blocks, with or without a ladder."""
    window_blocks = x86_context.base_machine.cpu._block_cache.snapshot()
    config = CampaignConfig(arch="x86", kind=CampaignKind.REGISTER,
                            count=1, seed=0, ops=x86_context.ops,
                            checkpoints=0)
    campaign = Campaign(config, x86_context)
    spec = campaign.spec_for(0, campaign.generate_targets()[0])
    assert spec.checkpoint is None
    run = InjectionRun(spec)
    assert run.machine.cpu._block_cache.warm is window_blocks
    assert window_blocks


def _same_blocks(cache, window_blocks) -> bool:
    """*cache* holds exactly *window_blocks*, object for object."""
    blocks = cache.snapshot()
    return blocks.keys() == window_blocks.keys() and all(
        blocks[addr] is block for addr, block in window_blocks.items())


@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_rung_dispatched_experiments_start_warm(arch, request):
    """Every rung, and an experiment forked from one, holds the whole
    window's blocks — not just those compiled before the rung's
    capture instant."""
    context = request.getfixturevalue(f"{arch}_context")
    window_blocks = context.base_machine.cpu._block_cache.snapshot()
    assert window_blocks
    ladder = context.ladder(DEFAULT_CHECKPOINTS)
    assert len(ladder.checkpoints) > 1
    for checkpoint in ladder.checkpoints:
        assert _same_blocks(checkpoint.machine.cpu._block_cache,
                            window_blocks)
    config = CampaignConfig(arch=arch, kind=CampaignKind.REGISTER,
                            count=8, seed=0, ops=context.ops)
    campaign = Campaign(config, context)
    specs = [campaign.spec_for(index, target) for index, target
             in enumerate(campaign.generate_targets())]
    spec = next(spec for spec in specs if spec.checkpoint is not None)
    run = InjectionRun(spec)
    assert _same_blocks(run.machine.cpu._block_cache, window_blocks)


@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_register_campaign_compiles_no_block_it_discards(
        arch, request, monkeypatch):
    """Experiments start with the window's blocks and compile an
    address only on its second miss, so a register campaign compiles
    nothing the window already has and far fewer blocks than it runs
    experiments."""
    context = request.getfixturevalue(f"{arch}_context")
    window_blocks = context.base_machine.cpu._block_cache.snapshot()
    compiled = []
    real = blocks_mod.compile_block

    def counting(cpu, addr, *args):
        compiled.append(addr)
        return real(cpu, addr, *args)
    monkeypatch.setattr(blocks_mod, "compile_block", counting)
    config = CampaignConfig(arch=arch, kind=CampaignKind.REGISTER,
                            count=20, seed=0, ops=context.ops)
    result = Campaign(config, context).run()
    assert len(result.results) == 20
    assert not set(compiled) & window_blocks.keys()
    assert len(compiled) < len(result.results)
