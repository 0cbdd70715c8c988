"""Serial ≡ parallel equivalence for the sharded campaign engine.

The parallel engine's contract (``repro.injection.parallel``) is that
``workers=N`` is bit-identical to ``workers=1`` for every campaign kind
on both arches: same per-target outcomes, crash causes, cycle counts,
and order.  These tests pin that down, plus the worker-failure
retry/record degradation path and the sharding helper itself.
"""

from __future__ import annotations

import pytest

from repro.injection.campaign import (
    Campaign, CampaignConfig, CampaignContext,
)
from repro.injection.outcomes import CampaignKind
from repro.injection.parallel import (
    SHARDS_PER_WORKER, run_parallel, shard_targets,
)

#: small but non-trivial campaign sizes (register runs are the most
#: expensive per injection; screened kinds are cheap)
COUNTS = {
    CampaignKind.REGISTER: 10,
    CampaignKind.STACK: 12,
    CampaignKind.DATA: 12,
    CampaignKind.CODE: 8,
}

#: serial baselines, computed once per (arch, kind) across all
#: worker-count parametrizations
_serial_cache: dict = {}


def _config(arch: str, kind: CampaignKind) -> CampaignConfig:
    return CampaignConfig(arch=arch, kind=kind, count=COUNTS[kind],
                          seed=0, ops=36)


def _signature(result):
    """Everything the equivalence guarantee covers, per target."""
    return [(r.target, r.outcome, r.cause, r.screened,
             r.activation_cycles, r.crash_cycles)
            for r in result.results]


def _serial(arch: str, kind: CampaignKind, context):
    key = (arch, kind)
    if key not in _serial_cache:
        _serial_cache[key] = Campaign(_config(arch, kind), context).run()
    return _serial_cache[key]


def _context_for(arch, x86_context, ppc_context):
    return x86_context if arch == "x86" else ppc_context


class TestShardTargets:
    def test_covers_range_in_order(self):
        for count in (1, 7, 16, 100):
            for workers in (1, 2, 4):
                shards = shard_targets(count, workers)
                flat = [i for start, stop in shards
                        for i in range(start, stop)]
                assert flat == list(range(count))
                assert all(stop > start for start, stop in shards)
                assert len(shards) <= workers * SHARDS_PER_WORKER

    def test_empty(self):
        assert shard_targets(0, 4) == []


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("workers", [
        pytest.param(2, id="workers2"), pytest.param(4, id="workers4")])
    @pytest.mark.parametrize("kind", list(CampaignKind),
                             ids=[k.value for k in CampaignKind])
    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_bit_identical(self, arch, kind, workers,
                           x86_context, ppc_context):
        context = _context_for(arch, x86_context, ppc_context)
        serial = _serial(arch, kind, context)
        parallel = Campaign(_config(arch, kind),
                            context).run(workers=workers)
        assert _signature(parallel) == _signature(serial)
        assert parallel.failures == []

    def test_progress_reports_per_shard(self, x86_context):
        ticks = []
        config = _config("x86", CampaignKind.DATA)
        result = Campaign(config, x86_context).run(
            workers=2,
            progress_callback=lambda done, total, batch: ticks.append(
                (done, total)))
        assert result.injected == config.count
        assert ticks[-1] == (config.count, config.count)
        assert [done for done, _ in ticks] == \
            sorted(done for done, _ in ticks)
        assert len(ticks) > 1             # finer than one tick per run


def test_parent_builds_screen_index_before_forking(monkeypatch):
    """A sharded data campaign indexes the access trace in the parent,
    so the workers inherit the index instead of each building it."""
    fresh = CampaignContext("ppc", 0, 36)
    monkeypatch.setitem(CampaignContext._cache, ("ppc", 0, 36), fresh)
    Campaign(CampaignConfig(arch="ppc", kind=CampaignKind.DATA, count=4,
                            seed=0, ops=36)).run(workers=2)
    assert fresh.probe._index


class TestWorkerFailure:
    def test_failed_shard_retried_serially_and_recorded(
            self, x86_context):
        kind = CampaignKind.DATA
        serial = _serial("x86", kind, x86_context)
        campaign = Campaign(_config("x86", kind), x86_context)
        result = run_parallel(campaign, workers=2, fail_shards={0})
        # the failure is recorded, not silently dropped ...
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.shard == 0
        assert failure.recovered
        assert "injected worker failure" in failure.error
        # ... and the serial retry kept the result bit-identical
        assert _signature(result) == _signature(serial)

    def test_every_shard_failing_still_completes(self, x86_context):
        kind = CampaignKind.DATA
        serial = _serial("x86", kind, x86_context)
        campaign = Campaign(_config("x86", kind), x86_context)
        shards = shard_targets(COUNTS[kind], 2)
        result = run_parallel(campaign, workers=2,
                              fail_shards=range(len(shards)))
        assert len(result.failures) == len(shards)
        assert all(f.recovered for f in result.failures)
        assert _signature(result) == _signature(serial)
