"""Kill/resume equivalence for the durable campaign store.

The store's contract (`repro.store.resume`): a campaign killed at any
point and resumed from its journal produces a ``CampaignResult``
bit-identical to an uninterrupted run — same results, same order —
at any worker count, and raising ``count`` reuses every journaled
result, injecting only the new tail.  These tests kill campaigns at
~30% (serial) and ~70% (workers=2) for every campaign kind on both
arches and compare against the uninterrupted serial baseline, plus
cross-mode resumes, top-up, and resume-through-a-torn-tail.
"""

from __future__ import annotations

import pytest

from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.outcomes import CampaignKind
from repro.store import CampaignStore
from repro.store.resume import resume_plan

#: small but non-trivial campaign sizes (register runs are the most
#: expensive per injection; screened kinds are cheap)
COUNTS = {
    CampaignKind.REGISTER: 10,
    CampaignKind.STACK: 12,
    CampaignKind.DATA: 12,
    CampaignKind.CODE: 8,
}

#: uninterrupted serial baselines, shared across the kill matrix
_baseline_cache: dict = {}


class Killed(RuntimeError):
    """Raised by the progress callback to simulate a harness crash."""


def kill_after(threshold: int):
    def callback(done: int, total: int, batch) -> None:
        if done >= threshold:
            raise Killed(f"killed at {done}/{total}")
    return callback


def _config(arch: str, kind: CampaignKind,
            count: int = None) -> CampaignConfig:
    return CampaignConfig(arch=arch, kind=kind,
                          count=count or COUNTS[kind], seed=0, ops=36)


def _baseline(arch: str, kind: CampaignKind, context):
    key = (arch, kind)
    if key not in _baseline_cache:
        _baseline_cache[key] = Campaign(_config(arch, kind),
                                        context).run()
    return _baseline_cache[key]


def _context_for(arch, x86_context, ppc_context):
    return x86_context if arch == "x86" else ppc_context


class TestKillResumeEquivalence:
    @pytest.mark.parametrize("fraction,workers", [
        pytest.param(0.3, 1, id="kill30-serial"),
        pytest.param(0.7, 2, id="kill70-workers2"),
    ])
    @pytest.mark.parametrize("kind", list(CampaignKind),
                             ids=[k.value for k in CampaignKind])
    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_bit_identical_after_kill(self, arch, kind, fraction,
                                      workers, tmp_path,
                                      x86_context, ppc_context):
        context = _context_for(arch, x86_context, ppc_context)
        config = _config(arch, kind)
        baseline = _baseline(arch, kind, context)
        store = CampaignStore(tmp_path / "store")

        threshold = max(1, int(config.count * fraction))
        with pytest.raises(Killed):
            Campaign(config, context).run(
                store=store, workers=workers,
                progress_callback=kill_after(threshold))

        # the kill left a genuinely partial journal...
        plan = resume_plan(store, config)
        assert 0 < plan["journaled"] < config.count
        assert len(plan["pending"]) == config.count - plan["journaled"]

        # ...and the resume completes it bit-identically
        resumed = Campaign(config, context).run(
            store=store, resume=True, workers=workers)
        assert resumed.results == baseline.results
        assert resumed.failures == []
        # the journal now holds the complete campaign
        assert store.load(config).results == baseline.results

    def test_cross_mode_kill_parallel_resume_serial(
            self, tmp_path, x86_context):
        config = _config("x86", CampaignKind.DATA)
        baseline = _baseline("x86", CampaignKind.DATA, x86_context)
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(Killed):
            Campaign(config, x86_context).run(
                store=store, workers=2, progress_callback=kill_after(4))
        resumed = Campaign(config, x86_context).run(store=store,
                                                    resume=True)
        assert resumed.results == baseline.results

    def test_double_kill_then_resume(self, tmp_path, x86_context):
        """Two crashes at different points still converge."""
        config = _config("x86", CampaignKind.STACK)
        baseline = _baseline("x86", CampaignKind.STACK, x86_context)
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(Killed):
            Campaign(config, x86_context).run(
                store=store, progress_callback=kill_after(3))
        with pytest.raises(Killed):
            Campaign(config, x86_context).run(
                store=store, resume=True, progress_callback=kill_after(8))
        resumed = Campaign(config, x86_context).run(store=store,
                                                    resume=True)
        assert resumed.results == baseline.results


class TestResumeReusesWork:
    def _counting(self, monkeypatch):
        calls = []
        original = Campaign.run_target

        def counting(self, index, target):
            calls.append(index)
            return original(self, index, target)

        monkeypatch.setattr(Campaign, "run_target", counting)
        return calls

    def test_resume_of_complete_campaign_injects_nothing(
            self, tmp_path, x86_context, monkeypatch):
        config = _config("x86", CampaignKind.DATA)
        store = CampaignStore(tmp_path / "store")
        complete = Campaign(config, x86_context).run(store=store)
        calls = self._counting(monkeypatch)
        again = Campaign(config, x86_context).run(store=store,
                                                  resume=True)
        assert calls == []                 # pure journal replay
        assert again.results == complete.results

    def test_topup_injects_only_the_new_tail(self, tmp_path,
                                             x86_context, monkeypatch):
        kind = CampaignKind.DATA
        small = _config("x86", kind, count=8)
        large = _config("x86", kind, count=14)
        fresh_large = Campaign(large, x86_context).run()

        store = CampaignStore(tmp_path / "store")
        Campaign(small, x86_context).run(store=store)
        calls = self._counting(monkeypatch)
        topped = Campaign(large, x86_context).run(store=store,
                                                  resume=True)
        # only the tail was injected — the global-index seed
        # derivation makes targets 0..7 of count=14 exactly the
        # count=8 campaign's targets
        assert sorted(calls) == list(range(8, 14))
        assert topped.results == fresh_large.results

    def test_resume_through_torn_tail(self, tmp_path, x86_context):
        """A crash mid-append (torn record) resumes bit-identically."""
        from repro.store.manifest import CampaignManifest, JOURNAL_NAME
        config = _config("x86", CampaignKind.DATA)
        baseline = _baseline("x86", CampaignKind.DATA, x86_context)
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(Killed):
            Campaign(config, x86_context).run(
                store=store, progress_callback=kill_after(5))
        manifest = CampaignManifest.from_config(config)
        journal_path = store.campaign_dir(
            manifest.campaign_id) / JOURNAL_NAME
        with open(journal_path, "ab") as handle:
            handle.write(b'{"v":1,"index":5,"crc":"dead')  # torn append
        resumed = Campaign(config, x86_context).run(store=store,
                                                    resume=True)
        assert resumed.results == baseline.results
