"""Checkpoint/resume orchestration: run a campaign *through* a store.

``Campaign.run(store=...)`` lands here.  The contract:

* every completed experiment is journaled before the progress callback
  sees it, so a kill at any instant loses at most in-flight work;
* on resume, already-journaled global indices are **skipped** — their
  results stream back from disk — and only the remainder is injected;
* the per-target seed keys on the global index (PR 1's determinism
  contract), so a resumed campaign — at any worker count, killed any
  number of times — produces a ``CampaignResult`` bit-identical to an
  uninterrupted run, and raising ``count`` tops an existing campaign
  up by injecting only the new tail.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.store.store import CampaignStore


def _as_store(store) -> CampaignStore:
    if isinstance(store, CampaignStore):
        return store
    return CampaignStore(store)


def run_with_store(campaign, store, resume: bool = False,
                   workers: int = 1, progress_callback=None):
    """Execute *campaign* with write-ahead journaling and resume.

    Returns the same ``CampaignResult`` the plain run would; results
    present in the journal are reused (decoded, not re-injected),
    pending global indices are injected serially or across *workers*.
    *progress_callback* is the batch form ``(done, total, batch)``;
    on a resume its first batch is the already-journaled prefix, and
    every later batch is journaled before the callback sees it, so a
    callback that raises (service-side cancellation) aborts the run
    without losing completed work.
    """
    from repro.injection.campaign import CampaignResult

    opened = _as_store(store).open(campaign.config, resume=resume)
    try:
        targets = campaign.generate_targets()
        total = len(targets)
        pending: List[Tuple[int, object]] = [
            (index, targets[index]) for index in range(total)
            if index not in opened.done]
        done_base = total - len(pending)
        if done_base and progress_callback is not None:
            progress_callback(done_base, total,
                              sorted(opened.done.items()))

        failures: list = []
        if pending and workers > 1:
            from repro.injection.parallel import run_items
            _merged, failures = run_items(
                campaign, pending, workers, sink=opened.record,
                done_base=done_base, total=total,
                progress_callback=progress_callback)
        elif pending:
            for offset, (index, target) in enumerate(pending):
                result = campaign.run_target(index, target)
                opened.record(index, result)
                if progress_callback is not None:
                    progress_callback(done_base + offset + 1, total,
                                      [(index, result)])

        out = CampaignResult(config=campaign.config)
        out.failures.extend(failures)
        out.results.extend(opened.done[index] for index in range(total))
        return out
    finally:
        opened.close()


def resume_plan(store, config) -> dict:
    """What a resume of *config* would do (inspection/CLI helper)."""
    from repro.store.manifest import CampaignManifest
    from repro.store import journal as journal_mod
    from repro.store.manifest import JOURNAL_NAME
    store = _as_store(store)
    manifest = CampaignManifest.from_config(config)
    directory = store.campaign_dir(manifest.campaign_id)
    replayed = journal_mod.replay(directory / JOURNAL_NAME,
                                  truncate=False)
    done = {index for index, _result in replayed.records}
    return {
        "campaign_id": manifest.campaign_id,
        "journaled": len(done),
        "pending": [index for index in range(config.count)
                    if index not in done],
        "truncated_bytes": replayed.truncated_bytes,
    }
