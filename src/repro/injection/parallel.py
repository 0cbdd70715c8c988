"""Parallel sharded campaign engine (NFTAPE's multiple target nodes).

Every injection experiment forks an independent machine from the shared
:class:`~repro.injection.campaign.CampaignContext`, so a campaign is
embarrassingly parallel.  This module shards a campaign's pre-generated
target list across ``multiprocessing`` worker processes and merges the
shard results back into one :class:`CampaignResult`, under a strict
**serial-equivalence contract**:

* targets are pre-generated **once, in the parent** — the target list
  is exactly the serial path's list;
* each target travels with its **global** index, and the per-experiment
  seed stays ``config.seed + global_index * 7919`` — identical to the
  serial derivation, regardless of which shard runs it;
* every worker reuses the ``CampaignContext`` it inherits through the
  OS fork, and rebuilds one from ``(arch, seed, ops)`` only when it
  has none (machines don't pickle; context construction is
  deterministic, so a rebuilt context is equivalent to the parent's);
* merged results are ordered by global index, so the result sequence is
  bit-identical to ``workers=1``.

Graceful degradation: a shard whose worker raises (or whose process
dies, breaking the pool) is retried **once, serially, in the parent**;
the failure is recorded as a :class:`ShardFailure` on
``CampaignResult.failures`` rather than silently dropped.

:func:`run_items` is the core engine: it takes an explicit
``(global_index, target)`` list — not necessarily contiguous — so the
result store (:mod:`repro.store.resume`) can hand it only the pending
slice of a resumed campaign, and an optional *sink* called in the
parent before each progress tick, which is where the write-ahead
journal attaches.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.injection.campaign import Campaign, CampaignContext, CampaignResult
from repro.injection.outcomes import CampaignKind, InjectionResult

#: shards per worker — finer than 1:1 so a fast worker steals work from
#: a slow one and the progress callback ticks at sub-worker granularity
SHARDS_PER_WORKER = 4


@dataclass(frozen=True)
class ShardFailure:
    """One worker-side shard failure and how it was handled."""

    shard: int                 # shard index
    error: str                 # "ExceptionType: message" from the worker
    recovered: bool            # True when the serial retry succeeded


def shard_targets(count: int, workers: int
                  ) -> List[Tuple[int, int]]:
    """Split ``range(count)`` into contiguous ``(start, stop)`` shards.

    At most ``workers * SHARDS_PER_WORKER`` shards, never empty ones;
    the concatenation of all shards is exactly ``range(count)`` in
    order, so global indices survive sharding untouched.
    """
    if count <= 0:
        return []
    n_shards = min(count, max(1, workers) * SHARDS_PER_WORKER)
    base, extra = divmod(count, n_shards)
    shards: List[Tuple[int, int]] = []
    start = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        shards.append((start, start + size))
        start += size
    return shards


# -- worker side -------------------------------------------------------------

#: per-worker-process state, set once by the pool initializer
_WORKER_CONTEXT: Dict[str, Optional[CampaignContext]] = {"context": None}


def _worker_init(arch: str, seed: int, ops: int) -> None:
    """Set up this worker's context (runs once per worker process).

    With the ``fork`` start method the parent's context cache arrives
    in the child through the OS-level fork, so the worker reuses the
    already-built context for ``(arch, seed, ops)`` — no re-boot, no
    re-probe; every injection then COW-forks from that one base
    machine.  Context construction is deterministic, so the reused
    context is bit-equivalent to a rebuilt one.  Under ``spawn`` (or
    when the key is absent) the worker rebuilds from scratch exactly
    as before.
    """
    context = CampaignContext._cache.get((arch, seed, ops))
    if context is None:
        CampaignContext.clear_cache()
        context = CampaignContext.get(arch, seed, ops)
    _WORKER_CONTEXT["context"] = context


def _run_shard(payload):
    """Execute one shard; never raises (errors travel in the return).

    *payload* is ``(shard_index, config, items, fail)`` where *items*
    is a list of ``(global_index, target)`` pairs and *fail* is a test
    hook that simulates a worker dying mid-shard.
    """
    shard_index, config, items, fail = payload
    try:
        if fail:
            raise RuntimeError(
                f"injected worker failure in shard {shard_index}")
        campaign = Campaign(config, _WORKER_CONTEXT["context"])
        results = [(index, campaign.run_target(index, target))
                   for index, target in items]
        return shard_index, results, None
    except Exception as exc:               # noqa: BLE001 — reported to parent
        return shard_index, None, f"{type(exc).__name__}: {exc}"


# -- parent side -------------------------------------------------------------

def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def run_items(campaign: Campaign, items: Sequence[Tuple[int, object]],
              workers: int,
              fail_shards: Optional[Sequence[int]] = None,
              sink=None, done_base: int = 0,
              total: Optional[int] = None,
              progress_callback=None
              ) -> Tuple[List[Tuple[int, InjectionResult]],
                         List[ShardFailure]]:
    """Run ``(global_index, target)`` *items* across *workers*.

    The core of the parallel engine, factored so the result store can
    hand it only the *pending* slice of a resumed campaign: *items*
    need not be contiguous — each carries its global index, and the
    per-experiment seed derivation is untouched.

    *sink*, when given, is called as ``sink(index, result)`` **in the
    parent, in shard-completion order, before the progress callback**
    — the write-ahead hook the journal attaches to.
    *progress_callback* is called as ``(done, total, batch)``: *done*
    is ``done_base`` plus completed items, out of *total* (default
    ``done_base + len(items)``), and *batch* the just-merged shard's
    ``(global_index, result)`` pairs in index order, called after the
    sink; raising from it aborts the run at the next shard
    boundary (queued shards are cancelled, running ones drain).

    Returns ``(merged, failures)`` with *merged* sorted by global
    index and verified complete against *items*.
    """
    if total is None:
        total = done_base + len(items)
    merged: List[Tuple[int, InjectionResult]] = []
    failures: List[ShardFailure] = []
    if not items:
        return merged, failures

    config = campaign.config
    if config.checkpoints > 0:
        # build the ladder once in the parent, *before* the pool
        # forks: the snapshots ride into every worker through the same
        # OS-fork inheritance as the rest of the context, so no worker
        # repays the capture run (see test_checkpoint's regression)
        campaign.context.ladder(config.checkpoints)
    if config.kind in (CampaignKind.STACK, CampaignKind.DATA):
        # the screen's access index, likewise: built here, not once
        # per worker
        campaign.context.probe.build_index()
    fail_set = set(fail_shards or ())
    payloads = []
    for shard_index, (start, stop) in enumerate(
            shard_targets(len(items), workers)):
        payloads.append((shard_index, config, list(items[start:stop]),
                         shard_index in fail_set))
    workers = min(workers, len(payloads))

    done = done_base

    def shard_finished(shard_results) -> None:
        nonlocal done
        if sink is not None:
            for index, result in shard_results:
                sink(index, result)
        merged.extend(shard_results)
        done += len(shard_results)
        if progress_callback is not None:
            progress_callback(done, total,
                              sorted(shard_results,
                                     key=lambda pair: pair[0]))

    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=_mp_context(),
        initializer=_worker_init,
        initargs=(config.arch, config.seed, config.ops))
    try:
        futures = {pool.submit(_run_shard, payload): payload
                   for payload in payloads}
        for future in as_completed(futures):
            payload = futures[future]
            try:
                shard_index, results, error = future.result()
            except Exception as exc:       # worker process died
                shard_index = payload[0]
                results, error = None, f"{type(exc).__name__}: {exc}"
            if error is not None:
                # degrade gracefully: retry the shard once, serially,
                # in the parent (which holds an equivalent context)
                shard_items = payload[2]
                results = [(index, campaign.run_target(index, target))
                           for index, target in shard_items]
                failures.append(ShardFailure(
                    shard=shard_index, error=error, recovered=True))
            shard_finished(results)
    except BaseException:
        # a sink or progress callback aborted the run (e.g. the
        # campaign service cancelling a job): drop the queued shards
        # so worker slots free at the next shard boundary instead of
        # after the whole campaign has drained
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    pool.shutdown(wait=True)

    merged.sort(key=lambda pair: pair[0])
    expected = sorted(index for index, _target in items)
    if [index for index, _result in merged] != expected:
        raise RuntimeError("parallel merge lost targets: got "
                           f"{len(merged)} of {len(items)}")
    return merged, failures


def run_parallel(campaign: Campaign, workers: int,
                 fail_shards: Optional[Sequence[int]] = None,
                 progress_callback=None) -> CampaignResult:
    """Run *campaign* across *workers* processes.

    Bit-identical to ``campaign.run()``; see the module docstring for
    the contract.  *progress_callback* is called once per completed
    shard (see :func:`run_items`).
    *fail_shards* injects worker-side failures for the degradation
    tests.
    """
    campaign.context.collector.clear()
    targets = campaign.generate_targets()
    out = CampaignResult(config=campaign.config)
    merged, failures = run_items(
        campaign, list(enumerate(targets)), workers,
        fail_shards=fail_shards,
        progress_callback=progress_callback)
    out.failures.extend(failures)
    out.results.extend(result for _index, result in merged)
    return out
