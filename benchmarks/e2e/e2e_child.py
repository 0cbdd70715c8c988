"""One child process of the end-to-end benchmark.

``bench_e2e.py`` starts a fresh interpreter on this file for every
repeat, so every context build is cold::

    python benchmarks/e2e/e2e_child.py '{"mode": "run", ...}'

and reads the one JSON object it prints as its last stdout line.
Modes:

* ``warmup``: import the simulator and compile both kernels, untimed;
* ``run``: set up both arches, then submit one workload's campaigns one
  after another (a closed loop), timing each ``Campaign.run``;
* ``trace``: the traced run behind the per-layer metrics;
* ``record``: serial digests of every campaign, for ``digests.json``.
"""

import time

T0 = time.perf_counter()              # wall_s starts before repro loads

import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import List

from e2e_trace import Tracer, mean, percentile
from e2e_workloads import (
    ARCHES, CAMPAIGN_SEED, CHECKPOINTS, FAULT_MODEL, OPS, WORKLOADS,
    all_campaigns,
)

import repro.injection.campaign as campaign_mod
from repro.injection.campaign import (
    Campaign, CampaignConfig, CampaignContext,
)
from repro.injection.injector import InjectionRun
from repro.injection.outcomes import (
    CampaignKind, InjectionResult, Outcome,
)
from repro.injection.parallel import shard_targets
from repro.kernel.build import build_kernel
from repro.store import CampaignStore
from repro.store.codec import results_digest


def _config(spec) -> CampaignConfig:
    return CampaignConfig(arch=spec.arch, kind=CampaignKind(spec.kind),
                          count=spec.count, seed=CAMPAIGN_SEED, ops=OPS,
                          checkpoints=CHECKPOINTS, fault_model=FAULT_MODEL)


def _setup() -> None:
    for arch in ARCHES:
        CampaignContext.get(arch, CAMPAIGN_SEED, OPS).ladder(CHECKPOINTS)


def _peak_rss_mb() -> float:
    """Max ``ru_maxrss`` of this process and its reaped pool workers."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024


def _failed_in(result, count: int, workers: int) -> int:
    """Experiments missing, or in a shard the parallel engine lost
    (even when the serial retry recovered it)."""
    shards = shard_targets(count, workers)
    lost = sum(shards[failure.shard][1] - shards[failure.shard][0]
               for failure in result.failures)
    return min(count, count - len(result.results) + lost)


def _report(spec, label: str) -> dict:
    """One campaign pass as the parent checks it; failed until done."""
    return {"key": spec.key, "count": spec.count, "pass": label,
            "start": 0.0, "seconds": 0.0, "injected": 0,
            "failed": spec.count, "shard_failures": 0, "digest": None,
            "error": None}


def _run_campaign(spec, workers: int, store_root=None,
                  progress_callback=None, label: str = "run"):
    """Submit one campaign and return its report.

    With *store_root* the campaign is journaled to a fresh store and
    read back with ``CampaignStore.load``; the read-back must carry the
    same digest.  An exception fails every experiment of the campaign.
    """
    config = _config(spec)
    report = _report(spec, label)
    store = None
    try:
        if store_root is not None:
            store = CampaignStore(tempfile.mkdtemp(prefix="store-",
                                                   dir=store_root))
        report["start"] = time.perf_counter()
        result = Campaign(config).run(workers=workers, store=store,
                                      progress_callback=progress_callback)
        report["seconds"] = time.perf_counter() - report["start"]
        digest = results_digest(result.results)
        if store is not None:
            stored = results_digest(store.load(config).results)
            if stored != digest:
                raise RuntimeError(f"store read-back digest {stored[:12]} "
                                   f"!= run digest {digest[:12]}")
    except Exception as exc:              # noqa: BLE001 — reported as failed
        report["error"] = f"{type(exc).__name__}: {exc}"
        return report
    finally:
        if store is not None:
            shutil.rmtree(store.root, ignore_errors=True)
    report.update(digest=digest, injected=len(result.results),
                  failed=_failed_in(result, spec.count, workers),
                  shard_failures=len(result.failures))
    return report


class HostClock:
    """How much slower than the reference host this host runs now.

    The shared reference VM runs up to 2x slower for phases lasting
    seconds to minutes (other tenants on its physical cores), enough to
    move whole runs.  The clock times a fixed interpreter-bound loop
    between a child's measured steps and, from a serial campaign's
    progress callback, every ``INTERVAL_S`` inside it (the loop's time is
    taken back out of the campaign's seconds).  The loop does what the
    simulator cores do most: calls, slot and dict access, bytearray
    reads and writes, integer arithmetic, over a working set beyond L1.

    The simulator slows less than the loop does: over 96 children on the
    reference host, log host timings regressed on log loop slowdown with
    slope 0.65-0.73 for serial campaign throughput (0.4-0.6 for wall
    time, 0.2-0.3 for set-up).  So a timing is divided by the loop
    slowdown raised to ``EXPONENT``, which takes the host's phase out
    without over-correcting slow phases.
    """

    #: loop seconds on the reference host (2-vCPU Xeon VM, CPython
    #: 3.11) outside its slow phases; fixed for good, like ``EXPONENT``,
    #: since every reported timing is scaled by them
    REFERENCE_S = 0.0085
    EXPONENT = 0.7
    ITERATIONS = 25_000
    INTERVAL_S = 0.25

    def __init__(self) -> None:
        keys = [(index * 7919) & 0xFFFFF for index in range(1 << 13)]
        random.Random(1).shuffle(keys)
        self._keys = keys
        self._table = {key: index for index, key in enumerate(keys)}
        self._memory = bytearray(1 << 18)
        self.samples: List[float] = []
        self.spent = 0.0                  # host seconds spent in the loop
        self._last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self._loop(_Cell())
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.spent += self._last - start

    def tick(self, *_progress) -> None:
        """A ``progress_callback``: sample once ``INTERVAL_S`` passed."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def slowdown(self, since: int = 0) -> float:
        """The divisor for timings taken over the samples from index
        *since* on: their median loop time over ``REFERENCE_S``, raised
        to ``EXPONENT``."""
        return (statistics.median(self.samples[since:])
                / self.REFERENCE_S) ** self.EXPONENT

    def _loop(self, cell: "_Cell") -> None:
        keys, table, memory = self._keys, self._table, self._memory
        cell.value = 0
        for step in range(self.ITERATIONS):
            value = table[keys[(step * 37) & 0x1FFF]]
            addr = (value * 61) & 0x3FFFF
            memory[addr] = (memory[addr] + 1) & 0xFF
            cell.value += _mix(value) ^ memory[(addr * 3) & 0x3FFFF]


class _Cell:
    __slots__ = ("value",)


def _mix(value: int) -> int:
    return (value * 2654435761) & 0xFFFF


# -- modes ---------------------------------------------------------------------

def warmup(request) -> dict:
    for arch in ARCHES:
        build_kernel(arch)
    return {}


def run(request) -> dict:
    """One cold pass, timed in reference-host seconds (:class:`HostClock`);
    ``host`` keeps the host-second figures beside them."""
    workload = WORKLOADS[request["workload"]]
    plan = workload.plan(request["seed"], request["child"],
                         request["scale"])
    clock = HostClock()
    clock.sample()
    start = time.perf_counter()
    _setup()
    setup_s = time.perf_counter() - start
    clock.sample()
    store_root = request["workdir"] if workload.store else None
    # inside a sharded campaign the loop would compete with its two pool
    # workers, so it runs only between those campaigns: too rarely for a
    # slowdown of their own, so they use the child's median
    serial = workload.workers == 1
    reports = []
    slowdowns = []
    for spec in plan:
        since, spent = len(clock.samples) - 1, clock.spent
        report = _run_campaign(spec, workload.workers, store_root,
                               progress_callback=clock.tick if serial
                               else None)
        report["seconds"] -= clock.spent - spent
        clock.sample()
        slowdowns.append(clock.slowdown(since) if serial else None)
        reports.append(report)
    wall_s = time.perf_counter() - T0 - clock.spent
    slowdown = clock.slowdown()
    seconds = sum(report["seconds"] for report in reports)
    ref_seconds = sum(report["seconds"] / (local or slowdown)
                      for report, local in zip(reports, slowdowns))
    injected = sum(report["injected"] for report in reports)
    return {"metrics": {"inj_per_s": injected / ref_seconds
                        if ref_seconds else 0.0,
                        "setup_s": setup_s / slowdown,
                        "wall_s": (wall_s - seconds) / slowdown + ref_seconds,
                        "peak_rss_mb": _peak_rss_mb()},
            "host": {"divisor": slowdown, "setup_s": setup_s,
                     "wall_s": wall_s,
                     "inj_per_s": injected / seconds if seconds else 0.0},
            "campaigns": reports}


def record(request) -> dict:
    digests = {}
    for spec in all_campaigns():
        report = _run_campaign(spec, workers=1)
        if report["error"] or report["failed"]:
            raise RuntimeError(f"{spec.key}: {report}")
        digests[spec.key] = report["digest"]
    return {"digests": digests}


# -- the traced run ---------------------------------------------------------------

def _traced_setup(tracer: Tracer) -> None:
    """Both arches' set-up, one span per layer call.

    ``CampaignContext.__init__`` calls the probe and the profiler
    through ``repro.injection.campaign``'s module globals, so the traced
    set-up swaps those two names for span-recording wrappers and puts
    them back afterwards.  Everything the constructor does before its
    first probe or profile call (``Machine``, ``boot``,
    ``UnixBenchDriver.setup``) is the ``machine.boot`` span; what the
    spans leave uncovered is ``setup.unattributed``.
    """
    build_kernel.cache_clear()
    layers = {"probe_clean_run": "workload.probe",
              "profile_kernel": "workload.profile"}
    originals = {name: getattr(campaign_mod, name) for name in layers}
    for arch in ARCHES:
        with tracer.span(f"kernel.build.{arch}"):
            build_kernel(arch)
        with tracer.span(f"injection.context.{arch}") as context_span:
            booted = False

            def wrap(fn, layer):
                def call(*args, **kwargs):
                    nonlocal booted
                    if not booted:
                        booted = True
                        tracer.add(f"machine.boot.{arch}",
                                   context_span[1], time.perf_counter_ns())
                    with tracer.span(f"{layer}.{arch}"):
                        return fn(*args, **kwargs)
                return call

            try:
                for name, fn in originals.items():
                    setattr(campaign_mod, name, wrap(fn, layers[name]))
                context = CampaignContext.get(arch, CAMPAIGN_SEED, OPS)
            finally:
                for name, fn in originals.items():
                    setattr(campaign_mod, name, fn)
        with tracer.span(f"checkpoint.ladder.{arch}"):
            context.ladder(CHECKPOINTS)


def _blocks_new(cache, inherited) -> int:
    """Compiled blocks in *cache* that the fork did not inherit."""
    tiers = [cache.hot] + ([cache.warm] if cache.warm is not inherited
                           else [])
    return sum(1 for tier in tiers for addr, block in tier.items()
               if inherited.get(addr) is not block)


def _traced_campaign(tracer: Tracer, spec, sims: list) -> list:
    """Re-execute ``Campaign.run``'s serial loop from outside.

    The same steps ``Campaign.run_target`` takes: screen, rung choice
    (``spec_for``), fork (``InjectionRun``), install, execute, absorb;
    one span each.  Counters for each simulated experiment are read
    after its span closes and appended to *sims*.
    """
    config = _config(spec)
    campaign = Campaign(config)
    context = campaign.context
    context.collector.clear()
    with tracer.span("injection.targets"):
        targets = campaign.generate_targets()
    results = []
    for index, target in enumerate(targets):
        exp = f"{spec.key}#{index}"
        with tracer.span("injection.experiment", exp):
            with tracer.span("injection.screen", exp):
                screened = campaign._screen_not_activated(target, index)
            if screened:
                result = InjectionResult(
                    arch=config.arch, kind=config.kind, target=target,
                    outcome=Outcome.NOT_ACTIVATED, screened=True)
            else:
                with tracer.span("checkpoint.select", exp):
                    run_spec = campaign.spec_for(index, target)
                with tracer.span("machine.fork", exp):
                    run = InjectionRun(run_spec)
                cpu = run.machine.cpu
                cache = cpu._block_cache
                inherited = cache.warm
                first_insn = cpu.instret
                with tracer.span("injection.install", exp):
                    run._install()
                with tracer.span("injection.execute", exp) as execute:
                    result = run.execute(install=False)
                with tracer.span("injection.collect", exp):
                    context.collector.absorb(run.collector)
        results.append(result)
        if screened:
            continue
        trigger, _inclusive = campaign._trigger_instret(target)
        rung = run_spec.checkpoint
        base = rung.instret if rung is not None else context.run_window[0]
        sims.append({
            "arch": config.arch,
            "execute_ns": execute[2] - execute[1],
            "insn": cpu.instret - first_insn,
            "cow_pages": cpu.mem.cow_page_copies,
            "blocks_new": _blocks_new(cache, inherited),
            "rung": rung is not None,
            "residue": None if trigger is None else trigger - base,
        })
    return results


def _store_pass(tracer: Tracer, traced, store_root) -> int:
    """Journal each traced result stream, read it back, resume it.

    Every read-back and the no-op resume must carry the traced digest.
    Returns the journal bytes written.
    """
    store = CampaignStore(tempfile.mkdtemp(prefix="store-", dir=store_root))
    journal_bytes = 0
    try:
        for spec, results, digest in traced:
            config = _config(spec)
            opened = store.open(config)
            try:
                for index, result in enumerate(results):
                    with tracer.span("store.append", f"{spec.key}#{index}"):
                        opened.record(index, result)
            finally:
                opened.close()
            journal_bytes += opened.journal.path.stat().st_size
            with tracer.span("store.replay"):
                loaded = store.load(config)
            with tracer.span("store.resume_noop"):
                resumed = Campaign(config).run(store=store, resume=True)
            for what, out in (("load", loaded), ("resume", resumed)):
                if results_digest(out.results) != digest:
                    raise RuntimeError(f"{spec.key}: store {what} digest "
                                       f"differs from the traced run")
    finally:
        shutil.rmtree(store.root, ignore_errors=True)
    return journal_bytes


def _setup_metrics(tracer: Tracer) -> dict:
    self_ns = tracer.self_ns()
    metrics = {}
    for arch in ARCHES:
        for metric, span in (("kernel.build_s", "kernel.build"),
                             ("machine.boot_s", "machine.boot"),
                             ("workload.probe_s", "workload.probe"),
                             ("workload.profile_s", "workload.profile"),
                             ("checkpoint.ladder_s", "checkpoint.ladder"),
                             ("injection.context_s", "injection.context")):
            metrics[f"{metric}.{arch}"] = tracer.total_s(f"{span}.{arch}")
        metrics[f"setup.unattributed_s.{arch}"] = sum(
            self_ns[index] for index, record in enumerate(tracer.spans)
            if record[0] == f"injection.context.{arch}") / 1e9
    return metrics


def _experiment_metrics(tracer: Tracer, sims: list) -> dict:
    screen_us = [d / 1e3 for d in tracer.durations("injection.screen")]
    experiments = len(screen_us)
    execute_ms = [d / 1e6 for d in tracer.durations("injection.execute")]
    exp_ms = [d / 1e6 for d in tracer.durations("injection.experiment")]
    residues = [sim["residue"] for sim in sims if sim["residue"] is not None]
    metrics = {
        "injection.targets_s": tracer.total_s("injection.targets"),
        "injection.screen_us": mean(screen_us),
        "injection.screened_frac":
            (experiments - len(sims)) / experiments if experiments else 0.0,
        "injection.install_us":
            mean(tracer.durations("injection.install")) / 1e3,
        "injection.execute_ms_p50": percentile(execute_ms, 50),
        "injection.execute_ms_p95": percentile(execute_ms, 95),
        "injection.collect_us":
            mean(tracer.durations("injection.collect")) / 1e3,
        "injection.exp_ms_p50": percentile(exp_ms, 50),
        "injection.exp_ms_p95": percentile(exp_ms, 95),
        "machine.fork_us": mean(tracer.durations("machine.fork")) / 1e3,
        "machine.cow_pages_mean": mean([sim["cow_pages"] for sim in sims]),
        "machine.sim_insn": sum(sim["insn"] for sim in sims),
        "compile.blocks_new_mean":
            mean([sim["blocks_new"] for sim in sims]),
        "checkpoint.dispatch_frac":
            mean([1.0 if sim["rung"] else 0.0 for sim in sims]),
        "checkpoint.residue_insn_mean": mean(residues),
    }
    for arch in ARCHES:
        mine = [sim for sim in sims if sim["arch"] == arch]
        insn = sum(sim["insn"] for sim in mine)
        metrics[f"machine.ns_per_insn.{arch}"] = \
            sum(sim["execute_ns"] for sim in mine) / insn if insn else 0.0
    return metrics


def trace(request) -> dict:
    """The traced run.  After a traced set-up, each campaign runs:

    1. as the workload runs it, untraced, timing each progress batch
       (the ``parallel.*`` metrics);
    2. for sharded workloads, serially and untraced: the serial
       reference for ``parallel.efficiency`` and ``trace.overhead_frac``;
    3. re-executed serially with spans (``_traced_campaign``).

    The passes of one campaign run back to back, so the host's phase
    moves little between the timings compared.  Every traced result
    stream then goes through a fresh store (``_store_pass``).
    """
    workload = WORKLOADS[request["workload"]]
    plan = workload.plan(request["seed"], request["child"],
                         request["scale"])
    store_root = request["workdir"]
    tracer = Tracer()
    _traced_setup(tracer)

    reports = []
    sims: list = []
    traced = []
    run_s = serial_s = traced_s = first_batch_s = tail_s = 0.0
    for spec in plan:
        batches: List[float] = []
        report = _run_campaign(
            spec, workload.workers, store_root if workload.store else None,
            progress_callback=lambda done, total, batch:
                batches.append(time.perf_counter()))
        reports.append(report)
        run_s += report["seconds"]
        if batches:
            first_batch_s += batches[0] - report["start"]
            tail_s += report["start"] + report["seconds"] - \
                batches[max(0, len(batches) - workload.workers)]
        if workload.workers > 1:
            report = _run_campaign(spec, 1, label="serial")
            reports.append(report)
        serial_s += report["seconds"]

        start = time.perf_counter()
        results = _traced_campaign(tracer, spec, sims)
        traced_s += time.perf_counter() - start
        report = _report(spec, "traced")
        report.update(injected=len(results), digest=results_digest(results),
                      failed=spec.count - len(results))
        reports.append(report)
        traced.append((spec, results, report["digest"]))
    journal_bytes = _store_pass(tracer, traced, store_root)

    append_us = [d / 1e3 for d in tracer.durations("store.append")]
    metrics = _setup_metrics(tracer)
    metrics.update(_experiment_metrics(tracer, sims))
    metrics.update({
        "store.append_us_p50": percentile(append_us, 50),
        "store.append_us_p95": percentile(append_us, 95),
        "store.journal_bytes_per_result":
            journal_bytes / len(append_us) if append_us else 0.0,
        "store.replay_s": tracer.total_s("store.replay"),
        "store.resume_noop_s": tracer.total_s("store.resume_noop"),
        "parallel.first_batch_s": first_batch_s,
        "parallel.tail_s": tail_s,
        "parallel.efficiency":
            serial_s / (workload.workers * run_s) if run_s else 0.0,
        "parallel.shard_failures": sum(
            report["shard_failures"] for report in reports
            if report["pass"] == "run"),
        "trace.overhead_frac": 1 - serial_s / traced_s if traced_s else 0.0,
    })
    if request.get("spans"):
        tracer.write(Path(request["spans"]), workload.name)
    return {"metrics": metrics, "campaigns": reports}


MODES = {"warmup": warmup, "run": run, "trace": trace, "record": record}


def main(argv) -> int:
    request = json.loads(argv[1])
    print(json.dumps(MODES[request["mode"]](request)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
