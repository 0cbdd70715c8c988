"""Fork throughput: copy-on-write warm-start forks.

``Machine.fork()`` is the per-injection cost floor — every experiment
"reboots" by forking the booted base machine.  This benchmark measures

* **forks/sec** of the COW path (shared pages + inherited warm decode
  cache) on both arches; the end-to-end benchmark tracks the same cost
  per experiment as ``machine.fork_us``;
* **page-copy counts** for a forked clone that runs a representative
  injection window, so the COW hit rate (pages shared vs privatized)
  stays visible;
* **end-to-end injections/sec** for a data campaign at 1, 2, and 4
  workers, the number the fork speedup actually buys.

Scale with ``REPRO_BENCH_SCALE`` like the other benchmarks.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks import common
from repro.injection.campaign import (
    Campaign, CampaignConfig, CampaignContext,
)
from repro.injection.outcomes import CampaignKind
from repro.machine.machine import Machine

_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
FORKS = max(50, int(200 * _SCALE))
COUNT = max(24, int(48 * _SCALE))


@pytest.fixture(scope="module", params=["x86", "ppc"])
def booted(request) -> Machine:
    machine = Machine(request.param)
    machine.boot()
    return machine


def test_bench_fork_rate(benchmark, booted):
    state = {}

    def run_once():
        start = time.perf_counter()
        for _ in range(FORKS):
            booted.fork()
        state["cow"] = FORKS / (time.perf_counter() - start)

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    print(f"\n[{booted.arch}] COW: {state['cow']:.0f} forks/s")
    common.emit(common.env_json_path(), "fork_rate",
                arch=booted.arch, forks=FORKS,
                cow_per_s=round(state["cow"], 1))


def test_bench_cow_hit_rate(benchmark, booted):
    """How many pages does one injection window actually dirty?"""
    state = {}

    def run_once():
        clone = booted.fork()
        for _ in range(12):
            clone.syscall(1)
        state["clone"] = clone

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    mem = state["clone"].cpu.mem
    total = len(mem._pages)
    copied = mem.cow_page_copies
    print(f"\n[{booted.arch}] pages: {total} resident, "
          f"{copied} privatized by COW, "
          f"{mem.shared_pages()} still shared "
          f"(hit rate {1 - copied / total:.0%})")
    assert copied < total            # forking must not copy everything


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bench_injection_throughput(benchmark, workers):
    context = CampaignContext.get("x86", seed=11, ops=40)
    config = CampaignConfig(arch="x86", kind=CampaignKind.DATA,
                            count=COUNT, seed=11, ops=40)
    state = {}

    def run_once():
        start = time.perf_counter()
        state["result"] = Campaign(config, context).run(workers=workers)
        state["elapsed"] = time.perf_counter() - start

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    result = state["result"]
    assert result.injected == COUNT
    assert not result.failures
    print(f"\nworkers={workers}: {COUNT} injections in "
          f"{state['elapsed']:.2f}s = "
          f"{COUNT / state['elapsed']:.1f} inj/s "
          f"({os.cpu_count()} cores)")
    common.emit(common.env_json_path(), "injection_throughput",
                arch="x86", kind="data", workers=workers, count=COUNT,
                seconds=round(state["elapsed"], 3),
                injections_per_s=round(COUNT / state["elapsed"], 2))
