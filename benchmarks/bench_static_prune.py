"""Static analyzer cost and the --prune dead payoff.

Two questions the static subsystem has to answer for its keep:

* **Analyzer wall time** — the full CFG + liveness + per-bit
  corruption sweep over each kernel image.  This is a one-off cost
  (``dead_code_bits`` memoizes per arch) so it only has to be small
  next to a campaign, not free.
* **Injections/sec with and without pruning** — a code campaign at
  the same count, prune="none" vs prune="dead".  Pruning redraws
  provably-inert targets (decode-identical flips, unreachable code),
  so the pruned campaign spends its budget on experiments that can
  activate; the headline is activated-injections/sec, not raw
  injections/sec.  On x86 the kernel has no prunable bits and the two
  rows must coincide exactly.

Scale with ``REPRO_BENCH_SCALE`` like the other benchmarks.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.injection.campaign import (
    Campaign, CampaignConfig, CampaignContext,
)
from repro.injection.outcomes import CampaignKind
from repro.kernel.build import build_kernel

try:
    from benchmarks import common
except ImportError:                      # script mode: sys.path[0] is
    import common                        # the benchmarks directory

_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
COUNT = max(40, int(80 * _SCALE))


@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_bench_analyzer_wall_time(benchmark, arch):
    """Full static analysis of one image, cold (no memoization)."""
    from repro.static.cfg import build_cfg
    from repro.static.liveness import compute_liveness
    from repro.static.predictor import analyze_image

    image = build_kernel(arch)
    state = {}

    def run_once():
        start = time.perf_counter()
        cfg = build_cfg(arch, image)
        liveness = compute_liveness(cfg)
        state["report"] = analyze_image(arch, image, cfg=cfg,
                                        liveness=liveness)
        state["elapsed"] = time.perf_counter() - start

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    report = state["report"]
    bits_per_sec = report.bit_count / state["elapsed"]
    print(f"\n[{arch}] {report.bit_count} bits analyzed in "
          f"{state['elapsed']:.2f}s = {bits_per_sec:.0f} bits/s, "
          f"{len(report.dead_bits)} prunable")
    common.emit(common.env_json_path(), "static_analyzer_wall_time",
                arch=arch, bits=report.bit_count,
                prunable=len(report.dead_bits),
                seconds=round(state["elapsed"], 3),
                bits_per_sec=round(bits_per_sec, 1))


@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_bench_prune_throughput(benchmark, arch):
    """Code campaign, prune='none' vs prune='dead', same count."""
    context = CampaignContext.get(arch, seed=11, ops=40)
    # warm the memoized prune set so the timed rows compare campaign
    # cost, not analyzer cost (measured separately above)
    from repro.static.predictor import dead_code_bits
    prunable = len(dead_code_bits(arch))
    state = {}

    def run_policy(prune):
        config = CampaignConfig(arch=arch, kind=CampaignKind.CODE,
                                count=COUNT, seed=11, ops=40,
                                prune=prune)
        start = time.perf_counter()
        result = Campaign(config, context).run()
        elapsed = time.perf_counter() - start
        return result, elapsed

    def run_once():
        state["none"] = run_policy("none")
        state["dead"] = run_policy("dead")

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    print(f"\n[{arch}] {prunable} prunable bits, "
          f"{COUNT} injections per row")
    for policy in ("none", "dead"):
        result, elapsed = state[policy]
        assert result.injected == COUNT
        print(f"  prune={policy:<5} {COUNT / elapsed:7.1f} inj/s, "
              f"{result.activated / elapsed:7.1f} activated inj/s, "
              f"{result.pruned_draws} redraws")
        common.emit(common.env_json_path(), "static_prune_throughput",
                    arch=arch, prune=policy, count=COUNT,
                    seconds=round(elapsed, 3),
                    injections_per_sec=round(COUNT / elapsed, 2),
                    activated_per_sec=round(
                        result.activated / elapsed, 2),
                    redraws=result.pruned_draws)
    if arch == "x86":
        # no prunable bits: pruning must be a bit-identical no-op
        assert prunable == 0
        assert [r.outcome for r in state["none"][0].results] \
            == [r.outcome for r in state["dead"][0].results]
    else:
        assert prunable > 0
        # the pruned campaign never spends an injection on a
        # provably-inert bit
        dead_set = dead_code_bits(arch)
        assert all((r.target.addr, r.target.bit) not in dead_set
                   for r in state["dead"][0].results)
