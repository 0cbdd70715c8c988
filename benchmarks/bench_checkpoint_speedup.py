"""End-to-end campaign speedup from checkpoint-ladder dispatch.

Every experiment used to replay the clean workload from the fork point
to its trigger instant; the checkpoint ladder (``repro.checkpoint``)
pays that prefix once per context and dispatches each experiment from
the nearest snapshot.  This bench measures what that buys end to end:
the same register campaign (registers are never screened, so every
experiment simulates) with ``checkpoints`` on vs off, everything
included on the "on" side — the ladder capture run is re-paid every
repeat by clearing the context's ladder cache, so the measured ratio
is the worst case of a single campaign, not an amortized best case.

Two entry points:

* the pytest-benchmark test below (``pytest benchmarks/``), which
  prints the per-arch speedup and appends a JSON trajectory row when
  ``REPRO_BENCH_JSON`` is set;
* a script mode, whose JSON trajectory CI records::

      PYTHONPATH=src python benchmarks/bench_checkpoint_speedup.py \\
          --json bench.jsonl [--enforce-min-speedup X]

  best-of-N with the two sides interleaved (so host drift hits both
  alike) and GC paused; with a floor, exits non-zero if either
  architecture falls below it.

The ratio is not a CI gate: the base machine starts with the clean
window's compiled blocks, which speeds up the off side too, so on/off
does not isolate what dispatch buys.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from repro.injection.campaign import (
    Campaign, CampaignConfig, CampaignContext,
)
from repro.injection.outcomes import CampaignKind

try:
    from benchmarks import common
except ImportError:                      # script mode: sys.path[0] is
    import common                        # the benchmarks directory

_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
COUNT = max(24, int(48 * _SCALE))
SEED = 11
OPS = 40


def _run_once(context: CampaignContext, checkpoints: int) -> float:
    """One full campaign (seconds), ladder build included: the on-side
    cache is cleared first, so every repeat pays the capture run."""
    context._ladders.clear()
    config = CampaignConfig(arch=context.arch,
                            kind=CampaignKind.REGISTER,
                            count=COUNT, seed=SEED, ops=OPS,
                            checkpoints=checkpoints)
    start = time.perf_counter()
    result = Campaign(config, context).run()
    elapsed = time.perf_counter() - start
    assert result.injected == COUNT
    assert not result.failures
    return elapsed


def measure_pair(arch: str, repeats: int = 3,
                 checkpoints: int = 8) -> "tuple[float, float]":
    """(off, on) best-of-*repeats* campaign wall time in seconds."""
    context = CampaignContext.get(arch, SEED, OPS)
    best = {"off": float("inf"), "on": float("inf")}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            best["off"] = min(best["off"], _run_once(context, 0))
            best["on"] = min(best["on"],
                             _run_once(context, checkpoints))
    finally:
        if gc_was_enabled:
            gc.enable()
    return best["off"], best["on"]


# ---------------------------------------------------------------------------
# pytest-benchmark entry point


def test_bench_checkpoint_speedup(benchmark, arch):
    state = {}

    def run_once():
        state["pair"] = measure_pair(arch, repeats=1)

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    off, on = state["pair"]
    speedup = off / on
    print(f"\n[{arch}] checkpoints off: {COUNT / off:.1f} inj/s, "
          f"on: {COUNT / on:.1f} inj/s ({speedup:.2f}x)")
    common.emit(common.env_json_path(), "checkpoint_speedup",
                arch=arch, count=COUNT, ops=OPS,
                off_seconds=round(off, 3), on_seconds=round(on, 3),
                speedup=round(speedup, 3))
    assert speedup > 1.0


def pytest_generate_tests(metafunc):
    if "arch" in metafunc.fixturenames:
        metafunc.parametrize("arch", ["x86", "ppc"])


# ---------------------------------------------------------------------------
# script mode: the CI speedup gate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="checkpoint-dispatch campaign throughput gate")
    parser.add_argument("--enforce-min-speedup", type=float,
                        default=None, metavar="X",
                        help="exit non-zero unless on/off >= X on "
                             "both architectures")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N repeats per side")
    parser.add_argument("--checkpoints", type=int, default=8,
                        help="ladder rungs for the on side")
    common.add_json_argument(parser)
    args = parser.parse_args(argv)

    print(f"{'arch':<6} {'off inj/s':>11} {'on inj/s':>11} "
          f"{'speedup':>9}   ({COUNT} injections, ladder build "
          f"included)")
    failures = []
    for arch in ("x86", "ppc"):
        off, on = measure_pair(arch, args.repeats, args.checkpoints)
        speedup = off / on
        print(f"{arch:<6} {COUNT / off:>11.1f} {COUNT / on:>11.1f} "
              f"{speedup:>8.2f}x")
        common.emit(args.json, "checkpoint_speedup", arch=arch,
                    count=COUNT, ops=OPS,
                    checkpoints=args.checkpoints,
                    off_seconds=round(off, 3),
                    on_seconds=round(on, 3),
                    speedup=round(speedup, 3))
        if args.enforce_min_speedup is not None and \
                speedup < args.enforce_min_speedup:
            failures.append((arch, speedup))
    if failures:
        for arch, speedup in failures:
            print(f"FAIL: {arch} checkpoint dispatch is only "
                  f"{speedup:.2f}x the from-boot path (floor "
                  f"{args.enforce_min_speedup:.2f}x)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
