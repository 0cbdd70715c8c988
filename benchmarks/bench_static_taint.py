"""Taint-engine cost and payoff over both kernel images.

Three numbers the propagation analysis has to justify:

* **Wall time** — the interprocedural fixpoint sweep is the most
  expensive static pass; it runs once per image, so it has to be
  small next to a campaign, not free.  Measured as the delta over the classification-only
  analysis on a shared CFG + liveness.
* **Inert rate** — the fraction of analyzed bits the report proves
  inert: the decode-identical / unreachable ``dead_bits`` plus the
  taint-proven ``taint_masked_bits``, and the share beyond
  ``dead_bits``.  The row keeps its ``prune_rate`` key so the
  trajectory stays comparable.
* **Verdict histogram** — how the pure-dataflow residue splits into
  sink / dead / escape, the precision headline (escape is where the
  engine falls back to the calibrated rule).

Rows land in the shared JSON Lines trajectory when
``REPRO_BENCH_JSON`` is set, via :mod:`benchmarks.common`.
"""

from __future__ import annotations

import time

import pytest

from repro.kernel.build import build_kernel

try:
    from benchmarks import common
except ImportError:                      # script mode: sys.path[0] is
    import common                        # the benchmarks directory


@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_bench_taint_analysis(benchmark, arch):
    """Classification-only vs taint-enabled full-image analysis."""
    from repro.static.cfg import build_cfg
    from repro.static.liveness import compute_liveness
    from repro.static.predictor import analyze_image

    image = build_kernel(arch)
    cfg = build_cfg(arch, image)
    liveness = compute_liveness(cfg)
    state = {}

    def run_once():
        t0 = time.perf_counter()
        analyze_image(arch, image, cfg=cfg, liveness=liveness,
                      taint=False)
        t1 = time.perf_counter()
        state["report"] = analyze_image(arch, image, cfg=cfg,
                                        liveness=liveness, taint=True)
        state["base_s"] = t1 - t0
        state["taint_s"] = time.perf_counter() - t1

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    report = state["report"]
    verdicts = report.verdict_counts
    # the inert set is the union: provably-dead flips plus the
    # (disjoint) taint-proven-masked substitutions
    dead = len(report.dead_bits)
    taint_masked = len(report.dead_bits | report.taint_masked_bits)
    inert_rate = taint_masked / report.bit_count
    extra_rate = (taint_masked - dead) / report.bit_count
    row = common.emit(
        common.env_json_path(), f"static_taint_{arch}",
        arch=arch,
        base_seconds=round(state["base_s"], 3),
        taint_seconds=round(state["taint_s"], 3),
        bit_count=report.bit_count,
        taint_masked=taint_masked,
        dead_bits=dead,
        prune_rate=round(inert_rate, 6),
        **{f"verdict_{name}": count
           for name, count in sorted(verdicts.items())})
    print(f"\n[{arch}] taint sweep {row['taint_seconds']:.2f}s "
          f"(+{row['taint_seconds'] - row['base_seconds']:.2f}s over "
          f"classification-only), inert set "
          f"{taint_masked}/{report.bit_count} bits "
          f"({100 * inert_rate:.2f}%; {100 * extra_rate:.2f}% beyond "
          f"the dead set)")
    print(f"[{arch}] verdicts: " + ", ".join(
        f"{name}={count}" for name, count in sorted(
            verdicts.items(), key=lambda kv: -kv[1])))
    # the engine must never *lose* proofs the dead set already had
    assert taint_masked >= dead
