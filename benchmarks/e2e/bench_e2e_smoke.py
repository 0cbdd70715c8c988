"""Smoke test for the end-to-end benchmark, at 2% of its size.

Collected by ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``, never
by the tier-1 suite (which collects ``tests/`` only).  It runs every
workload once untraced and once traced in well under a minute and
checks what the full benchmark promises: every metric ``BENCHMARK.json``
names is reported, no experiment failed, and the traced re-execution
reproduced the untraced digests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_every_workload_reports_every_metric(tmp_path):
    rows_path = tmp_path / "rows.jsonl"
    proc = _bench("--scale", "0.02", "--repeats", "1",
                  "--trace", str(tmp_path / "spans.jsonl"),
                  "--json", str(rows_path))
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0

    rows = [json.loads(row) for row in rows_path.read_text().splitlines()]
    untraced = {row["workload"]: row for row in rows if row["bench"] == "e2e"}
    traced = {row["workload"]: row for row in rows
              if row["bench"] == "e2e_trace"}
    names = {workload["name"] for workload in BENCH["workloads"]}
    assert set(untraced) == set(traced) == names
    for name in names:
        metrics = untraced[name]["metrics"]
        assert {m["name"] for m in BENCH["end_to_end"]} <= set(metrics)
        assert metrics["failed_frac"]["value"] == 0
        assert {m["name"] for m in BENCH["per_layer"]} <= \
            set(traced[name]["metrics"])
        # one digest per campaign across every pass: the untraced
        # children, and the traced child's run, serial, traced passes
        digests = {}
        for report in [r for child in untraced[name]["children"]
                       for r in child["campaigns"]] + \
                traced[name]["campaigns"]:
            digests.setdefault(report["key"], set()).add(report["digest"])
        assert "traced" in {r["pass"] for r in traced[name]["campaigns"]}
        assert all(len(seen) == 1 and None not in seen
                   for seen in digests.values()), digests
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_fails_without_the_simulator(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _bench("--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                  "--seconds", str(BENCH["run_seconds"]), "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
