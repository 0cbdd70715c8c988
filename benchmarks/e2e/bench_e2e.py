"""End-to-end injection benchmark: four workloads, five metrics, traced
per-layer costs.

What a user of this system waits for is injection experiments: how many
finish per host second, and how long before the first one starts.  For
each workload (``README.md`` says why each exists) this reports:

* ``inj_per_s`` (1/s): injections completed / seconds inside
  ``Campaign.run``, summed over the workload's campaigns;
* ``setup_s`` (s): cold build of both arches' ``CampaignContext`` plus
  the 8-rung checkpoint ladder;
* ``wall_s`` (s): child start, before ``import repro``, to the last
  result returned;
* ``peak_rss_mb`` (MB): max ``ru_maxrss`` of the child and its workers;
* ``failed_frac`` (ratio): failed / attempted experiments.  An
  experiment fails if it raised, is missing, sat in a ``ShardFailure``
  shard, or belongs to a campaign whose digest mismatched.

Every repeat of every workload runs in a fresh child process
(``e2e_child.py``), so context build is always cold.  Repeats are
interleaved across workloads after one untimed warm-up child, and child
*i* of a workload runs under ``PYTHONHASHSEED=i+1``, the same hash seeds
on every commit.  Each child divides its timings by the host slowdown it
measured (``e2e_child.HostClock``); a metric reports the median over
the run's children.  Every campaign's digest is checked against
``digests.json``; a mismatch fails the run.

Usage (from the repository root)::

    python benchmarks/e2e/bench_e2e.py [--seed 11] [--repeats 3]
        [--json PATH] [--trace SPANS.jsonl]
    python benchmarks/e2e/bench_e2e.py --workload matrix --seed 3 \\
        --seconds 20 --trace 0

``--seconds`` sizes the repeat count to fill about that long on the
reference host.  ``--trace`` adds one traced child per workload and
prints the per-layer metrics (``--trace 1`` keeps the spans under
``benchmarks/e2e/.work/``; a path writes them there).  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and the
medians of the end-to-end metrics, or of the per-layer metrics when
tracing.  Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from e2e_workloads import WORKLOADS, load_digests, save_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKDIR = HERE / ".work"

#: the metrics and units ``BENCHMARK.json`` declares; ``failed_frac``
#: is reported too, though it is never a gated metric (it is 0 on a
#: good run, and the run's ``failed`` count carries it)
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {metric["name"]: metric["unit"] for metric in BENCH["end_to_end"]}
LAYER_UNITS = {metric["name"]: metric["unit"] for metric in BENCH["per_layer"]}

#: a child that runs this long is stuck
CHILD_TIMEOUT_S = 150
#: ``--seconds`` runs must be done within 180 s
SECONDS_RUN_DEADLINE_S = 170


class Children:
    """Starts child processes, one at a time, and always reaps them.

    Each child gets its own session, so a timed-out child is killed
    together with its parallel-engine workers.
    """

    def __init__(self, deadline: Optional[float]):
        self.deadline = deadline
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (
            os.pathsep + pythonpath if pythonpath else ""))

    def run(self, request: dict, hash_seed: int) -> Optional[dict]:
        """The child's JSON reply, or ``None`` if it failed."""
        timeout = CHILD_TIMEOUT_S
        if self.deadline is not None:
            timeout = min(timeout, self.deadline - time.monotonic())
            if timeout <= 0:
                print(f"skipped {request['mode']} child: out of time",
                      file=sys.stderr)
                return None
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "e2e_child.py"), json.dumps(request)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=dict(self.env, PYTHONHASHSEED=str(hash_seed)),
            start_new_session=True)
        try:
            out, _err = proc.communicate(timeout=timeout)
        except BaseException as exc:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:       # the group already exited
                pass
            proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            print(f"{request['mode']} child timed out after {timeout:.0f} s",
                  file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"{request['mode']} child exited {proc.returncode}",
                  file=sys.stderr)
            return None
        return json.loads(out.strip().splitlines()[-1])


class Verdict:
    """Failure accounting and digest checks for one workload.

    A campaign's digest must equal its pinned digest, or, for a
    campaign ``digests.json`` does not pin (``--scale`` runs), the first
    digest any child reported for it.  Traced, serial and sharded passes
    are all held to the same digest.
    """

    def __init__(self, pinned: Dict[str, str]):
        self.pinned = pinned
        self.seen: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def child_failed(self, plan, what: str) -> None:
        count = sum(spec.count for spec in plan)
        self.attempted += count
        self.failed += count
        self.problems.append(f"{what} child failed")

    def check(self, reports) -> None:
        for report in reports:
            key, failed = report["key"], report["failed"]
            self.attempted += report["count"]
            if report["error"]:
                self.problems.append(f"{key} ({report['pass']}): "
                                     f"{report['error']}")
            digest = report["digest"]
            if digest is not None:
                expected = self.pinned.get(key) or \
                    self.seen.setdefault(key, digest)
                if digest != expected:
                    failed = report["count"]
                    self.problems.append(
                        f"{key} ({report['pass']}): digest {digest[:12]} "
                        f"!= {expected[:12]}")
            self.failed += failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def end_to_end(replies: List[dict], verdict: Verdict) -> Dict[str, float]:
    """The value each end-to-end metric reports for one workload: the
    median over the run's children, each child's timings already
    divided by its host slowdown (``e2e_child.HostClock``)."""
    children = [reply["metrics"] for reply in replies]
    values = {metric: statistics.median(child[metric] for child in children)
              for metric in children[0]}
    values["failed_frac"] = verdict.failed / verdict.attempted
    return values


def _host() -> dict:
    """Informational host context for ``--json`` rows (never gated)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = sum(
        1 for path in (ROOT / "src" / "repro").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
        for line in path.read_text(errors="replace").splitlines()
        if line.strip())
    return {"git_commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "src_lines": src_lines}


def _print_table(title: str, rows) -> None:
    """*rows*: ``(metric, unit, value, per-child values or None)``."""
    print(f"\n{title}")
    print(f"  {'metric':<34} {'unit':<8} {'value':>12} {'child med':>12} "
          f"{'child min':>12} {'child max':>12}")
    for name, unit, value, per_child in rows:
        spread = (f"{statistics.median(per_child):>12.6g} "
                  f"{min(per_child):>12.6g} {max(per_child):>12.6g}"
                  if per_child else "")
        print(f"  {name:<34} {unit:<8} {value:>12.6g} {spread}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="end-to-end injection benchmark",
        epilog="run from anywhere; children run from the repository root")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=11,
                        help="workload seed: campaign submission order")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per workload (default 3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="size repeats to fill about this long per "
                             "workload instead of --repeats")
    parser.add_argument("--trace", default="0", metavar="0|1|SPANS.jsonl",
                        help="add one traced child per workload; 1 keeps "
                             "spans under .work/, a path writes them there")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="append one JSON row per workload to PATH")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every campaign size (smoke runs)")
    parser.add_argument("--record-digests", action="store_true",
                        help="re-record digests.json from a serial run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still kills and reaps its child (Children.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    children = Children(start + SECONDS_RUN_DEADLINE_S
                        if args.seconds is not None else None)
    WORKDIR.mkdir(exist_ok=True)

    if args.record_digests:
        reply = children.run({"mode": "record"}, hash_seed=0)
        if reply is None:
            return 1
        save_digests(reply["digests"])
        print(f"recorded {len(reply['digests'])} digests")
        return 0

    names = args.workload or list(WORKLOADS)
    spans = None
    if args.trace == "1":
        spans = WORKDIR / "spans.jsonl"
    elif args.trace != "0":
        spans = Path(args.trace).resolve()
    if spans is not None:
        spans.unlink(missing_ok=True)
    pinned = load_digests()
    verdicts = {name: Verdict(pinned) for name in names}
    replies: Dict[str, List[dict]] = {name: [] for name in names}
    traced: Dict[str, dict] = {}
    repeats = {name: WORKLOADS[name].repeats_for(args.seconds)
               if args.seconds is not None else args.repeats
               for name in names}

    def submit(mode: str, name: str, child: int) -> Optional[dict]:
        reply = children.run(
            {"mode": mode, "workload": name, "seed": args.seed,
             "child": child, "scale": args.scale, "workdir": str(WORKDIR),
             "spans": spans and str(spans)},
            hash_seed=child + 1)
        if reply is None:
            verdicts[name].child_failed(
                WORKLOADS[name].plan(args.seed, child, args.scale),
                f"{mode} {name}")
        else:
            verdicts[name].check(reply["campaigns"])
        return reply

    children.run({"mode": "warmup"}, hash_seed=0)     # untimed
    for repeat in range(max(repeats.values())):
        for name in names:
            if repeat >= repeats[name]:
                continue
            processes = WORKLOADS[name].processes
            for child in range(repeat * processes, (repeat + 1) * processes):
                reply = submit("run", name, child)
                if reply is not None:
                    replies[name].append(reply)
    if spans is not None:
        for name in names:
            reply = submit("trace", name, 0)
            if reply is None:
                continue
            traced[name] = reply
            missing = set(LAYER_UNITS) - set(reply["metrics"])
            if missing:
                verdicts[name].problems.append(
                    f"traced run lacks {sorted(missing)}")

    correct = all(verdict.correct for verdict in verdicts.values()) and \
        all(replies.values()) and (spans is None or len(traced) == len(names))
    metrics = report(args, names, verdicts, replies, traced, repeats,
                     tracing=spans is not None)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(v.attempted for v in verdicts.values()),
        "failed": sum(v.failed for v in verdicts.values()),
        "metrics": metrics}))
    return 0 if correct else 1


def report(args, names, verdicts, replies, traced, repeats,
           tracing: bool) -> dict:
    """Print every metric, append ``--json`` rows, and return the
    metrics of the final JSON line: the end-to-end metrics, or the
    per-layer ones on a traced run (prefixed by workload when several
    workloads ran)."""
    host = {}
    if args.json is not None:
        sys.path.insert(0, str(ROOT))
        from benchmarks import common
        host = _host()
    units = dict(E2E_UNITS, failed_frac="ratio")
    line = {}
    for name in names:
        verdict = verdicts[name]
        values = end_to_end(replies[name], verdict) if replies[name] else {}
        children = {metric: [reply["metrics"][metric]
                             for reply in replies[name]]
                    for metric in E2E_UNITS}
        _print_table(f"{name}: seed {args.seed}, {len(replies[name])} "
                     f"children, {verdict.attempted} experiments, "
                     f"{'correct' if verdict.correct else 'INCORRECT'}",
                     [(metric, unit, values[metric], children.get(metric))
                      for metric, unit in units.items() if metric in values])
        for problem in verdict.problems:
            print(f"  FAIL {problem}")
        layers = traced[name]["metrics"] if name in traced else {}
        if layers:
            _print_table(f"{name}: per-layer, one traced child",
                         [(metric, unit, layers[metric], None)
                          for metric, unit in LAYER_UNITS.items()
                          if metric in layers])
        shown, source = (LAYER_UNITS, layers) if tracing else \
            (E2E_UNITS, values)
        prefix = "" if len(names) == 1 else f"{name}."
        line.update({prefix + metric: {"value": source[metric], "unit": unit}
                     for metric, unit in shown.items() if metric in source})
        if args.json is None:
            continue
        common.emit(args.json, "e2e", workload=name, seed=args.seed,
                    repeats=repeats[name], attempted=verdict.attempted,
                    failed=verdict.failed, correct=verdict.correct,
                    metrics={metric: {"value": value, "unit": units[metric],
                                      "children": children.get(metric)}
                             for metric, value in values.items()},
                    children=[{"host": reply["host"],
                               "campaigns": reply["campaigns"]}
                              for reply in replies[name]],
                    **host)
        if layers:
            common.emit(args.json, "e2e_trace", workload=name,
                        seed=args.seed,
                        metrics={metric: {"value": layers[metric],
                                          "unit": unit}
                                 for metric, unit in LAYER_UNITS.items()
                                 if metric in layers},
                        campaigns=traced[name]["campaigns"], **host)
    return line


if __name__ == "__main__":
    sys.exit(main())
