"""Validate static sensitivity predictions against dynamic campaigns.

Validation modes:

* :func:`validate_code_campaign` joins a dynamic code-campaign result
  with a :class:`StaticSensitivityReport` bit-by-bit (every code
  target is an (instruction address, bit) pair, exactly the report's
  key) and builds a predicted-vs-measured confusion matrix.  The
  headline number is *manifestation accuracy*: among injections the
  workload activated, how often the static predictor called the
  manifest/mask outcome correctly.  When the report carries taint
  distances, the validation also checks the *monotone agreement*
  between the static distance-to-sink bound and the measured
  instructions-to-crash latency (concordant-pair fraction, see
  :func:`distance_latency_agreement`).
* :func:`validate_prune` is the soundness check of the report's
  inert-bit sets: it *injects* every bit of the chosen set ("dead":
  decode-identical flips and unreachable code; "taint": additionally
  every taint-proven-masked bit) and verifies none of them
  manifests.  Any disagreement here is a soundness bug, not a
  calibration miss.
* :func:`validate_propagation` joins static evidence chains against
  the PR 5 trace dissector: it re-runs sampled sink-verdict
  experiments with the flight recorder armed, diffs each against its
  clean twin, and checks the statically-predicted propagation route
  against the dynamically-observed infection.

All are pure functions of their inputs, so a campaign run serially
and one run with workers (bit-identical by construction) validate to
identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, List, Optional, Sequence, Tuple,
)

from repro.injection.campaign import (
    Campaign, CampaignConfig, CampaignContext, CampaignKnobs,
)
from repro.injection.outcomes import CampaignKind, InjectionResult
from repro.static.report import StaticSensitivityReport

#: row/column labels, static prediction x dynamic measurement
LABELS = ("manifested", "not-manifested", "not-activated")


def dynamic_label(result: InjectionResult) -> str:
    """Collapse the dynamic outcome taxonomy onto the static one."""
    if not result.outcome.activated:
        return "not-activated"
    return "manifested" if result.outcome.manifested \
        else "not-manifested"


@dataclass
class ConfusionMatrix:
    """Counts of (static prediction, dynamic outcome) pairs."""

    counts: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def add(self, predicted: str, dynamic: str, n: int = 1) -> None:
        if predicted not in LABELS or dynamic not in LABELS:
            raise ValueError(f"unknown label {predicted!r}/{dynamic!r}")
        key = (predicted, dynamic)
        self.counts[key] = self.counts.get(key, 0) + n

    def get(self, predicted: str, dynamic: str) -> int:
        return self.counts.get((predicted, dynamic), 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def activated_total(self) -> int:
        """Experiments the workload actually activated."""
        return sum(n for (_, dyn), n in self.counts.items()
                   if dyn != "not-activated")

    @property
    def manifestation_accuracy(self) -> float:
        """Among dynamically-activated experiments: how often did the
        predictor call manifest vs mask correctly?  A static
        ``not-activated`` counts as predicting "no manifestation" —
        if the workload then crashed, that is a (serious) miss."""
        activated = self.activated_total
        if not activated:
            return 0.0
        correct = 0
        for (pred, dyn), n in self.counts.items():
            if dyn == "not-activated":
                continue
            if (pred == "manifested") == (dyn == "manifested"):
                correct += n
        return correct / activated

    @property
    def activation_accuracy(self) -> float:
        """How often static reachability agreed with dynamic
        activation.  Static reachability is necessary, not
        sufficient: reachable-but-cold paths dynamically screen as
        not-activated, so this is informative, not a gate."""
        if not self.total:
            return 0.0
        correct = sum(n for (pred, dyn), n in self.counts.items()
                      if (pred == "not-activated")
                      == (dyn == "not-activated"))
        return correct / self.total

    def render(self) -> str:
        lines = ["predicted \\ dynamic" + "".join(
            f"{label:>16}" for label in LABELS)]
        for pred in LABELS:
            row = f"{pred:<19}" + "".join(
                f"{self.get(pred, dyn):>16}" for dyn in LABELS)
            lines.append(row)
        return "\n".join(lines)


@dataclass
class LatencyAgreement:
    """Monotone agreement between static distance-to-sink bounds and
    measured instructions-to-crash latencies.

    Over every pair of crashed experiments with distinct static
    distances and distinct measured latencies, a pair is *concordant*
    when the experiment predicted closer to its sink also crashed in
    fewer instructions (Kendall-style; ties in either dimension are
    dropped).  The static distance is a lower bound on a *different*
    dynamic quantity (instructions from corruption to first sink, not
    to the eventual crash), so the gate is rank agreement, not
    equality."""

    #: (static distance bound, measured instructions-to-crash)
    pairs: List[Tuple[int, int]] = field(default_factory=list)
    concordant: int = 0
    discordant: int = 0
    #: experiments whose measured latency undercut the static bound
    #: (the run faulted at or before its predicted first sink — an
    #: at-site decode/fetch effect outside the propagation model);
    #: excluded from the pairs above, disclosed here
    bound_violations: int = 0

    @property
    def comparable(self) -> int:
        return self.concordant + self.discordant

    @property
    def agreement(self) -> Optional[float]:
        """Concordant fraction, or ``None`` with no comparable pairs."""
        if not self.comparable:
            return None
        return self.concordant / self.comparable

    def render(self) -> str:
        note = f" ({self.bound_violations} bound violation(s) " \
               f"excluded)" if self.bound_violations else ""
        if self.agreement is None:
            return (f"distance-vs-latency: {len(self.pairs)} "
                    f"experiment(s), no comparable pairs{note}")
        return (f"distance-vs-latency: {len(self.pairs)} "
                f"experiment(s), {self.comparable} comparable "
                f"pair(s), {100.0 * self.agreement:.0f}% "
                f"concordant{note}")


def _agreement_from_rows(
        rows: Sequence[Tuple[int, int]]) -> LatencyAgreement:
    """Kendall-style concordance over (distance, latency) rows.

    Rows whose latency undercuts the distance bound mean the run
    failed *before* reaching the predicted first sink — the failure
    was not the propagation the distance models (e.g. the corrupted
    instruction itself faulted) — so they are counted as
    ``bound_violations`` and dropped from the ranking."""
    agreement = LatencyAgreement()
    for distance, latency in rows:
        if latency < distance:
            agreement.bound_violations += 1
        else:
            agreement.pairs.append((distance, latency))
    pairs = agreement.pairs
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            (d_i, l_i), (d_j, l_j) = pairs[i], pairs[j]
            if d_i == d_j or l_i == l_j:
                continue
            if (d_i < d_j) == (l_i < l_j):
                agreement.concordant += 1
            else:
                agreement.discordant += 1
    return agreement


def distance_latency_agreement(
        results: Sequence[InjectionResult],
        report: StaticSensitivityReport) -> LatencyAgreement:
    """Collect (static distance, measured latency) rows from crashed
    experiments whose prediction carries a distance bound, and count
    concordant vs discordant orderings."""
    rows: List[Tuple[int, int]] = []
    for result in results:
        latency = result.latency_instructions
        if latency is None or not result.outcome.manifested:
            continue
        target = result.target
        prediction = report.lookup(target.addr, target.bit)
        if prediction.distance is None:
            continue
        rows.append((prediction.distance, latency))
    return _agreement_from_rows(rows)


def distance_latency_probe(arch: str, seed: int = CampaignKnobs.seed,
                           ops: int = CampaignKnobs.ops,
                           per_distance: int = 4,
                           max_distance: Optional[int] = None
                           ) -> LatencyAgreement:
    """Targeted monotone-agreement probe: inject sink-verdict bits
    spread across static distances and rank-compare the bounds
    against the trace-measured dynamic distance-to-sink (the
    instructions from activation to the first divergent memory
    access or control transfer in the faulty-vs-twin trace diff).

    That diff instant — not instructions-to-crash, and not even
    stage-1 cycles-to-exception — is the quantity the static bound
    models: a wrong-address access can read mapped-but-wrong memory
    and crash only thousands of instructions later (the ppc Bad Area
    pattern), so any crash-anchored latency is dominated by terms
    uncorrelated with the 1-10 instruction propagation distances.
    The deterministic campaigns surface only a handful of
    pure-dataflow manifestations, too few pairs for a stable rank
    check — this probe instead *selects* activated sink-verdict bits
    per distance bucket (up to *per_distance* each, evenly strided),
    injects exactly those with the flight recorder armed, and diffs
    each against its clean twin."""
    import collections

    from repro.injection.targets import CodeTarget
    from repro.kernel.build import build_kernel
    from repro.static.cfg import build_cfg
    from repro.static.predictor import analyze_image
    from repro.static.report import PredictedOutcome
    from repro.static.taint import VERDICT_SINK

    image = build_kernel(arch)
    cfg = build_cfg(arch, image)
    report = analyze_image(arch, image, cfg=cfg)
    context = CampaignContext.get(arch, seed, ops)
    config = CampaignConfig(arch=arch, kind=CampaignKind.CODE,
                            count=1, seed=seed, ops=ops,
                            exec_mode="step", checkpoints=0)
    campaign = Campaign(config, context)

    by_distance: Dict[int, List[CodeTarget]] = \
        collections.defaultdict(list)
    for (addr, bit), prediction in sorted(report.predictions.items()):
        if prediction.verdict != VERDICT_SINK or \
                prediction.distance is None or \
                prediction.outcome is not PredictedOutcome.MANIFESTED:
            continue
        if max_distance is not None and \
                prediction.distance > max_distance:
            continue
        name, block_start = cfg.insn_map[addr]
        block = cfg.functions[name].blocks[block_start]
        node = next(n for n in block.insns if n.addr == addr)
        target = CodeTarget(function=name, addr=addr,
                            insn_len=node.length, bit=bit)
        if not campaign._screen_not_activated(target):
            by_distance[prediction.distance].append(target)

    rows: List[Tuple[int, int]] = []
    index = 0
    for distance, live in sorted(by_distance.items()):
        stride = max(1, len(live) // per_distance)
        for target in live[::stride][:per_distance]:
            joined = _traced_dissection(campaign, index, target, arch)
            index += 1
            if joined.sink_latency is not None:
                rows.append((distance, joined.sink_latency))
    return _agreement_from_rows(rows)


@dataclass
class StaticValidation:
    """Outcome of joining one dynamic code campaign with the static
    report for the same architecture."""

    arch: str
    matrix: ConfusionMatrix
    #: activated experiments the predictor got wrong, with the
    #: static corruption class for post-mortem
    mismatches: List[Tuple[InjectionResult, str, str]] \
        = field(default_factory=list)
    #: distance-vs-latency monotone agreement (None when the report
    #: carries no taint distances, i.e. taint was off)
    latency: Optional[LatencyAgreement] = None

    @property
    def manifestation_accuracy(self) -> float:
        return self.matrix.manifestation_accuracy

    def render(self) -> str:
        lines = [f"static-vs-dynamic validation: {self.arch}",
                 self.matrix.render(),
                 f"activated experiments: "
                 f"{self.matrix.activated_total}/{self.matrix.total}",
                 f"manifestation accuracy: "
                 f"{100.0 * self.manifestation_accuracy:.1f}%",
                 f"activation agreement:   "
                 f"{100.0 * self.matrix.activation_accuracy:.1f}%"]
        if self.latency is not None:
            lines.append(self.latency.render())
        return "\n".join(lines)


def validate_code_campaign(
        results: Sequence[InjectionResult],
        report: Optional[StaticSensitivityReport] = None
        ) -> StaticValidation:
    """Join dynamic code-campaign results with static predictions."""
    if not results:
        raise ValueError("no results to validate")
    arch = results[0].arch
    if report is None:
        from repro.static.predictor import analyze_kernel
        report = analyze_kernel(arch)
    if report.arch != arch:
        raise ValueError(f"report is {report.arch}, results are {arch}")

    matrix = ConfusionMatrix()
    mismatches: List[Tuple[InjectionResult, str, str]] = []
    for result in results:
        target = result.target
        prediction = report.lookup(target.addr, target.bit)
        pred, dyn = prediction.outcome.value, dynamic_label(result)
        matrix.add(pred, dyn)
        if dyn != "not-activated" and \
                (pred == "manifested") != (dyn == "manifested"):
            mismatches.append((result, pred,
                               prediction.corruption.value))
    latency = None
    if any(p.distance is not None for p in report.predictions.values()):
        latency = distance_latency_agreement(results, report)
    return StaticValidation(arch=arch, matrix=matrix,
                            mismatches=mismatches, latency=latency)


@dataclass
class PruneValidation:
    """Outcome of dynamically injecting every prunable bit."""

    arch: str
    prunable_bits: int
    injected: int
    #: injections on prunable bits that manifested — must be empty
    disagreements: List[InjectionResult] = field(default_factory=list)
    #: which inert-bit set was injected ("dead" or "taint")
    policy: str = "dead"

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def render(self) -> str:
        status = "ok" if self.ok else \
            f"{len(self.disagreements)} DISAGREEMENT(S)"
        return (f"prune validation ({self.policy}): {self.arch}: "
                f"{self.injected}/{self.prunable_bits} prunable bits "
                f"injected, {status}")


def validate_prune(arch: str, seed: int = CampaignKnobs.seed,
                   ops: int = CampaignKnobs.ops,
                   limit: Optional[int] = None,
                   policy: str = "dead") -> PruneValidation:
    """Inject every statically-prunable bit and check none manifests.

    ``policy`` selects the bit set: "dead" injects the provably-dead
    bits (decode-identical flips, unreachable code); "taint" injects
    that set plus every taint-proven-masked bit.  ``limit`` caps the
    number of injections (evenly strided over the sorted prunable
    set) so tests can sample; the full sweep is the CI-gate /
    release check.
    """
    from repro.injection.targets import CodeTarget
    from repro.kernel.build import build_kernel
    from repro.static.cfg import build_cfg
    from repro.static.predictor import analyze_image

    if policy not in ("dead", "taint"):
        raise ValueError(f"unknown prune policy {policy!r}; "
                         f"expected 'dead' or 'taint'")
    image = build_kernel(arch)
    cfg = build_cfg(arch, image)
    report = analyze_image(arch, image, cfg=cfg,
                           taint=policy == "taint")
    bits = report.dead_bits
    if policy == "taint":
        bits = bits | report.taint_masked_bits
    dead = sorted(bits)
    chosen = dead
    if limit is not None and limit < len(dead):
        stride = len(dead) / limit
        chosen = [dead[int(i * stride)] for i in range(limit)]

    targets: List[CodeTarget] = []
    for addr, bit in chosen:
        name, block_start = cfg.insn_map[addr]
        block = cfg.functions[name].blocks[block_start]
        node = next(n for n in block.insns if n.addr == addr)
        targets.append(CodeTarget(function=name, addr=addr,
                                  insn_len=node.length, bit=bit))

    context = CampaignContext.get(arch, seed, ops)
    config = CampaignConfig(arch=arch, kind=CampaignKind.CODE,
                            count=max(1, len(targets)), seed=seed,
                            ops=ops)
    campaign = Campaign(config, context)
    disagreements: List[InjectionResult] = []
    for index, target in enumerate(targets):
        result = campaign.run_target(index, target)
        if result.outcome.manifested:
            disagreements.append(result)
    return PruneValidation(arch=arch, prunable_bits=len(dead),
                           injected=len(targets),
                           disagreements=disagreements,
                           policy=policy)


# -- trace join ---------------------------------------------------------------

@dataclass
class TracedJoin:
    """Everything one traced faulty-vs-twin diff yields for joining."""

    result: InjectionResult
    dissection: object                     # trace.dissect.Dissection
    #: every pc the faulty run fetched
    fetched: FrozenSet[int]
    #: instructions from activation to the first divergent memory
    #: access or control transfer — the dynamic counterpart of the
    #: static distance-to-sink bound (None: no such divergence)
    sink_latency: Optional[int]


def _traced_dissection(campaign, index: int, target,
                       arch: str) -> TracedJoin:
    """Run experiment (*index*, *target*) traced, run its clean twin,
    and diff them (the per-experiment half of the trace join)."""
    from repro.injection.injector import InjectionRun
    from repro.trace.dissect import dissect_traces
    from repro.trace.events import EventKind
    from repro.trace.recorder import TraceRecorder

    def traced(spec, install: bool):
        run = InjectionRun(spec)
        recorder = TraceRecorder(mode="full")
        run.machine.attach_tracer(recorder)
        try:
            result = run.execute(install=install)
        finally:
            run.machine.detach_tracer()
        return result, recorder

    spec = campaign.spec_for(index, target)
    result, recorder = traced(spec, install=True)
    _twin, twin_recorder = traced(spec, install=False)
    dissection = dissect_traces(recorder.events, twin_recorder.events,
                                result=result, arch=arch)
    fetched = frozenset(event.pc for event in recorder.events
                        if event.kind is EventKind.FETCH
                        and event.pc is not None)
    sink_latency = None
    if result.activation_instret is not None:
        for hop in dissection.hops:
            # the first divergent access/transfer is the first time
            # the wrong value became observable *behaviour* — a
            # REG_WRITE divergence is still just a wrong value
            if hop.kind is EventKind.REG_WRITE:
                continue
            sink_latency = max(0, hop.instret
                               - result.activation_instret)
            break
    return TracedJoin(result=result, dissection=dissection,
                      fetched=fetched, sink_latency=sink_latency)


@dataclass
class PropagationJoin:
    """One sink-verdict experiment joined against its dissection."""

    index: int
    addr: int
    bit: int
    #: nearest-sink kind and static distance bound from the report
    sink: Optional[str]
    distance: Optional[int]
    #: static evidence chain (corruption addr, route blocks, sink)
    evidence: Tuple[int, ...]
    #: fraction of the evidence chain the faulty run actually fetched
    chain_coverage: float
    #: the dynamic diff observed architectural infection at all
    infected: bool
    infected_registers: FrozenSet[str] = frozenset()
    #: instructions from activation to the first divergent access or
    #: transfer (the dynamic distance-to-sink; None when the error
    #: never left the register file)
    sink_latency: Optional[int] = None
    #: measured total cycles-to-crash (None when the run survived)
    stage_total: Optional[int] = None


@dataclass
class PropagationValidation:
    """Static evidence chains joined against trace dissections."""

    arch: str
    joins: List[PropagationJoin] = field(default_factory=list)

    @property
    def mean_chain_coverage(self) -> Optional[float]:
        """Mean fetched fraction of the static evidence chains, over
        experiments whose traces diverged (None when none did)."""
        covered = [j.chain_coverage for j in self.joins if j.infected]
        if not covered:
            return None
        return sum(covered) / len(covered)

    def render(self) -> str:
        lines = [f"propagation join: {self.arch}: "
                 f"{len(self.joins)} experiment(s) dissected"]
        for j in self.joins:
            stage = f", crash after {j.stage_total} cycles" \
                if j.stage_total is not None else ""
            measured = f" measured={j.sink_latency}" \
                if j.sink_latency is not None else ""
            lines.append(
                f"  [{j.index}] {j.addr:#010x} bit {j.bit}: "
                f"sink={j.sink} distance={j.distance}{measured} "
                f"chain {100.0 * j.chain_coverage:.0f}% fetched, "
                f"{len(j.infected_registers)} reg(s) infected{stage}")
        coverage = self.mean_chain_coverage
        if coverage is not None:
            lines.append(f"  mean evidence-chain coverage: "
                         f"{100.0 * coverage:.0f}%")
        return "\n".join(lines)


def validate_propagation(arch: str, seed: int = CampaignKnobs.seed,
                         ops: int = CampaignKnobs.ops,
                         count: int = 60,
                         sample: int = 4) -> PropagationValidation:
    """Join static evidence chains against trace dissections.

    Re-runs up to *sample* sink-verdict experiments of the
    deterministic (seed, ops, count) code campaign with the flight
    recorder armed, runs each clean twin, diffs them
    (:func:`repro.trace.dissect.dissect_traces`), and reports how
    much of each static evidence chain the faulty run actually
    executed plus the observed infection and stage latency."""
    from repro.static.predictor import analyze_kernel
    from repro.static.taint import VERDICT_SINK

    config = CampaignConfig(arch=arch, kind=CampaignKind.CODE,
                            count=count, seed=seed, ops=ops,
                            exec_mode="step", checkpoints=0)
    campaign = Campaign(config)
    targets = campaign.generate_targets()
    report = analyze_kernel(arch)

    joins: List[PropagationJoin] = []
    for index, target in enumerate(targets):
        if len(joins) >= sample:
            break
        prediction = report.lookup(target.addr, target.bit)
        if prediction.verdict != VERDICT_SINK or \
                not prediction.evidence:
            continue
        if campaign._screen_not_activated(target):
            continue
        joined = _traced_dissection(campaign, index, target, arch)
        dissection = joined.dissection
        covered = sum(1 for addr in prediction.evidence
                      if addr in joined.fetched)
        joins.append(PropagationJoin(
            index=index, addr=target.addr, bit=target.bit,
            sink=prediction.sink, distance=prediction.distance,
            evidence=prediction.evidence,
            chain_coverage=covered / len(prediction.evidence),
            infected=dissection.infected,
            infected_registers=frozenset(
                dissection.infected_registers),
            sink_latency=joined.sink_latency,
            stage_total=dissection.stages.total
            if dissection.stages is not None else None))
    return PropagationValidation(arch=arch, joins=joins)
