"""Per-fault-model sensitivity tables (MBU vs SBU comparison).

The paper's tables hold the fault model fixed (single-bit, single
shot) and vary the target class; this module holds the target class
fixed and varies the fault model, so a study can ask the modern
question — how much *worse* are multi-bit/burst upsets than the
single-bit model the paper assumes?  (Radiation studies report
MBU-dominated failure modes; a burst that corrupts 2-8 adjacent bits
is strictly more damage than any one of its bits alone, so its
manifestation rate bounds the single-bit rate from above.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.injection.campaign import CampaignKnobs, run_campaign
from repro.injection.outcomes import (
    CampaignKind, InjectionResult, Outcome,
)

#: outcomes counted as "the error manifested as a failure"
MANIFESTED_OUTCOMES = (
    Outcome.CRASH_KNOWN, Outcome.CRASH_UNKNOWN, Outcome.HANG,
    Outcome.FAIL_SILENCE_VIOLATION,
)


@dataclass(frozen=True)
class ModelSensitivity:
    """One (fault model, arch, kind) row of the comparison table."""

    model: str
    arch: str
    kind: str
    injected: int
    activated: int
    manifested: int
    crashes: int
    hangs: int
    fsv: int

    @property
    def activation_pct(self) -> float:
        if self.injected == 0:
            return 0.0
        return 100.0 * self.activated / self.injected

    @property
    def manifestation_pct(self) -> float:
        """Manifested share of *injected* errors.

        Relative to injected (not activated) so models with different
        activation behavior — e.g. a burst's wider watchpoint span —
        stay comparable on one scale.
        """
        if self.injected == 0:
            return 0.0
        return 100.0 * self.manifested / self.injected


def sensitivity_for(model: str, arch: str, kind: CampaignKind,
                    results: Sequence[InjectionResult]
                    ) -> ModelSensitivity:
    """Fold one campaign's results into a :class:`ModelSensitivity`."""
    manifested = sum(1 for r in results
                     if r.outcome in MANIFESTED_OUTCOMES)
    return ModelSensitivity(
        model=model, arch=arch, kind=kind.value,
        injected=len(results),
        activated=sum(1 for r in results
                      if r.outcome is not Outcome.NOT_ACTIVATED),
        manifested=manifested,
        crashes=sum(1 for r in results
                    if r.outcome in (Outcome.CRASH_KNOWN,
                                     Outcome.CRASH_UNKNOWN)),
        hangs=sum(1 for r in results if r.outcome is Outcome.HANG),
        fsv=sum(1 for r in results
                if r.outcome is Outcome.FAIL_SILENCE_VIOLATION))


def compare_models(arch: str, kind: CampaignKind, count: int,
                   models: Iterable[str] = ("single-bit", "burst"),
                   seed: int = CampaignKnobs.seed,
                   ops: int = CampaignKnobs.ops, workers: int = 1,
                   ) -> List[ModelSensitivity]:
    """Run one campaign per fault model, identical otherwise.

    Same arch, kind, count, seed, and ops — the only degree of freedom
    is the model, so differences in the rows are the model's doing.
    """
    rows = []
    for model in models:
        outcome = run_campaign(arch, kind, count, seed=seed, ops=ops,
                               workers=workers, fault_model=model)
        rows.append(sensitivity_for(model, arch, kind,
                                    outcome.results))
    return rows


def render_model_table(rows: Sequence[ModelSensitivity],
                       title: str = "fault-model sensitivity") -> str:
    """Render rows as a fixed-width comparison table."""
    lines = [title,
             f"{'model':<14} {'arch':<5} {'kind':<9} {'inj':>6} "
             f"{'act%':>7} {'crash':>6} {'hang':>5} {'fsv':>4} "
             f"{'manif%':>7}"]
    for row in rows:
        lines.append(
            f"{row.model:<14} {row.arch:<5} {row.kind:<9} "
            f"{row.injected:>6} {row.activation_pct:>6.1f}% "
            f"{row.crashes:>6} {row.hangs:>5} {row.fsv:>4} "
            f"{row.manifestation_pct:>6.1f}%")
    return "\n".join(lines)


def manifestation_histogram(per_model: Dict[str, Sequence[InjectionResult]]
                            ) -> Dict[str, Dict[str, int]]:
    """model -> outcome value -> count (benchmark/report fodder)."""
    out: Dict[str, Dict[str, int]] = {}
    for model, results in per_model.items():
        histogram: Dict[str, int] = {}
        for result in results:
            histogram[result.outcome.value] = \
                histogram.get(result.outcome.value, 0) + 1
        out[model] = histogram
    return out
