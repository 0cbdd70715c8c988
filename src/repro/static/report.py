"""Static sensitivity report: per-bit predictions and summaries.

A :class:`StaticSensitivityReport` is the static-analysis counterpart
of a dynamic ``CampaignResult``: for every (instruction address, bit)
in the kernel text it records the encoding corruption class and the
predicted outcome.  The histogram digest is pinned in CI exactly like
``tests/data/campaign_digests.json`` pins dynamic outcomes.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.static.corruption import CorruptionClass
from repro.static.taint import VERDICTS


class PredictedOutcome(enum.Enum):
    """Static analog of the dynamic outcome taxonomy.

    The dynamic taxonomy distinguishes crash registration and error
    propagation; statically only three things are decidable: the bit
    sits in code that cannot execute, the corruption is provably
    harmless, or it must be assumed to manifest.
    """

    NOT_ACTIVATED = "not-activated"
    NOT_MANIFESTED = "not-manifested"
    MANIFESTED = "manifested"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class BitPrediction:
    """Prediction for one (address, bit) in the text section."""

    addr: int
    bit: int
    corruption: CorruptionClass
    outcome: PredictedOutcome
    #: taint verdict for pure-dataflow substitutions ("sink" |
    #: "dead" | "escape"); ``None`` when the decision never reached
    #: the taint engine
    verdict: Optional[str] = None
    #: kind of the nearest sink the taint reached (see
    #: :mod:`repro.static.sinks`)
    sink: Optional[str] = None
    #: static distance-to-sink bound, in instructions
    distance: Optional[int] = None
    #: evidence chain: corruption address, block starts along the
    #: shortest discovered route, sink address
    evidence: Tuple[int, ...] = ()
    #: the taint death proof also holds under the dynamic fault
    #: model: injecting this bit can never manifest
    taint_prunable: bool = False

    @property
    def prunable(self) -> bool:
        """Provably-safe to skip: the flip cannot change behaviour.

        Only decode-identical flips and statically-unreachable code
        qualify — *not* dead-value writes, whose proof depends on the
        conservative liveness model.
        """
        return (self.corruption is CorruptionClass.NO_CHANGE
                or self.outcome is PredictedOutcome.NOT_ACTIVATED)


@dataclass
class StaticSensitivityReport:
    """Full static analysis of one kernel image."""

    arch: str
    text_bytes: int
    insn_count: int
    function_count: int
    block_count: int
    unreachable_block_count: int
    predictions: Dict[Tuple[int, int], BitPrediction] \
        = field(default_factory=dict)

    @property
    def bit_count(self) -> int:
        return len(self.predictions)

    @property
    def class_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {c.value: 0 for c in CorruptionClass}
        for pred in self.predictions.values():
            counts[pred.corruption.value] += 1
        return counts

    @property
    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {o.value: 0 for o in PredictedOutcome}
        for pred in self.predictions.values():
            counts[pred.outcome.value] += 1
        return counts

    @property
    def verdict_counts(self) -> Dict[str, int]:
        """Taint verdict histogram ("none" = never reached taint)."""
        counts: Dict[str, int] = {v: 0 for v in VERDICTS}
        counts["none"] = 0
        for pred in self.predictions.values():
            counts[pred.verdict or "none"] += 1
        return counts

    @property
    def sink_counts(self) -> Dict[str, int]:
        """Nearest-sink-kind histogram over sink-verdict bits."""
        counts: Dict[str, int] = {}
        for pred in self.predictions.values():
            if pred.sink is not None:
                counts[pred.sink] = counts.get(pred.sink, 0) + 1
        return counts

    @property
    def dead_bits(self) -> FrozenSet[Tuple[int, int]]:
        """The prunable (addr, bit) pairs (see BitPrediction.prunable)."""
        return frozenset(key for key, pred in self.predictions.items()
                         if pred.prunable)

    @property
    def taint_masked_bits(self) -> FrozenSet[Tuple[int, int]]:
        """The (addr, bit) pairs whose corruption the taint engine
        proves masked *and* whose proof survives the dynamic fault
        model (``BitPrediction.taint_prunable``)."""
        return frozenset(key for key, pred in self.predictions.items()
                         if pred.taint_prunable)

    @property
    def predicted_manifestation_rate(self) -> float:
        """P(manifest | activated) as the paper defines it: among
        bits the workload could activate (reachable code), the
        fraction predicted to manifest."""
        activated = [p for p in self.predictions.values()
                     if p.outcome is not PredictedOutcome.NOT_ACTIVATED]
        if not activated:
            return 0.0
        manifested = sum(1 for p in activated
                         if p.outcome is PredictedOutcome.MANIFESTED)
        return manifested / len(activated)

    def lookup(self, addr: int, bit: int) -> BitPrediction:
        return self.predictions[(addr, bit)]

    # -- digests ------------------------------------------------------

    def histogram(self) -> Dict[str, object]:
        """Canonical summary used for the pinned CI digest (v2: the
        taint verdict/sink histograms and the taint-prunable count
        joined in PR 9)."""
        return {
            "arch": self.arch,
            "text_bytes": self.text_bytes,
            "insn_count": self.insn_count,
            "function_count": self.function_count,
            "block_count": self.block_count,
            "unreachable_block_count": self.unreachable_block_count,
            "bit_count": self.bit_count,
            "class_counts": self.class_counts,
            "outcome_counts": self.outcome_counts,
            "verdict_counts": self.verdict_counts,
            "sink_counts": self.sink_counts,
            "taint_masked": len(self.taint_masked_bits),
        }

    def digest(self) -> str:
        canonical = json.dumps(self.histogram(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        lines: List[str] = []
        lines.append(f"static sensitivity: {self.arch}")
        lines.append(f"  text: {self.text_bytes} bytes, "
                     f"{self.insn_count} insns, "
                     f"{self.function_count} functions")
        lines.append(f"  cfg: {self.block_count} blocks, "
                     f"{self.unreachable_block_count} unreachable")
        lines.append(f"  bits analyzed: {self.bit_count}")
        lines.append("  corruption classes:")
        for name, count in sorted(self.class_counts.items(),
                                  key=lambda kv: -kv[1]):
            if count:
                pct = 100.0 * count / max(1, self.bit_count)
                lines.append(f"    {name:<13} {count:>8}  ({pct:5.1f}%)")
        lines.append("  predicted outcomes:")
        for name, count in sorted(self.outcome_counts.items(),
                                  key=lambda kv: -kv[1]):
            pct = 100.0 * count / max(1, self.bit_count)
            lines.append(f"    {name:<14} {count:>8}  ({pct:5.1f}%)")
        verdicts = self.verdict_counts
        if any(verdicts[v] for v in VERDICTS):
            lines.append("  taint verdicts (pure-dataflow bits):")
            for name in VERDICTS:
                count = verdicts[name]
                if count:
                    pct = 100.0 * count / max(1, self.bit_count)
                    lines.append(
                        f"    {name:<14} {count:>8}  ({pct:5.1f}%)")
            sinks = self.sink_counts
            if sinks:
                lines.append("  nearest sinks:")
                for name, count in sorted(sinks.items(),
                                          key=lambda kv: -kv[1]):
                    lines.append(f"    {name:<16} {count:>8}")
        rate = self.predicted_manifestation_rate
        lines.append(f"  predicted manifestation rate "
                     f"(activated bits): {100.0 * rate:.1f}%")
        lines.append(f"  prunable dead bits: {len(self.dead_bits)}")
        taint_masked = len(self.taint_masked_bits)
        if taint_masked:
            lines.append(f"  taint-proven masked bits: {taint_masked}")
        return "\n".join(lines)


def compare_rates(reports: Iterable[StaticSensitivityReport]) -> str:
    """One-line-per-arch comparison of predicted manifestation rates."""
    lines = ["predicted manifestation rate by arch:"]
    for report in reports:
        rate = report.predicted_manifestation_rate
        lines.append(f"  {report.arch:<4} {100.0 * rate:5.1f}%")
    return "\n".join(lines)
