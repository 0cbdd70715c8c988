"""The full two-platform study: all eight campaigns plus reporting.

``Study.run()`` performs the paper's complete experimental matrix
(stack/register/data/code on both the P4-like and G4-like targets) at
the configured scale, then renders any table or figure of the paper's
evaluation section from the accumulated results.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.compare import (
    render_figure_comparison, render_table_comparison,
)
from repro.analysis.figures import render_distribution
from repro.analysis.latency import BUCKET_LABELS, latency_percentages
from repro.analysis.tables import build_table, render_table
from repro.core.config import StudyConfig
from repro.injection.campaign import ARCHES, Campaign, CampaignContext
from repro.injection.outcomes import CampaignKind, InjectionResult

KINDS = (CampaignKind.STACK, CampaignKind.REGISTER, CampaignKind.DATA,
         CampaignKind.CODE)

_FIGURE_TITLES = {
    4: "Overall Distribution of Crash Causes (P4)",
    5: "Overall Distribution of Crash Causes (G4)",
    6: "Crash Causes for Kernel Stack Injection",
    10: "Crash Causes for System Register Injection",
    11: "Crash Causes for Code Injection",
    12: "Crash Causes for Kernel Data Injection",
}

_KIND_OF_FIGURE = {6: CampaignKind.STACK, 10: CampaignKind.REGISTER,
                   11: CampaignKind.CODE, 12: CampaignKind.DATA}


class Study:
    """Runs and reports the paper's comparative error-injection study."""

    def __init__(self, config: Optional[StudyConfig] = None):
        self.config = config if config is not None else StudyConfig()
        #: results[arch][kind] -> list of InjectionResult
        self.results: Dict[str, Dict[CampaignKind,
                                     List[InjectionResult]]] = {}

    # -- running -----------------------------------------------------------

    def _store(self, store=None):
        """Resolve *store* (path or CampaignStore) or the config's."""
        target = store if store is not None else self.config.store
        if target is None:
            return None
        from repro.store import CampaignStore
        if isinstance(target, CampaignStore):
            return target
        return CampaignStore(target)

    def run_campaign(self, arch: str, kind: CampaignKind,
                     count: Optional[int] = None,
                     workers: Optional[int] = None,
                     store=None, resume: Optional[bool] = None,
                     progress_callback=None) -> List[InjectionResult]:
        config = self.config
        campaign_config = config.campaign_config(arch, kind, count)
        context = CampaignContext.get(arch, config.seed, config.ops)
        outcome = Campaign(campaign_config, context).run(
            workers=workers if workers is not None else config.workers,
            store=self._store(store),
            resume=config.resume if resume is None else resume,
            progress_callback=progress_callback)
        self.results.setdefault(arch, {})[kind] = outcome.results
        return outcome.results

    def run(self, arches: Iterable[str] = ARCHES,
            kinds: Iterable[CampaignKind] = KINDS) -> "Study":
        for arch in arches:
            for kind in kinds:
                self.run_campaign(arch, kind)
        return self

    # -- loading from a store ----------------------------------------------

    def load_campaign(self, arch: str, kind: CampaignKind,
                      count: Optional[int] = None,
                      store=None) -> List[InjectionResult]:
        """Stream a stored campaign into this study — no injection.

        The campaign must be complete for the effective count; every
        table/figure renderer then works off the journaled results
        exactly as it would off a fresh run.
        """
        resolved = self._store(store)
        if resolved is None:
            raise ValueError("no store: pass store= or set "
                             "StudyConfig.store")
        outcome = resolved.load(
            self.config.campaign_config(arch, kind, count))
        self.results.setdefault(arch, {})[kind] = outcome.results
        return outcome.results

    def load(self, arches: Iterable[str] = ARCHES,
             kinds: Iterable[CampaignKind] = KINDS,
             store=None) -> "Study":
        """Load the full study matrix from a store (see above)."""
        for arch in arches:
            for kind in kinds:
                self.load_campaign(arch, kind, store=store)
        return self

    # -- accessors ----------------------------------------------------------

    def results_for(self, arch: str,
                    kind: Optional[CampaignKind] = None
                    ) -> List[InjectionResult]:
        per_arch = self.results.get(arch, {})
        if kind is not None:
            return per_arch.get(kind, [])
        merged: List[InjectionResult] = []
        for kind_results in per_arch.values():
            merged.extend(kind_results)
        return merged

    # -- rendering -------------------------------------------------------------

    def render_table(self, arch: str, compare: bool = True) -> str:
        """Paper Table 5 (arch='x86') or Table 6 (arch='ppc')."""
        rows = build_table(self.results.get(arch, {}))
        label = "Pentium 4" if arch == "x86" else "PPC G4"
        text = render_table(rows, label)
        if compare:
            text += "\n\n" + render_table_comparison(rows, arch)
        return text

    def render_figure(self, figure: int, compare: bool = True) -> str:
        """Paper Figures 4, 5, 6, 10, 11, 12."""
        if figure in (4, 5):
            arch = "x86" if figure == 4 else "ppc"
            results = self.results_for(arch)
            text = render_distribution(results, _FIGURE_TITLES[figure],
                                       arch)
            if compare:
                text += "\n\n" + render_figure_comparison(
                    results, figure, arch, _FIGURE_TITLES[figure])
            return text
        kind = _KIND_OF_FIGURE[figure]
        sections: List[str] = []
        for arch in ARCHES:
            results = self.results_for(arch, kind)
            label = "Pentium" if arch == "x86" else "PPC"
            sections.append(render_distribution(
                results, f"{_FIGURE_TITLES[figure]} — {label}", arch))
            if compare:
                sections.append(render_figure_comparison(
                    results, figure, arch,
                    f"{_FIGURE_TITLES[figure]} — {label}"))
        return "\n\n".join(sections)

    def render_latency_figure(self) -> str:
        """Paper Figure 16 A-D: cycles-to-crash distributions."""
        panels = (
            ("A", "Stack Error Injection", CampaignKind.STACK),
            ("B", "System Register Error Injection",
             CampaignKind.REGISTER),
            ("C", "Code Error Injection", CampaignKind.CODE),
            ("D", "Data Error Injection", CampaignKind.DATA),
        )
        lines: List[str] = []
        for panel, title, kind in panels:
            lines.append(f"--- Figure 16({panel}): latency in "
                         f"{title} ---")
            header = f"{'platform':<10}" + "".join(
                f"{label:>8}" for label in BUCKET_LABELS)
            lines.append(header)
            for arch in ARCHES:
                percentages = latency_percentages(
                    self.results_for(arch, kind))
                label = "Pentium" if arch == "x86" else "PPC"
                lines.append(f"{label:<10}" + "".join(
                    f"{percentages[bucket]:7.1f}%"
                    for bucket in BUCKET_LABELS))
            lines.append("")
        return "\n".join(lines)

    def render_all(self) -> str:
        sections = [self.render_table("x86"), self.render_table("ppc")]
        for figure in (4, 5, 6, 10, 11, 12):
            sections.append(self.render_figure(figure))
        sections.append(self.render_latency_figure())
        return "\n\n".join(sections)
