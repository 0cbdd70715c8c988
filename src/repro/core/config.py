"""Study configuration and the paper's experiment-setup constants."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.injection.campaign import (
    KNOBS, CampaignConfig, CampaignKnobs, knob,
)
from repro.injection.outcomes import CampaignKind

#: Paper Table 1: Experiment Setup Summary.
EXPERIMENT_SETUP = {
    "x86": {
        "processor": "Intel Pentium 4",
        "cpu_clock_ghz": 1.5,
        "memory_mb": 256,
        "distribution": "RedHat 9.0",
        "linux_kernel": "2.4.22",
        "compiler": "GCC 3.2.2",
        "machines": 3,
    },
    "ppc": {
        "processor": "Motorola MPC 7455",
        "cpu_clock_ghz": 1.0,
        "memory_mb": 256,
        "distribution": "YellowDog 3.0",
        "linux_kernel": "2.4.22",
        "compiler": "GCC 3.2.2",
        "machines": 2,
    },
}

#: Paper Tables 5/6: injections per campaign on each platform.
PAPER_CAMPAIGN_SIZES: Dict[str, Dict[CampaignKind, int]] = {
    "x86": {
        CampaignKind.STACK: 10_143,
        CampaignKind.REGISTER: 3_866,
        CampaignKind.DATA: 46_000,
        CampaignKind.CODE: 1_790,
    },
    "ppc": {
        CampaignKind.STACK: 3_017,
        CampaignKind.REGISTER: 3_967,
        CampaignKind.DATA: 46_000,
        CampaignKind.CODE: 2_188,
    },
}


@dataclass(kw_only=True)
class StudyConfig(CampaignKnobs):
    """Configuration for a full two-platform study.

    The campaign knobs (:class:`CampaignKnobs`) apply to all eight
    campaigns; :meth:`campaign_config` is the one place a study expands
    into them.  ``overrides`` pins exact campaign sizes when given.
    ``store`` is a directory for the durable result store
    (:mod:`repro.store`): every campaign journals its results there as
    they complete, and with ``resume`` a killed study continues from
    the journals bit-identically.
    """

    scale: float = knob(
        "fraction of the paper's campaign sizes (1.0 = the full "
        "115,000+ injections)", 0.02, type=float, low=0.0, high=1.0)
    min_campaign: int = knob("smallest campaign size", 40, low=1)
    workers: int = knob(
        "campaign worker processes (1 = in-process serial loop; any "
        "value gives bit-identical results)", 1, low=1)
    store: Optional[str] = None
    resume: bool = False
    overrides: Dict[str, Dict[CampaignKind, int]] = field(
        default_factory=dict)

    def campaign_count(self, arch: str, kind: CampaignKind) -> int:
        if arch in self.overrides and kind in self.overrides[arch]:
            return self.overrides[arch][kind]
        paper = PAPER_CAMPAIGN_SIZES[arch][kind]
        return max(self.min_campaign, int(round(paper * self.scale)))

    def campaign_config(self, arch: str, kind: CampaignKind,
                        count: Optional[int] = None) -> CampaignConfig:
        """The study's (arch, kind) campaign.

        A knob whose value does not apply to *kind* falls back to its
        default: a fault model scoped to some kinds (e.g. "targeted",
        data only) leaves the rest of the matrix on the single-bit
        default, so the study always completes.
        """
        knobs = self.knob_values()
        for spec_field in KNOBS:
            applies = spec_field.metadata["knob"].applies
            if applies is not None and \
                    not applies(knobs[spec_field.name], kind.value):
                knobs[spec_field.name] = spec_field.default
        return CampaignConfig(
            arch=arch, kind=kind,
            count=count if count is not None
            else self.campaign_count(arch, kind), **knobs)
