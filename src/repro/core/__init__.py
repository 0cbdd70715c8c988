"""Public API: configure and run the paper's comparative study.

Typical use::

    from repro.core import Study, StudyConfig

    study = Study(StudyConfig(seed=7, scale=0.02))
    study.run()
    print(study.render_table("x86"))         # paper Table 5
    print(study.render_table("ppc"))         # paper Table 6
    print(study.render_figure(6))            # stack crash causes
    print(study.render_latency_figure())     # Figure 16 A-D

Single campaigns::

    from repro.core import run_campaign, CampaignKind
    result = run_campaign("ppc", CampaignKind.CODE, count=200)
"""

import importlib

from repro.core.config import StudyConfig, EXPERIMENT_SETUP
from repro.injection.campaign import run_campaign
from repro.injection.outcomes import CampaignKind

__all__ = ["Study", "StudyConfig", "EXPERIMENT_SETUP",
           "run_campaign", "CampaignKind"]


def __getattr__(name: str):
    """``Study``, imported on first use: the CLI and the campaign
    processes that import this package never load the study and the
    report-side analysis behind it."""
    if name == "Study":
        return importlib.import_module("repro.core.study").Study
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
