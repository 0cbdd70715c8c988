"""repro — reproduction of "Error Sensitivity of the Linux Kernel
Executing on PowerPC G4 and Pentium 4 Processors" (DSN 2004).

The package builds everything the paper's measurement study needs, in
pure Python:

* two simulated processors with the architectural properties under
  study (:mod:`repro.x86`, :mod:`repro.ppc`);
* a compiler from a miniature kernel language to both ISAs
  (:mod:`repro.kcc`) and the miniature Linux-like kernel itself
  (:mod:`repro.kernel`);
* a bootable machine with watchdog and crash-dump NIC
  (:mod:`repro.machine`), the UnixBench-like instrumented workload
  (:mod:`repro.workload`);
* the NFTAPE-style injection framework (:mod:`repro.injection`) and
  the off-line analysis (:mod:`repro.analysis`);
* the public study API (:mod:`repro.core`).

Quick start::

    from repro.core import Study, StudyConfig
    study = Study(StudyConfig(scale=0.01)).run()
    print(study.render_all())
"""

import importlib

__version__ = "1.0.0"

__all__ = ["Study", "StudyConfig", "run_campaign", "CampaignKind",
           "__version__"]


def __getattr__(name: str):
    """The study API, imported on first use: a campaign process never
    loads the study and analysis modules behind it."""
    if name in __all__:
        return getattr(importlib.import_module("repro.core"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
