"""The end-to-end benchmark's workloads, as plain data.

Importing this module does not import ``repro``: the parent process
plans runs and accounts for failed children without paying the
simulator's import, and only the children build ``CampaignConfig``\\ s.

Every campaign runs with the library defaults (ops 48, 8 checkpoint
rungs, the single-bit fault model) at one pinned campaign seed, so each
campaign's result digest is pinned in ``digests.json`` and checked on
every run (``bench_e2e.py --record-digests`` re-records them from a
serial run).  The benchmark's own ``--seed`` decides the order in which the
closed-loop client submits a workload's campaigns, not the campaign
seed: the campaign seed decides how many hang and long-running
experiments a workload holds, and across campaign seeds 1-10 that moved
``inj_per_s`` by an interquartile spread of 11-13% (``register-sim``,
``sharded-screen``) and over 50% (``cold-small``), which would hide any
regression smaller than that.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

ARCHES = ("x86", "ppc")

#: campaign knobs shared by every workload (the library defaults, plus
#: the pinned campaign seed the digests were recorded at)
CAMPAIGN_SEED = 11
OPS = 48
CHECKPOINTS = 8
FAULT_MODEL = "single-bit"

DIGESTS_PATH = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign of a workload; the child turns it into a config."""

    arch: str
    kind: str
    count: int

    @property
    def key(self) -> str:
        return f"{self.arch}/{self.kind}/{self.count}"


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in ``BENCHMARK.json`` and the
    README."""

    name: str
    campaigns: Tuple[CampaignSpec, ...]
    #: ``Campaign.run(workers=...)``; at most 2, the cores of the
    #: reference host
    workers: int = 1
    #: journal every campaign to a fresh store, then read it back
    store: bool = False
    #: fresh child processes per repeat
    processes: int = 1
    #: children a 20-second run holds (each takes 4-8 s on the
    #: reference host); ``--seconds`` scales it
    children_per_20s: int = 3

    def plan(self, seed: int, child: int,
             scale: float = 1.0) -> List[CampaignSpec]:
        """The campaigns one child submits, in submission order.

        Order depends on *seed* and the child's index; the campaigns
        themselves do not.  *scale* shrinks every count (smoke runs).
        """
        specs = [CampaignSpec(spec.arch, spec.kind,
                              max(1, round(spec.count * scale)))
                 for spec in self.campaigns]
        random.Random(f"{seed}:{child}").shuffle(specs)
        return specs

    def repeats_for(self, seconds: float) -> int:
        """Repeats that fill about *seconds* on the reference host."""
        return max(1, round(self.children_per_20s * seconds / 20
                            / self.processes))


def _matrix(counts: Dict[str, int]) -> Tuple[CampaignSpec, ...]:
    return tuple(CampaignSpec(arch, kind, count)
                 for arch in ARCHES for kind, count in counts.items())


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("matrix", _matrix({"code": 24, "stack": 48, "data": 120,
                                "register": 16})),
    Workload("register-sim", (CampaignSpec("x86", "register", 40),
                              CampaignSpec("ppc", "register", 60))),
    Workload("sharded-screen", _matrix({"data": 1200, "stack": 320}),
             workers=2, store=True),
    Workload("cold-small", _matrix({"code": 8, "stack": 8, "data": 8,
                                    "register": 8}),
             processes=5, children_per_20s=5),
)}


def all_campaigns() -> List[CampaignSpec]:
    """Every distinct campaign across the workloads, at full size."""
    seen: Dict[str, CampaignSpec] = {}
    for workload in WORKLOADS.values():
        for spec in workload.campaigns:
            seen.setdefault(spec.key, spec)
    return list(seen.values())


def campaign_knobs() -> Dict[str, object]:
    """The knobs the pinned digests were recorded under."""
    return {"seed": CAMPAIGN_SEED, "ops": OPS, "checkpoints": CHECKPOINTS,
            "fault_model": FAULT_MODEL}


def load_digests() -> Dict[str, str]:
    """Pinned ``results_digest`` per campaign key."""
    pinned = json.loads(DIGESTS_PATH.read_text())
    if pinned["knobs"] != campaign_knobs():
        raise ValueError(f"{DIGESTS_PATH.name} was recorded under "
                         f"{pinned['knobs']}, not {campaign_knobs()}")
    return pinned["digests"]


def save_digests(digests: Dict[str, str]) -> None:
    DIGESTS_PATH.write_text(json.dumps(
        {"knobs": campaign_knobs(), "digests": dict(sorted(digests.items()))},
        indent=2) + "\n")
