"""kernprof-style sampling profiler for code-injection target selection.

The paper profiles the kernel under UnixBench and selects the most
frequently used functions representing **at least 95% of kernel usage**
as code-injection targets (Section 3.5).  This module reproduces that:
the clean-run probe (:mod:`repro.workload.probe`) samples the program
counter, and :func:`profile_kernel` attributes those samples to kernel
functions and returns the hot list with its coverage.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.kernel.build import build_kernel
from repro.workload.probe import CleanRunProbe


@dataclass
class FunctionProfile:
    arch: str
    samples: int
    counts: Dict[str, int]

    def hot_functions(self, coverage: float = 0.95
                      ) -> List[Tuple[str, float]]:
        """Smallest prefix of functions covering *coverage* of samples.

        Returns (name, fraction) pairs, heaviest first.
        """
        total = sum(self.counts.values()) or 1
        ranked = sorted(self.counts.items(), key=lambda kv: -kv[1])
        out: List[Tuple[str, float]] = []
        accumulated = 0.0
        for name, count in ranked:
            fraction = count / total
            out.append((name, fraction))
            accumulated += fraction
            if accumulated >= coverage:
                break
        return out


def profile_kernel(probe: CleanRunProbe) -> FunctionProfile:
    """Attribute *probe*'s PC samples to kernel functions.

    Functions appear in ``counts`` in first-sample order, which breaks
    ties in :meth:`FunctionProfile.hot_functions`.
    """
    image = build_kernel(probe.arch)
    ranges = sorted((info.addr, info.addr + info.size, name)
                    for name, info in image.functions.items())
    starts = [entry[0] for entry in ranges]
    counts: Dict[str, int] = {}
    for pc, hits in probe.pc_samples.items():
        name = "(outside-kernel-text)"
        position = bisect.bisect_right(starts, pc) - 1
        if position >= 0:
            start, end, function = ranges[position]
            if start <= pc < end:
                name = function
        counts[name] = counts.get(name, 0) + hits
    return FunctionProfile(arch=probe.arch,
                           samples=sum(probe.pc_samples.values()),
                           counts=counts)
