"""Declarative fault-model specifications.

A :class:`FaultSpec` describes *what a fault looks like* independently
of any campaign: the bit pattern, how many bits flip (multiplicity),
how those bits relate spatially (correlation), whether the fault
re-fires over time (temporal schedule), and — for targeted campaigns —
which named kernel structures the fault lands in.  The spec is pure
data: it serializes to canonical JSON (the codec every boundary —
store manifest, service payload, CLI — shares), round-trips losslessly,
and hashes to a stable digest, so a fault model can join campaign
identity the same way the other identity knobs do.

The *mechanics* of a spec (deriving the concrete flip set for one
target, arming retriggers) live in :mod:`repro.faults.model`; the
shipped specs live in :mod:`repro.faults.registry`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, Tuple

#: bit patterns a spec may request.  Only ``flip`` (XOR, the paper's
#: transient model) ships; the field exists so stuck-at-0/1 models can
#: slot in without changing any serialized shape.
PATTERNS: Tuple[str, ...] = ("flip",)

#: spatial-correlation shapes.  ``single`` is the degenerate one-bit
#: case; ``adjacent`` is a burst of consecutive bit positions —
#: row-correlated upsets that spill across byte and word boundaries
#: the way MBU studies report them.
SPATIAL: Tuple[str, ...] = ("single", "adjacent")


class FaultSpecError(ValueError):
    """A fault spec (or its serialized form) is invalid."""


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault model.

    ``min_bits``/``max_bits`` bound the per-experiment multiplicity
    (drawn deterministically from the experiment seed when they
    differ).  ``retrigger_period``/``retrigger_count`` describe the
    temporal schedule of an intermittent fault: after the initial
    injection the same bits re-flip every *period* retired
    instructions, *count* times.  ``structures`` names kernel globals
    (linker symbols) a targeted campaign draws its addresses from,
    weighted by their sizes.
    """

    name: str
    pattern: str = "flip"
    min_bits: int = 1
    max_bits: int = 1
    spatial: str = "single"
    retrigger_period: int = 0
    retrigger_count: int = 0
    structures: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise FaultSpecError(f"spec needs a name, got {self.name!r}")
        if self.pattern not in PATTERNS:
            raise FaultSpecError(
                f"pattern must be one of {PATTERNS}, "
                f"got {self.pattern!r}")
        if self.spatial not in SPATIAL:
            raise FaultSpecError(
                f"spatial must be one of {SPATIAL}, "
                f"got {self.spatial!r}")
        if not (isinstance(self.min_bits, int)
                and isinstance(self.max_bits, int)
                and not isinstance(self.min_bits, bool)
                and not isinstance(self.max_bits, bool)
                and 1 <= self.min_bits <= self.max_bits <= 32):
            raise FaultSpecError(
                f"need 1 <= min_bits <= max_bits <= 32, got "
                f"{self.min_bits!r}..{self.max_bits!r}")
        if self.max_bits > 1 and self.spatial == "single":
            raise FaultSpecError(
                "multiplicity > 1 requires a spatial shape "
                "(spatial='adjacent')")
        if not (isinstance(self.retrigger_period, int)
                and isinstance(self.retrigger_count, int)
                and not isinstance(self.retrigger_period, bool)
                and not isinstance(self.retrigger_count, bool)
                and self.retrigger_period >= 0
                and self.retrigger_count >= 0):
            raise FaultSpecError(
                f"retrigger fields must be non-negative integers, got "
                f"period={self.retrigger_period!r} "
                f"count={self.retrigger_count!r}")
        if bool(self.retrigger_period) != bool(self.retrigger_count):
            raise FaultSpecError(
                "retrigger_period and retrigger_count must be set "
                "together (both zero = single-shot)")
        if not isinstance(self.structures, tuple):
            # tolerate lists from JSON construction paths
            object.__setattr__(self, "structures",
                               tuple(self.structures))
        if not all(isinstance(s, str) and s for s in self.structures):
            raise FaultSpecError(
                f"structures must be non-empty symbol names, "
                f"got {self.structures!r}")

    # -- derived properties ------------------------------------------------

    @property
    def multiplicity(self) -> int:
        """The largest number of bits one experiment may flip."""
        return self.max_bits

    @property
    def intermittent(self) -> bool:
        return self.retrigger_count > 0

    @property
    def targeted(self) -> bool:
        return bool(self.structures)

    # -- codec -------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """The canonical JSON view (round-trips via
        :func:`spec_from_dict`)."""
        payload = dataclasses.asdict(self)
        payload["structures"] = list(self.structures)
        return payload

    def digest(self) -> str:
        """sha256 over the canonical encoding — the spec's identity."""
        from repro.store.codec import canonical_json
        payload = canonical_json(self.to_dict())
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One human line for ``repro faults list``."""
        if self.min_bits == self.max_bits:
            bits = f"{self.min_bits} bit" + \
                ("s" if self.min_bits > 1 else "")
        else:
            bits = f"{self.min_bits}-{self.max_bits} adjacent bits"
        parts = [f"{self.pattern}, {bits}"]
        if self.intermittent:
            parts.append(
                f"re-fires x{self.retrigger_count} every "
                f"{self.retrigger_period} instrets")
        if self.targeted:
            parts.append(
                f"targets {', '.join(self.structures)}")
        return "; ".join(parts)


_SPEC_FIELDS = tuple(spec.name for spec in
                     dataclasses.fields(FaultSpec))


def spec_from_dict(payload: Dict[str, object]) -> FaultSpec:
    """Decode a :meth:`FaultSpec.to_dict` payload (strict)."""
    if not isinstance(payload, dict):
        raise FaultSpecError(
            f"fault spec must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(_SPEC_FIELDS))
    if unknown:
        raise FaultSpecError(
            f"unknown fault spec field(s): {', '.join(unknown)}")
    kwargs = dict(payload)
    if "structures" in kwargs:
        structures = kwargs["structures"]
        if not isinstance(structures, (list, tuple)):
            raise FaultSpecError(
                f"structures must be a list, got {structures!r}")
        kwargs["structures"] = tuple(structures)
    try:
        return FaultSpec(**kwargs)
    except TypeError as exc:
        raise FaultSpecError(f"malformed fault spec: {exc}")
