"""Submission payload validation and JSON views.

Everything that crosses the service's wire boundary goes through this
module: a submitted campaign payload is validated into a real
:class:`CampaignConfig` (so a bad submission is a 400 with a message,
never a worker-side traceback), a study payload expands into the eight
per-(arch, kind) campaign configs via
:meth:`StudyConfig.campaign_config`, and jobs serialize to plain-JSON
views for status and list endpoints.  Field sets, defaults and bounds
all come from the knob table (:class:`CampaignKnobs`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import StudyConfig
from repro.injection.campaign import ARCHES, KNOBS, CampaignConfig
from repro.injection.outcomes import CampaignKind
from repro.store.manifest import PRUNE

KINDS = tuple(kind.value for kind in CampaignKind)

REQUIRED_FIELDS = ("arch", "kind", "count")

#: fields a campaign submission may carry (everything optional except
#: arch/kind/count); unknown keys are rejected so a typo'd field name
#: fails loudly instead of silently running with the default
CAMPAIGN_FIELDS = REQUIRED_FIELDS + tuple(
    spec_field.name for spec_field in KNOBS)

STUDY_FIELDS = ("scale", "min_campaign") + tuple(
    spec_field.name for spec_field in KNOBS)


class ValidationError(Exception):
    """A submission payload failed validation (maps to HTTP 400)."""


def _check_object(payload, allowed, what: str) -> None:
    if not isinstance(payload, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown {what} field(s): "
                              f"{', '.join(unknown)}")


def _drop_retired_prune(payload):
    """*payload* without the retired ``prune`` knob.

    ``prune: "none"`` (which job-index lines written while it was a
    knob carry) is dropped; any other value names a retired policy and
    is refused.
    """
    if not isinstance(payload, dict) or "prune" not in payload:
        return payload
    if payload["prune"] != PRUNE:
        raise ValidationError(
            f"prune: the target prune policy was retired; got "
            f"{payload['prune']!r}, only {PRUNE!r} is accepted")
    return {name: value for name, value in payload.items()
            if name != "prune"}


def campaign_config_from_payload(payload) -> CampaignConfig:
    """Validate one campaign submission into a ``CampaignConfig``."""
    payload = _drop_retired_prune(payload)
    _check_object(payload, CAMPAIGN_FIELDS, "campaign config")
    for name in REQUIRED_FIELDS:
        if name not in payload:
            raise ValidationError(f"missing required field {name!r}")
    if payload["kind"] not in KINDS:
        raise ValidationError(f"kind must be one of {KINDS}, "
                              f"got {payload['kind']!r}")
    try:
        return CampaignConfig(
            **dict(payload, kind=CampaignKind(payload["kind"])))
    except ValueError as exc:
        raise ValidationError(str(exc))


def study_configs_from_payload(payload) -> List[CampaignConfig]:
    """Expand a study submission into its eight campaign configs."""
    payload = _drop_retired_prune(payload)
    _check_object(payload, STUDY_FIELDS, "study config")
    try:
        study = StudyConfig(**payload)
    except ValueError as exc:
        raise ValidationError(str(exc))
    return [study.campaign_config(arch, kind)
            for arch in ARCHES for kind in CampaignKind]


def config_to_payload(config: CampaignConfig) -> Dict[str, object]:
    """The JSON view of a campaign config (round-trips through
    :func:`campaign_config_from_payload`)."""
    return {"arch": config.arch, "kind": config.kind.value,
            "count": config.count, **config.knob_values()}
