"""Campaign manifests: content-addressed campaign identity.

A store holds many campaigns side by side; each is identified by a
hash of everything that determines its result stream — ``arch``,
``kind``, the identity-flagged campaign knobs (``IDENTITY_KNOBS``:
seed, ops, dump-loss probability, fault model) and the code version,
plus the fixed ``profile_coverage`` and ``prune`` constants that
earlier store formats recorded.
Two configs with the same identity produce bit-identical results, so
their journals are interchangeable; any drift in those fields changes
the identity and lands in a different campaign directory instead of
silently mixing incompatible records.

``count`` is deliberately **not** part of the identity: raising it
tops up an existing campaign (the per-target seed keys on the global
index, so targets ``0..N-1`` of a ``count=M > N`` campaign are exactly
the ``count=N`` campaign's targets).  The manifest records the largest
count ever requested, and shrinking it is refused as drift.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.faults import DEFAULT_MODEL
from repro.store.codec import canonical_json

#: bump when the journal record layout or the identity derivation
#: changes; part of ``code_version``, so old stores are never misread
#: (format 2: manifests record the target prune policy; format 3:
#: journal records carry activation_instret/crash_instret; format 4:
#: the fault model joins campaign identity)
STORE_FORMAT = 4

#: written into every manifest so stored campaign ids stay stable; an
#: identity constant from when it was a (never read) config field
PROFILE_COVERAGE = 0.95

#: written into every manifest so stored campaign ids stay stable; the
#: target prune policy was a campaign knob (store formats 2-4) until it
#: was retired, and "none" is the only value a store may still hold
PRUNE = "none"

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"


def code_version() -> str:
    """The writer's code identity (package version + store format)."""
    import repro
    return f"{repro.__version__}+fmt{STORE_FORMAT}"


class ManifestError(Exception):
    """A manifest is missing, corrupt, or contradicts its directory."""


@dataclass(frozen=True)
class CampaignManifest:
    """The durable description of one stored campaign."""

    arch: str
    kind: str                          # CampaignKind.value
    count: int                         # largest count ever requested
    ops: int
    seed: int
    dump_loss_probability: float
    profile_coverage: float
    code_version: str
    #: always :data:`PRUNE` (recorded since store format 2)
    prune: str
    #: fault-model name; format-3 manifests predate it and ran the
    #: default model
    fault_model: str = DEFAULT_MODEL

    @classmethod
    def from_config(cls, config) -> "CampaignManifest":
        """Build from an ``injection.campaign.CampaignConfig``."""
        # deferred: repro.injection imports the store (via the codec)
        from repro.injection.campaign import IDENTITY_KNOBS
        return cls(
            arch=config.arch, kind=config.kind.value,
            count=config.count, profile_coverage=PROFILE_COVERAGE,
            code_version=code_version(), prune=PRUNE,
            **{name: getattr(config, name) for name in IDENTITY_KNOBS})

    # -- identity ----------------------------------------------------------

    def _hash_payload(self) -> dict:
        """The dict the identity and hash derivations cover.

        The default model serializes to the pre-fault-model (format 3)
        shape — the field is dropped — so legacy single-bit manifests
        keep their campaign ids and verify against their stored hashes
        unchanged; any other model joins the payload and forks the
        identity.
        """
        payload = dataclasses.asdict(self)
        if payload["fault_model"] == DEFAULT_MODEL:
            payload.pop("fault_model")
        return payload

    def identity(self) -> dict:
        """Everything that pins the result stream (count excluded)."""
        payload = self._hash_payload()
        payload.pop("count")
        return payload

    @property
    def campaign_id(self) -> str:
        digest = hashlib.sha256(
            canonical_json(self.identity()).encode("utf-8"))
        return f"{self.kind}-{self.arch}-{digest.hexdigest()[:12]}"

    @property
    def manifest_hash(self) -> str:
        """Covers *all* fields (count included) — drift detection."""
        digest = hashlib.sha256(
            canonical_json(self._hash_payload()).encode("utf-8"))
        return digest.hexdigest()

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["campaign_id"] = self.campaign_id
        payload["manifest_hash"] = self.manifest_hash
        return payload

    def save(self, directory: Path) -> None:
        path = Path(directory) / MANIFEST_NAME
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=2,
                                  sort_keys=True) + "\n",
                       encoding="utf-8")
        tmp.replace(path)              # atomic on POSIX

    @classmethod
    def load(cls, directory: Path) -> "CampaignManifest":
        path = Path(directory) / MANIFEST_NAME
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ManifestError(f"no manifest at {path}")
        except (OSError, json.JSONDecodeError) as exc:
            raise ManifestError(f"unreadable manifest at {path}: {exc}")
        stored_hash = payload.pop("manifest_hash", None)
        payload.pop("campaign_id", None)
        if "prune" not in payload:
            raise ManifestError(
                f"legacy manifest at {path}: written before store "
                f"format 2 (no prune policy recorded); re-run the "
                f"campaign into a fresh store")
        if payload["prune"] != PRUNE:
            raise ManifestError(
                f"manifest at {path} names prune policy "
                f"{payload['prune']!r}, which was retired; only "
                f"prune={PRUNE!r} campaigns can be reopened")
        try:
            manifest = cls(**payload)
        except TypeError as exc:
            raise ManifestError(f"malformed manifest at {path}: {exc}")
        if stored_hash != manifest.manifest_hash:
            raise ManifestError(
                f"manifest hash mismatch at {path}: stored "
                f"{stored_hash!r}, recomputed {manifest.manifest_hash!r}")
        return manifest
