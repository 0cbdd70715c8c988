"""Deterministic re-execution of journaled experiments.

A stored campaign pins everything its result stream depends on — the
manifest identity plus the serial-equivalence contract (per-experiment
seed = ``seed + index * 7919`` off the **global** target index).  That
makes any single journaled experiment re-runnable in isolation: rebuild
the campaign's :class:`CampaignConfig` from the manifest, regenerate
the (deterministic) target list, build the same :class:`RunSpec` the
original run used via ``Campaign.spec_for``, and execute it — this
time with the flight recorder armed.

Replay attaches a recorder, runs in step mode from boot and uses no
checkpoint rung, and a traced run simulates the tail of every register
experiment, absorbing ones included (see :mod:`repro.injection.injector`):
so it is an independent full-run check of each journaled record.

The replayed result must match the journaled one bit for bit; any
difference raises :class:`ReplayDivergence` naming the fields that
drifted.  Divergence means the journal, the code, or the environment
changed under the campaign — exactly what a reproduction harness must
refuse to paper over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.injection.campaign import (
    IDENTITY_KNOBS, Campaign, CampaignConfig,
)
from repro.injection.injector import InjectionRun, RunSpec
from repro.injection.outcomes import (
    CampaignKind, InjectionResult, Outcome,
)
from repro.store.codec import result_to_dict
from repro.store.journal import JournalCorruption
from repro.store.manifest import (
    JOURNAL_NAME, CampaignManifest, ManifestError, code_version,
)
from repro.store.store import CampaignStore
from repro.trace.recorder import DEFAULT_CAPACITY, TraceRecorder


class ReplayError(Exception):
    """The requested experiment cannot be replayed at all."""


class ReplayDivergence(ReplayError):
    """The replayed run contradicts the journaled record."""

    def __init__(self, campaign_id: str, index: int,
                 fields: Dict[str, Tuple[object, object]]):
        self.campaign_id = campaign_id
        self.index = index
        #: field name -> (journaled value, replayed value)
        self.fields = fields
        detail = "; ".join(
            f"{name}: journaled {journaled!r} != replayed {replayed!r}"
            for name, (journaled, replayed) in sorted(fields.items()))
        super().__init__(
            f"replay of {campaign_id}[{index}] diverged: {detail}")


@dataclass
class ReplayOutcome:
    """One verified replay: the record, its twin, and the trace."""

    campaign_id: str
    index: int
    journaled: InjectionResult
    replayed: InjectionResult
    #: armed recorder (empty for screened experiments, which never
    #: touch a machine)
    recorder: TraceRecorder
    #: the spec the experiment ran under (None when screened)
    spec: Optional[RunSpec] = None


def _diff_results(journaled: InjectionResult,
                  replayed: InjectionResult
                  ) -> Dict[str, Tuple[object, object]]:
    """Field-by-field mismatch map over the codec's own view."""
    left = result_to_dict(journaled)
    right = result_to_dict(replayed)
    return {name: (left.get(name), right.get(name))
            for name in sorted(set(left) | set(right))
            if left.get(name) != right.get(name)}


class Replayer:
    """Replays experiments of one stored campaign.

    Construction does the expensive work once — manifest validation,
    journal replay, target regeneration, and (lazily, via the shared
    :class:`CampaignContext` cache) the base machine boot — so
    replaying every experiment of a campaign costs one boot plus one
    fork per experiment, same as the original run.
    """

    def __init__(self, store, campaign_id: str):
        self.store = store if isinstance(store, CampaignStore) \
            else CampaignStore(store)
        self.campaign_id = campaign_id
        directory = self.store.campaign_dir(campaign_id)
        try:
            self.manifest = CampaignManifest.load(directory)
        except ManifestError as exc:
            raise ReplayError(str(exc))
        if self.manifest.code_version != code_version():
            raise ReplayError(
                f"campaign {campaign_id} was written by "
                f"{self.manifest.code_version}, this code is "
                f"{code_version()}; determinism across code versions "
                f"is not guaranteed, so replay refuses")
        self.config = CampaignConfig(
            arch=self.manifest.arch,
            kind=CampaignKind(self.manifest.kind),
            count=self.manifest.count,
            **{name: getattr(self.manifest, name)
               for name in IDENTITY_KNOBS},
            # replay always single-steps: the dissector reasons about
            # per-instruction trace events, and a recorder forces the
            # step core anyway — exec_mode is not part of campaign
            # identity, so this never contradicts the manifest
            exec_mode="step",
            # and always runs from boot: the trace must cover the whole
            # experiment for dissection, and checkpoints (like
            # exec_mode) never enter campaign identity
            checkpoints=0)
        from repro.store import journal as journal_mod
        try:
            report = journal_mod.replay(directory / JOURNAL_NAME,
                                        truncate=False)
        except JournalCorruption as exc:
            raise ReplayError(
                f"campaign {campaign_id} journal is corrupt: {exc}")
        self.records: Dict[int, InjectionResult] = dict(report.records)
        self.campaign = Campaign(self.config)
        self.targets = self.campaign.generate_targets()

    # -- queries -----------------------------------------------------------

    @property
    def indices(self) -> List[int]:
        """Journaled global indices, ascending."""
        return sorted(self.records)

    def journaled(self, index: int) -> InjectionResult:
        if index not in self.records:
            raise ReplayError(
                f"campaign {self.campaign_id} has no journaled result "
                f"for index {index} ({len(self.records)} of "
                f"{self.manifest.count} journaled)")
        return self.records[index]

    def spec_for(self, index: int) -> RunSpec:
        if not 0 <= index < len(self.targets):
            raise ReplayError(
                f"index {index} outside campaign "
                f"{self.campaign_id}'s target list "
                f"(0..{len(self.targets) - 1})")
        return self.campaign.spec_for(index, self.targets[index])

    # -- execution ---------------------------------------------------------

    def _traced_run(self, spec: RunSpec, install: bool, mode: str,
                    capacity: int
                    ) -> Tuple[InjectionResult, TraceRecorder]:
        run = InjectionRun(spec)
        recorder = TraceRecorder(mode=mode, capacity=capacity)
        run.machine.attach_tracer(recorder)
        try:
            result = run.execute(install=install)
        finally:
            run.machine.detach_tracer()
        return result, recorder

    def replay(self, index: int, mode: str = "full",
               capacity: int = DEFAULT_CAPACITY) -> ReplayOutcome:
        """Re-execute experiment *index* and verify it against the
        journal; raises :class:`ReplayDivergence` on any mismatch."""
        journaled = self.journaled(index)
        target = self.targets[index] \
            if 0 <= index < len(self.targets) else None
        if target is None:
            raise ReplayError(
                f"index {index} outside campaign "
                f"{self.campaign_id}'s target list")
        # a screened experiment never ran a machine; replay re-screens
        if self.campaign._screen_not_activated(target, index):
            replayed = InjectionResult(
                arch=self.config.arch, kind=self.config.kind,
                target=target, outcome=Outcome.NOT_ACTIVATED,
                screened=True)
            recorder = TraceRecorder(mode=mode, capacity=capacity)
            spec = None
        else:
            spec = self.spec_for(index)
            replayed, recorder = self._traced_run(
                spec, install=True, mode=mode, capacity=capacity)
        fields = _diff_results(journaled, replayed)
        if fields:
            raise ReplayDivergence(self.campaign_id, index, fields)
        return ReplayOutcome(
            campaign_id=self.campaign_id, index=index,
            journaled=journaled, replayed=replayed,
            recorder=recorder, spec=spec)

    def clean_twin(self, index: int, mode: str = "full",
                   capacity: int = DEFAULT_CAPACITY
                   ) -> Tuple[InjectionResult, TraceRecorder]:
        """Run experiment *index*'s exact spec **without installing the
        error** — the uncorrupted twin the dissection diffs against."""
        return self._traced_run(self.spec_for(index), install=False,
                                mode=mode, capacity=capacity)

    def replay_all(self, mode: str = "ring",
                   capacity: int = DEFAULT_CAPACITY
                   ) -> List[ReplayOutcome]:
        """Replay and verify every journaled experiment (ring mode by
        default: verification only needs outcomes, not full traces)."""
        return [self.replay(index, mode=mode, capacity=capacity)
                for index in self.indices]


def replay_experiment(store, campaign_id: str, index: int,
                      mode: str = "full",
                      capacity: int = DEFAULT_CAPACITY) -> ReplayOutcome:
    """One-call convenience wrapper around :class:`Replayer`."""
    return Replayer(store, campaign_id).replay(index, mode=mode,
                                               capacity=capacity)
