"""The campaign knob table: pinned identity, one default, bounds.

Every campaign knob is declared once, as a ``CampaignKnobs`` field, and
the library, study, service, store and CLI views derive from it.  These
tests hold that design to its contract:

* **Identity is pinned.** ``tests/data/campaign_ids.json`` was recorded
  from ``CampaignManifest.from_config`` before the knob table existed:
  both arches x four kinds at defaults, each fault model on every kind
  it applies to, and one non-default seed, ops and dump-loss
  probability.  Each entry also carries that code's wire payload,
  which still names the retired ``prune`` knob as ``"none"``, so a
  service job index written then still reloads onto the same
  campaign.
* **One default per knob.** The CLI, ``CampaignConfig``,
  ``StudyConfig``, the service and the library entry points that take
  a seed and ops agree on every default, so the same request through
  any of them names the same stored campaign.
* **Bounds everywhere.** A bad value is a field-named ``ValueError``
  from the config itself, whichever path built it.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import repro.injection.campaign as campaign_mod
from repro.__main__ import CLI_KNOBS, _campaign_config, build_parser, main
from repro.analysis.fault_models import compare_models
from repro.analysis.validate_static import (
    distance_latency_probe, validate_propagation, validate_prune,
)
from repro.core import StudyConfig
from repro.injection.campaign import (
    IDENTITY_KNOBS, KNOBS, CampaignConfig, CampaignContext, CampaignKnobs,
    run_campaign,
)
from repro.injection.injector import RunSpec
from repro.injection.outcomes import CampaignKind
from repro.machine.machine import MachineConfig
from repro.service.jobs import campaign_identity
from repro.service.protocol import (
    campaign_config_from_payload, config_to_payload,
    study_configs_from_payload,
)
from repro.store.manifest import CampaignManifest

PINNED = json.loads((Path(__file__).parent / "data"
                     / "campaign_ids.json").read_text())


def _entry_id(entry) -> str:
    config = dict(entry["config"])
    config.pop("count")
    return "-".join(str(value) for value in config.values())


def _config(spec: dict) -> CampaignConfig:
    return CampaignConfig(**dict(spec, kind=CampaignKind(spec["kind"])))


class TestPinnedIdentity:
    @pytest.mark.parametrize("entry", PINNED, ids=_entry_id)
    def test_manifest_identity_unchanged(self, entry):
        manifest = CampaignManifest.from_config(_config(entry["config"]))
        assert manifest.campaign_id == entry["campaign_id"]
        assert manifest.manifest_hash == entry["manifest_hash"]

    @pytest.mark.parametrize("entry", PINNED, ids=_entry_id)
    def test_wire_payload_unchanged(self, entry):
        config = _config(entry["config"])
        # byte-identical, key order included, less the retired knob
        recorded = {name: value for name, value in entry["payload"].items()
                    if name != "prune"}
        assert json.dumps(config_to_payload(config)) == \
            json.dumps(recorded)
        # the recorded payload, "prune": "none" included, still reloads
        reloaded = campaign_config_from_payload(entry["payload"])
        assert reloaded == config
        assert campaign_identity(reloaded) == entry["campaign_id"]

    def test_grid_covers_every_identity_knob(self):
        varied = {name for entry in PINNED for name in entry["config"]}
        assert set(IDENTITY_KNOBS) <= varied

    def test_identity_column(self):
        assert IDENTITY_KNOBS == ("seed", "ops", "dump_loss_probability",
                                  "fault_model")


class TestOneDefault:
    @pytest.mark.parametrize("name", [spec.name for spec in KNOBS])
    def test_every_view_agrees(self, name):
        default = {spec.name: spec.default for spec in KNOBS}[name]
        assert getattr(CampaignKnobs(), name) == default
        assert getattr(StudyConfig(), name) == default
        # the lower layers that share a knob's name share its default
        for layer in (RunSpec, MachineConfig):
            for field in fields(layer):
                if field.name == name and field.default is not MISSING:
                    assert field.default == default, layer.__name__
        omitted = campaign_config_from_payload(
            {"arch": "x86", "kind": "data", "count": 1})
        assert getattr(omitted, name) == default
        for study in study_configs_from_payload({}):
            assert getattr(study, name) == default
        if name in CLI_KNOBS:
            parser = build_parser()
            for argv in (["campaign", "--kind", "data"], ["study"],
                         ["submit", "--kind", "data"]):
                assert getattr(parser.parse_args(argv), name) == default

    @pytest.mark.parametrize("entry", [
        CampaignContext.get, compare_models, distance_latency_probe,
        validate_prune, validate_propagation,
    ], ids=lambda entry: entry.__name__)
    def test_entry_points_take_the_table_defaults(self, entry):
        defaults = {spec.name: spec.default for spec in KNOBS}
        params = inspect.signature(entry).parameters
        for name in ("seed", "ops"):
            assert params[name].default == defaults[name]

    def test_study_scale(self):
        assert build_parser().parse_args(["study"]).scale == \
            StudyConfig().scale == 0.02

    @pytest.mark.parametrize("kind", [kind.value for kind in CampaignKind])
    def test_every_path_names_one_campaign(self, kind, monkeypatch):
        cli = _campaign_config(build_parser().parse_args(
            ["campaign", "--kind", kind]))

        submitted = []

        def fake_submit(self, payload, **_kwargs):
            submitted.append(payload)
            return {"job": {"id": "job-000001", "state": "queued"}}

        monkeypatch.setattr("repro.service.client.ServiceClient.submit",
                            fake_submit)
        assert main(["submit", "--kind", kind]) == 0

        class Recorder:
            def __init__(self, config):
                self.config = config

            def run(self, **_kwargs):
                return self.config

        monkeypatch.setattr(campaign_mod, "Campaign", Recorder)
        library = run_campaign("x86", CampaignKind(kind), 100)

        raw = campaign_config_from_payload(
            {"arch": "x86", "kind": kind, "count": 100})
        ids = {campaign_identity(config) for config in (
            cli, campaign_config_from_payload(submitted[0]), library,
            raw)}
        assert len(ids) == 1


class TestBounds:
    @pytest.mark.parametrize("override,name", [
        ({"count": 0}, "count"),
        ({"count": -1}, "count"),
        ({"count": True}, "count"),
        ({"ops": 0}, "ops"),
        ({"dump_loss_probability": 7.0}, "dump_loss_probability"),
        ({"dump_loss_probability": -0.1}, "dump_loss_probability"),
        ({"checkpoints": -1}, "checkpoints"),
        ({"exec_mode": "jit"}, "exec_mode"),
        ({"fault_model": "rowhammer"}, "fault_model"),
        ({"fault_model": "targeted"}, "fault_model"),
        ({"arch": "arm"}, "arch"),
    ])
    def test_campaign_config_rejects(self, override, name):
        spec = dict({"arch": "x86", "kind": CampaignKind.STACK,
                     "count": 5}, **override)
        with pytest.raises(ValueError, match=name):
            CampaignConfig(**spec)

    def test_int_widens_to_float(self):
        config = CampaignConfig(arch="x86", kind=CampaignKind.DATA,
                                count=1, dump_loss_probability=0)
        assert config.dump_loss_probability == 0.0
        assert isinstance(config.dump_loss_probability, float)

    @pytest.mark.parametrize("override,name", [
        ({"scale": 1.5}, "scale"),
        ({"min_campaign": 0}, "min_campaign"),
        ({"workers": 0}, "workers"),
        ({"ops": 0}, "ops"),
    ])
    def test_study_config_rejects(self, override, name):
        with pytest.raises(ValueError, match=name):
            StudyConfig(**override)

    def test_required_fields_are_keyword_only(self):
        required = [spec.name for spec in fields(CampaignConfig)
                    if spec.default is MISSING
                    and spec.default_factory is MISSING]
        assert required == ["arch", "kind", "count"]
        with pytest.raises(TypeError):
            CampaignConfig("x86", CampaignKind.DATA, 1)


class TestStudyFanOut:
    def test_study_and_service_expand_alike(self):
        payload = {"seed": 4, "ops": 36,
                   "fault_model": "targeted", "scale": 0.001}
        study = StudyConfig(**payload)
        expected = [study.campaign_config(arch, kind)
                    for arch in ("x86", "ppc") for kind in CampaignKind]
        assert study_configs_from_payload(payload) == expected
